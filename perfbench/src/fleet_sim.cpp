// fleet_sim: thousands of seeded campaigns from generate_campaign_set
// through one Orchestrator on shared WAN routes, over and over. All
// work is in the sim, orchestrator, transfer, netsim, scheduler and
// faas modules and none is in the codec, so a codec change should move
// nothing here.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "datagen/campaigns.hpp"
#include "obs/trace.hpp"
#include "orchestrator/orchestrator.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fair_share.hpp"
#include "workloads.hpp"

using namespace ocelot;

namespace perfbench {
namespace {

/// Routes are drawn across the whole site mesh, so campaigns contend on
/// six shared links rather than one corridor. One arrival every two
/// seconds keeps tens of flows on each link (peak 40-80) and the rate
/// history small enough that peak memory barely moves with the seed;
/// 12000 campaigns take ~0.4 s of wall per pass.
CampaignSetConfig fleet_config(std::uint64_t seed) {
  CampaignSetConfig config;
  config.count = 12000;
  config.seed = seed;
  config.arrival_window_s = 24000.0;
  config.profile = "mixed";
  config.inventory_stride = 16;
  return config;
}

struct PassResult {
  double register_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  double peak_bytes = 0.0;  ///< heap high-water above the pass's start
  std::uint64_t run_allocs = 0;
  OrchestratorReport report;
};

PassResult fleet_pass(const std::vector<CampaignSpec>& specs) {
  std::vector<CampaignSpec> copy = specs;
  PassResult r;
  const std::uint64_t live = bench::alloc_counters().current_bytes;
  bench::reset_alloc_peak();
  double t0 = now_s();
  std::unique_ptr<Orchestrator> orch;
  {
    const Span s("orchestrator.register");
    orch = std::make_unique<Orchestrator>(fleet_pool_options());
    for (CampaignSpec& spec : copy) orch->add_campaign(std::move(spec));
  }
  r.register_s = now_s() - t0;
  const std::uint64_t allocs0 = bench::alloc_counters().allocs;
  const double cpu0 = process_cpu_s();
  t0 = now_s();
  {
    const Span s("orchestrator.run");
    r.report = orch->run();
  }
  r.run_s = now_s() - t0;
  r.run_cpu_s = process_cpu_s() - cpu0;
  r.run_allocs = bench::alloc_counters().allocs - allocs0;
  r.peak_bytes =
      static_cast<double>(bench::alloc_counters().peak_bytes - live);
  return r;
}

/// A link that delivers more payload than its capacity allows over the
/// time it was busy.
bool over_capacity(const LinkUsage& link) {
  return link.stats.units_delivered > link.capacity_bps * link.stats.busy_seconds;
}

/// A transfer's stretch is the quotient of two differences of absolute
/// simulation times, so it is exact only to about one ulp of the clock
/// at its end: an uncontended campaign finishing at t = 24000 s reads up
/// to ~1e-12 below 1 over a 3 s transfer. The check allows kStretchUlps
/// ulps of the finish time, relative to the transfer time.
constexpr double kStretchUlps = 4.0;

bool stretch_below_one(const CampaignOutcome& c) {
  const double ulp =
      std::nextafter(c.finish_time, INFINITY) - c.finish_time;
  return c.transfer_stretch <
         1.0 - kStretchUlps * ulp / c.report.transfer_seconds;
}

/// Checks one pass's report; returns the number of campaigns that
/// violate a check (a link that loses flows or delivers more than its
/// capacity fails the whole pass).
std::uint64_t check_report(const OrchestratorReport& report, std::size_t count,
                           Outcome& out) {
  std::uint64_t bad = 0;
  out.check(report.campaigns.size() == count, "campaign count");
  for (const CampaignOutcome& c : report.campaigns) {
    if (c.finish_time < c.submit_time || stretch_below_one(c)) {
      ++bad;
      out.fail("campaign " + c.name + " finishes before it starts or "
               "transfers faster than alone");
    }
  }
  for (const auto& [route, link] : report.links) {
    const sim::ChannelStats& s = link.stats;
    if (s.flows_opened != s.flows_completed + s.flows_cancelled) {
      bad = count;
      out.fail("link " + route + " loses flows");
    }
    if (over_capacity(link)) {
      bad = count;
      out.fail("link " + route + " delivers more than capacity x busy time");
    }
  }
  return bad;
}

/// A fixed fleet (it does not depend on --seed) two of whose six links
/// deliver more than capacity x busy time on every run: transfers with
/// a jitter factor below 1 are charged less link time than their
/// payload needs. Every pass audits its links, and the over-capacity
/// ones count as failed operations, the same share in every run, until
/// the transfer model accounts jittered work correctly.
std::vector<CampaignSpec> audit_fleet() {
  CampaignSetConfig config;
  config.count = 200;
  config.seed = 1;
  config.arrival_window_s = 60.0;
  config.profile = "mixed";
  config.inventory_stride = 16;
  return generate_campaign_set(config);
}

/// Runs the audit fleet (construction, registration and run) and
/// returns the wall time that took.
double audit_capacity(const std::vector<CampaignSpec>& specs, Outcome& out) {
  std::vector<CampaignSpec> copy = specs;
  const double t0 = now_s();
  Orchestrator orch(fleet_pool_options());
  for (CampaignSpec& spec : copy) orch.add_campaign(std::move(spec));
  const OrchestratorReport report = orch.run();
  const double wall = now_s() - t0;
  OpCount& op = out.op("link_capacity_audit");
  for (const auto& [route, link] : report.links) {
    ++op.attempted;
    if (over_capacity(link)) ++op.failed;
  }
  return wall;
}

/// The fleet's per-event queue traffic alone: each round is one arrival
/// push, one completion rearm (cancel + push) and one pop, four ops.
double queue_replay_ops_per_s(std::uint64_t rounds, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> arrival(rounds), rearm(rounds);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    arrival[i] = rng.uniform(0.0, 5.0);
    rearm[i] = rng.uniform(0.0, 2.0);
  }
  const Span span("sim.queue_replay");
  const double t0 = now_s();
  sim::EventQueue queue;
  double now = 0.0;
  sim::EventHandle completion;
  for (int i = 0; i < 64; ++i) queue.push(static_cast<double>(i) * 0.25, [] {});
  for (std::uint64_t i = 0; i < rounds; ++i) {
    queue.push(now + arrival[i], [] {});
    completion.cancel();
    completion = queue.push(now + rearm[i], [] {});
    now = queue.pop().first;
  }
  std::uint64_t drained = 0;
  while (!queue.empty()) {
    queue.pop();
    ++drained;
  }
  return static_cast<double>(4 * rounds + 64 + drained) / (now_s() - t0);
}

/// The fleet's flow traffic on one fair-share channel alone: `flows`
/// flows sized so about `concurrency` of them overlap at 80% offered
/// load, each with its own demand and solo work. An op is one open or
/// one completion.
double fair_share_replay_ops_per_s(std::uint64_t flows, double concurrency,
                                   std::uint64_t seed) {
  Rng rng(seed);
  constexpr double kCapacity = 1.0;
  constexpr double kMeanWork = 5.0;
  constexpr double kLoad = 0.8;
  const double mean_demand = kCapacity / std::max(1.0, concurrency);
  const double window = static_cast<double>(flows) * mean_demand * kMeanWork /
                        (kLoad * kCapacity);
  std::vector<std::pair<double, std::pair<double, double>>> arrivals(flows);
  for (auto& [at, flow] : arrivals) {
    at = rng.uniform(0.0, window);
    flow = {rng.uniform(0.5, 1.5) * mean_demand,
            rng.uniform(1.0, 2.0 * kMeanWork - 1.0)};
  }
  std::sort(arrivals.begin(), arrivals.end());
  const Span span("sim.fair_share_replay");
  const double t0 = now_s();
  sim::Engine engine;
  sim::FairShareChannel channel(engine, "replay", kCapacity);
  std::uint64_t completed = 0;
  for (const auto& [at, flow] : arrivals) {
    const double demand = flow.first, work = flow.second;
    engine.schedule_at(at, [&channel, &completed, demand, work] {
      channel.open_flow(demand, work, [&completed] { ++completed; });
    });
  }
  engine.run();
  return static_cast<double>(flows + completed) / (now_s() - t0);
}

void set_tracing(bool on) {
  Tracer::instance().set_enabled(on);
  obs::set_profiling(on);
}

}  // namespace

Outcome run_fleet_sim(const RunArgs& args) {
  Outcome out;
  const CampaignSetConfig config = fleet_config(args.seed);
  const std::vector<CampaignSpec> specs = generate_campaign_set(config);
  const std::vector<CampaignSpec> audit_specs = audit_fleet();
  std::string first_render;
  std::uint64_t first_fingerprint = 0;
  std::vector<double> audit_walls;

  const auto pass = [&](bool traced) {
    set_tracing(traced);
    PassResult r = fleet_pass(specs);
    set_tracing(false);
    OpCount& op = out.op("campaign");
    op.attempted += config.count;
    op.failed += std::min<std::uint64_t>(
        config.count, check_report(r.report, config.count, out));
    // Two runs of the same fleet in one process must render
    // identically; later passes compare the rendering's fingerprint.
    if (first_render.empty()) {
      first_render = to_string(r.report);
      first_fingerprint = fingerprint(r.report);
    } else if (out.op("campaign").attempted == 2 * config.count) {
      out.check(to_string(r.report) == first_render,
                "second run of the fleet renders differently");
    } else {
      out.check(fingerprint(r.report) == first_fingerprint,
                "a later run of the fleet renders differently");
    }
    audit_walls.push_back(audit_capacity(audit_specs, out));
    return r;
  };

  std::vector<double> register_s, run_s, run_cpu_s, peak_mb;
  const double start = now_s();
  if (!args.trace) {
    while (register_s.size() < 3 || now_s() - start < args.seconds) {
      const PassResult r = pass(false);
      register_s.push_back(r.register_s);
      run_s.push_back(r.run_s);
      run_cpu_s.push_back(r.run_cpu_s);
      peak_mb.push_back(r.peak_bytes * 1e-6);
    }
    out.metric("setup_s", median(register_s), "s");
    out.metric("heavy_op_ms", median(run_s) * 1e3, "ms");
    out.metric("light_op_ms", median(audit_walls) * 1e3, "ms");
    out.metric("cpu_ms_per_op", median(run_cpu_s) * 1e3, "ms");
    out.metric("peak_mem_mb", median(peak_mb), "MB");
    return out;
  }

  // Traced run: untraced and traced passes alternate; the layer
  // figures come from the traced ones' walls (their spans go to the
  // trace file).
  std::vector<double> plain_run_s;
  std::vector<double> allocs_per_event;
  PassResult last;
  while (run_s.size() < 3 || now_s() - start < args.seconds) {
    plain_run_s.push_back(pass(false).run_s);
    last = pass(true);
    register_s.push_back(last.register_s);
    run_s.push_back(last.run_s);
    allocs_per_event.push_back(static_cast<double>(last.run_allocs) /
                               static_cast<double>(last.report.events_executed));
  }
  const double run_median = median(run_s);
  const auto events = static_cast<double>(last.report.events_executed);
  std::size_t peak_flows = 0;
  std::uint64_t flows_opened = 0;
  double concurrency = 0.0;  // mean over links of concurrent flows
  for (const auto& [route, link] : last.report.links) {
    peak_flows = std::max(peak_flows, link.stats.peak_flows);
    flows_opened += link.stats.flows_opened;
    if (link.stats.busy_seconds > 0.0) {
      concurrency += link.stats.flow_seconds / link.stats.busy_seconds /
                     static_cast<double>(last.report.links.size());
    }
  }
  out.metric("orchestrator.register_s", median(register_s), "s");
  out.metric("orchestrator.run_s", run_median, "s");
  out.metric("sim.events", events, "count");
  out.metric("sim.events_per_s", events / run_median, "1/s");
  out.metric("sim.peak_flows", static_cast<double>(peak_flows), "count");
  out.metric("sim.flows_opened", static_cast<double>(flows_opened), "count");
  out.metric("faas.cold_starts", static_cast<double>(last.report.faas_cold_starts),
             "count");
  out.metric("faas.warm_hits", static_cast<double>(last.report.faas_warm_hits),
             "count");
  out.metric("alloc.per_event", median(allocs_per_event), "count");
  out.metric("sim.campaigns_per_s",
             static_cast<double>(config.count) / median(plain_run_s), "1/s");
  out.metric("obs.overhead_pct.fleet_sim",
             (run_median / median(plain_run_s) - 1.0) * 100.0, "%");

  set_tracing(true);
  out.metric("sim.queue_ops_per_s",
             queue_replay_ops_per_s(last.report.events_executed, args.seed),
             "1/s");
  out.metric("sim.fair_share_ops_per_s",
             fair_share_replay_ops_per_s(flows_opened, concurrency, args.seed),
             "1/s");
  set_tracing(false);
  if (!args.trace_dir.empty()) {
    Tracer::instance().write(args.trace_dir + "/fleet_sim-seed" +
                             std::to_string(args.seed) + ".json");
  }
  return out;
}

}  // namespace perfbench

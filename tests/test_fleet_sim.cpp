// Fleet-scale simulation tests: deterministic campaign-set generation,
// thousand-campaign fingerprint stability, equivalence with the
// reference oracle in tests/oracle/ (calendar vs heap queue,
// incremental vs full-recompute fair share, at fleet scale and flow by
// flow on one channel), and the LinkFlap failure-injection hook.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "datagen/campaigns.hpp"
#include "oracle/heap_queue.hpp"
#include "oracle/reference_fair_share.hpp"
#include "orchestrator/orchestrator.hpp"
#include "sim/fair_share.hpp"

namespace ocelot {
namespace {

OrchestratorReport run_fleet(std::size_t count, std::uint64_t seed,
                             sim::EngineSeam seam = {}) {
  CampaignSetConfig config;
  config.count = count;
  config.seed = seed;
  OrchestratorOptions options = fleet_pool_options();
  options.seam = seam;
  Orchestrator orch(std::move(options));
  for (CampaignSpec& spec : generate_campaign_set(config)) {
    orch.add_campaign(std::move(spec));
  }
  return orch.run();
}

TEST(CampaignGenerator, SameSeedProducesIdenticalSpecs) {
  CampaignSetConfig config;
  config.count = 200;
  config.seed = 7;
  config.profile = "mixed";
  const auto a = generate_campaign_set(config);
  const auto b = generate_campaign_set(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].config.src, b[i].config.src);
    EXPECT_EQ(a[i].config.dst, b[i].config.dst);
    EXPECT_EQ(a[i].config.compression_ratio, b[i].config.compression_ratio);
    EXPECT_EQ(a[i].inventory.raw_bytes, b[i].inventory.raw_bytes);
  }
}

TEST(CampaignGenerator, DifferentSeedsDiverge) {
  CampaignSetConfig config;
  config.count = 50;
  config.seed = 1;
  const auto a = generate_campaign_set(config);
  config.seed = 2;
  const auto b = generate_campaign_set(config);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].submit_time != b[i].submit_time ||
        a[i].config.compression_ratio != b[i].config.compression_ratio) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(CampaignGenerator, CorridorProfilePinsTheRoute) {
  CampaignSetConfig config;
  config.count = 100;
  const auto specs = generate_campaign_set(config);
  ASSERT_EQ(specs.size(), 100u);
  for (const CampaignSpec& spec : specs) {
    EXPECT_EQ(spec.config.src, "Anvil");
    EXPECT_EQ(spec.config.dst, "Cori");
    EXPECT_FALSE(spec.inventory.raw_bytes.empty());
    EXPECT_GE(spec.config.compression_ratio, 4.0);
    EXPECT_LE(spec.config.compression_ratio, 16.0);
    EXPECT_GE(spec.submit_time, 0.0);
    EXPECT_LT(spec.submit_time, config.arrival_window_s);
  }
}

TEST(FleetSim, ThousandCampaignsAreDeterministic) {
  const auto first = run_fleet(1000, 42);
  const auto second = run_fleet(1000, 42);
  ASSERT_EQ(first.campaigns.size(), 1000u);
  EXPECT_EQ(fingerprint(first), fingerprint(second));
  EXPECT_EQ(to_string(first), to_string(second));
}

TEST(FleetSim, CalendarQueueMatchesHeapAtScale) {
  const auto calendar = run_fleet(300, 9);
  const auto heap = run_fleet(300, 9, {sim::oracle::make_heap_queue});
  EXPECT_EQ(to_string(calendar), to_string(heap));
}

TEST(FleetSim, IncrementalFairShareMatchesReference) {
  const auto incremental = run_fleet(300, 13);
  const auto reference =
      run_fleet(300, 13, {sim::oracle::make_heap_queue,
                          sim::oracle::make_reference_channel});
  EXPECT_EQ(to_string(incremental), to_string(reference));
}

TEST(FleetSim, LinkFlapSlowsTransfersDeterministically) {
  CampaignSetConfig config;
  config.count = 20;
  config.seed = 3;
  config.arrival_window_s = 10.0;

  const auto run_once = [&config](bool flap) {
    Orchestrator orch(fleet_pool_options());
    for (CampaignSpec& spec : generate_campaign_set(config)) {
      orch.add_campaign(std::move(spec));
    }
    if (flap) {
      sim::LinkFlapConfig flap_config;
      flap_config.seed = 99;
      flap_config.mean_up_seconds = 20.0;
      flap_config.mean_down_seconds = 20.0;
      flap_config.degraded_fraction = 0.05;
      orch.add_link_flap("Anvil", "Cori", flap_config);
    }
    return orch.run();
  };

  const auto baseline = run_once(false);
  const auto flapped = run_once(true);
  const auto flapped_again = run_once(true);

  // Severe, frequent degradation of the only WAN corridor must
  // lengthen the fleet makespan, and do so reproducibly.
  EXPECT_GT(flapped.makespan, baseline.makespan);
  EXPECT_EQ(to_string(flapped), to_string(flapped_again));
  EXPECT_EQ(fingerprint(flapped), fingerprint(flapped_again));
}

TEST(FleetSim, LinkFlapInjectorReportsTransitions) {
  CampaignSetConfig config;
  config.count = 10;
  config.seed = 5;
  config.arrival_window_s = 5.0;
  Orchestrator orch(fleet_pool_options());
  for (CampaignSpec& spec : generate_campaign_set(config)) {
    orch.add_campaign(std::move(spec));
  }
  sim::LinkFlapConfig flap_config;
  flap_config.seed = 7;
  flap_config.mean_up_seconds = 10.0;
  flap_config.mean_down_seconds = 5.0;
  flap_config.degraded_fraction = 0.25;
  orch.add_link_flap("Anvil", "Cori", flap_config);
  const auto report = orch.run();
  EXPECT_EQ(report.campaigns.size(), 10u);
  ASSERT_EQ(orch.link_flaps().size(), 1u);
  EXPECT_GT(orch.link_flaps()[0]->flaps(), 0u);
  // The injector must have shut itself down so the queue drained.
  EXPECT_FALSE(orch.link_flaps()[0]->degraded());
}

/// One side of the channel differential: a channel on its own engine,
/// plus the completion log its callbacks write.
struct ChannelRig {
  sim::Engine engine;
  std::unique_ptr<sim::FlowChannel> channel;
  std::vector<std::pair<sim::FlowChannel::FlowId, double>> completions;
  sim::FlowChannel::FlowId next_id = 0;

  template <class Channel>
  static std::unique_ptr<ChannelRig> make(double capacity) {
    auto rig = std::make_unique<ChannelRig>();
    rig->channel = std::make_unique<Channel>(rig->engine, "wan", capacity);
    return rig;
  }

  sim::FlowChannel::FlowId open(double demand, double work) {
    const sim::FlowChannel::FlowId id = next_id++;
    const sim::FlowChannel::FlowId got =
        channel->open_flow(demand, work, [this, id] {
          completions.emplace_back(id, engine.now());
        });
    EXPECT_EQ(got, id);
    return got;
  }
};

/// Every flow's observable state must match bit for bit.
void expect_same_flows(const ChannelRig& prod, const ChannelRig& ref,
                       const std::vector<double>& works, std::size_t step) {
  const double now = prod.engine.now();
  for (sim::FlowChannel::FlowId id = 0; id < works.size(); ++id) {
    ASSERT_EQ(prod.channel->flow_active(id), ref.channel->flow_active(id))
        << "step " << step << " flow " << id;
    ASSERT_EQ(prod.channel->progress_at(id, now),
              ref.channel->progress_at(id, now))
        << "step " << step << " flow " << id;
    for (const double share : {0.25, 0.5, 1.0}) {
      const double s = share * works[id];
      ASSERT_EQ(prod.channel->delivery_time(id, s),
                ref.channel->delivery_time(id, s))
          << "step " << step << " flow " << id << " share " << share;
    }
  }
}

TEST(FairShareDifferential, ChannelMatchesReferenceFlowByFlow) {
  constexpr double kCapacity = 100.0;
  for (const std::uint64_t seed : {3ull, 17ull, 2024ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto prod = ChannelRig::make<sim::FairShareChannel>(kCapacity);
    auto ref =
        ChannelRig::make<sim::oracle::ReferenceFairShareChannel>(kCapacity);
    Rng rng(seed);
    std::vector<double> works;
    double now = 0.0;
    bool degraded = false;
    for (std::size_t step = 0; step < 300; ++step) {
      // A third of the steps act at the same timestamp as the last.
      if (rng.uniform() > 0.33) now += rng.uniform(0.0, 4.0);
      prod->engine.run_until(now);
      ref->engine.run_until(now);
      const double action = rng.uniform();
      if (action < 0.5) {
        const double demand = rng.uniform(1.0, 200.0);
        const double work =
            rng.uniform() < 0.05 ? 0.0 : rng.uniform(0.0, 30.0);
        prod->open(demand, work);
        ref->open(demand, work);
        works.push_back(work);
      } else if (action < 0.65) {
        // A same-timestamp burst of arrivals.
        const int burst = static_cast<int>(rng.uniform_int(2, 6));
        for (int i = 0; i < burst; ++i) {
          const double demand = rng.uniform(1.0, 200.0);
          const double work = rng.uniform(0.5, 20.0);
          prod->open(demand, work);
          ref->open(demand, work);
          works.push_back(work);
        }
      } else if (action < 0.85) {
        if (works.empty()) continue;
        const auto id = static_cast<sim::FlowChannel::FlowId>(
            rng.uniform_int(0, static_cast<std::int64_t>(works.size()) - 1));
        prod->channel->cancel_flow(id);
        ref->channel->cancel_flow(id);
      } else {
        degraded = !degraded;
        const double capacity =
            degraded ? kCapacity * rng.uniform(0.05, 0.9) : kCapacity;
        prod->channel->set_capacity(capacity);
        ref->channel->set_capacity(capacity);
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_flows(*prod, *ref, works, step));
    }
    prod->engine.run();
    ref->engine.run();
    EXPECT_EQ(prod->engine.now(), ref->engine.now());
    EXPECT_EQ(prod->completions, ref->completions);
    ASSERT_NO_FATAL_FAILURE(expect_same_flows(*prod, *ref, works, 300));
    const sim::ChannelStats& a = prod->channel->stats();
    const sim::ChannelStats& b = ref->channel->stats();
    EXPECT_EQ(a.units_delivered, b.units_delivered);
    EXPECT_EQ(a.busy_seconds, b.busy_seconds);
    EXPECT_EQ(a.flow_seconds, b.flow_seconds);
    EXPECT_EQ(a.peak_flows, b.peak_flows);
    EXPECT_EQ(a.flows_opened, b.flows_opened);
    EXPECT_EQ(a.flows_completed, b.flows_completed);
    EXPECT_EQ(a.flows_cancelled, b.flows_cancelled);
  }
}

}  // namespace
}  // namespace ocelot

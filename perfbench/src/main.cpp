// perfbench: one checked benchmark over Ocelot's public API.
//
//   ocelot_perfbench --workload <archive_batch|daemon_mixed|fleet_sim>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-dir <dir>]
//
// Prints one accounting line per operation class, then, as the last
// line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with
// every span and obs profiling off. With --trace 1 they are the
// per-layer ones, from spans recorded around calls into each layer;
// the spans are written to <trace-dir>/<workload>-seed<n>.json. Every
// workload prints every metric of its mode (see metrics.hpp).
// Exit status: 0 when every check passed, 1 when one failed, 2 on a
// usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "ocelot_perfbench: " << why
            << "\nusage: ocelot_perfbench --workload "
               "<archive_batch|daemon_mixed|fleet_sim> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The metrics of the run's mode in manifest order. A workload must
/// report each end-to-end metric (finite and above 0) and each
/// per-layer metric assigned to it, in its unit, and no other; the
/// per-layer metrics of other workloads read 0. A metric missing after
/// a failed check is left out, since the run is already incorrect.
std::vector<perfbench::Metric> manifest_metrics(perfbench::Outcome& outcome,
                                                const std::string& workload,
                                                bool trace) {
  using perfbench::MetricSpec;
  std::map<std::string, const perfbench::Metric*> reported;
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!reported.emplace(m.name, &m).second) {
      outcome.fail("metric " + m.name + " reported twice");
    }
  }
  const auto kind = trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::vector<perfbench::Metric> metrics;
  for (const MetricSpec& spec : perfbench::kMetricSpecs) {
    if (spec.kind != kind) continue;
    const auto it = reported.find(spec.name);
    if (spec.workload != nullptr && workload != spec.workload) {
      metrics.push_back({spec.name, 0.0, spec.unit});
      continue;  // a report of it is left over and fails below
    }
    if (it == reported.end()) {
      if (outcome.correct) {
        outcome.fail(std::string("metric ") + spec.name + " missing");
      }
      continue;
    }
    const perfbench::Metric& m = *it->second;
    reported.erase(it);
    if (m.unit != spec.unit) {
      outcome.fail("metric " + m.name + " in " + m.unit + ", not " + spec.unit);
    }
    const bool positive = spec.kind == perfbench::kPerLayer || m.value > 0.0;
    if (!std::isfinite(m.value) || !positive) {
      outcome.fail("metric " + m.name + " reads " + json_number(m.value));
      continue;
    }
    metrics.push_back(m);
  }
  for (const auto& entry : reported) {
    outcome.fail("metric " + entry.first + " is not one " + workload +
                 " reports with --trace " + (trace ? "1" : "0"));
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--trace-dir") {
        args.trace_dir = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  // End-to-end numbers are measured with the program's own profiling
  // off; the traced run switches it on around the passes it traces.
  ocelot::obs::set_profiling(false);

  perfbench::Outcome outcome;
  try {
    if (args.workload == "archive_batch") {
      outcome = perfbench::run_archive_batch(args);
    } else if (args.workload == "daemon_mixed") {
      outcome = perfbench::run_daemon_mixed(args);
    } else if (args.workload == "fleet_sim") {
      outcome = perfbench::run_fleet_sim(args);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    outcome.fail(std::string("uncaught exception: ") + e.what());
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const perfbench::OpCount& op : outcome.ops) {
    std::cout << "ops " << args.workload << " " << op.op
              << " attempted=" << op.attempted << " failed=" << op.failed
              << "\n";
    attempted += op.attempted;
    failed += op.failed;
  }
  const std::vector<perfbench::Metric> metrics =
      manifest_metrics(outcome, args.workload, args.trace);
  for (const std::string& p : outcome.problems) {
    std::cerr << "CHECK FAILED: " << p << "\n";
  }
  if (attempted == 0) outcome.fail("no operation attempted");

  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    json += i == 0 ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return outcome.correct ? 0 : 1;
}

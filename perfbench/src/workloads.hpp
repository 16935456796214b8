#pragma once
// The three workloads; each returns its checked outcome and metrics.

#include "common.hpp"

namespace perfbench {

Outcome run_archive_batch(const RunArgs& args);
Outcome run_daemon_mixed(const RunArgs& args);
Outcome run_fleet_sim(const RunArgs& args);

}  // namespace perfbench

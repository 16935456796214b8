#pragma once
// Seeded failure injection: WAN link bandwidth flapping.
//
// A LinkFlap drives one FlowChannel through alternating up and
// degraded periods drawn from seeded exponential distributions — the
// lightweight failure model for wide-area links whose effective
// bandwidth collapses under congestion or partial outage rather than
// dropping to zero. Each transition calls set_capacity, so in-flight
// flows reallocate max-min fairly at the flap instant and the
// orchestrator's transfer timings shift deterministically with the
// seed.
//
// The injector only reschedules itself while its keep-running
// predicate holds (the orchestrator supplies "campaigns still live"),
// so the event queue drains once the fleet finishes; if it stops while
// degraded it restores the link's base capacity first.

#include <cstdint>

#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"

namespace ocelot::sim {

struct LinkFlapConfig {
  std::uint64_t seed = 1;
  double mean_up_seconds = 600.0;    ///< mean healthy-period length
  double mean_down_seconds = 60.0;   ///< mean degraded-period length
  double degraded_fraction = 0.25;   ///< capacity multiplier while down
  double start_time = 0.0;           ///< virtual time injection begins
};

class LinkFlap {
 public:
  /// Queried before every transition; returning false stops the
  /// injector (restoring full capacity if currently degraded).
  using KeepRunning = InlineFunction<bool()>;

  LinkFlap(Engine& engine, FlowChannel& channel, LinkFlapConfig config,
           KeepRunning keep_running);

  /// Schedules the first degradation. Call once.
  void start();

  /// Cancels any pending transition and restores full capacity.
  void stop();

  /// Transitions performed so far (degrade + restore each count).
  [[nodiscard]] std::uint64_t flaps() const { return flaps_; }
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  void transition();

  Engine& engine_;
  FlowChannel& channel_;
  LinkFlapConfig config_;
  KeepRunning keep_running_;
  Rng rng_;
  double base_capacity_ = 0.0;
  bool started_ = false;
  bool degraded_ = false;
  std::uint64_t flaps_ = 0;
  EventHandle next_;
};

}  // namespace ocelot::sim

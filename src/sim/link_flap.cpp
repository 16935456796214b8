#include "sim/link_flap.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ocelot::sim {

LinkFlap::LinkFlap(Engine& engine, FlowChannel& channel,
                   LinkFlapConfig config, KeepRunning keep_running)
    : engine_(engine), channel_(channel), config_(config),
      keep_running_(std::move(keep_running)), rng_(config.seed) {
  require(config_.mean_up_seconds > 0.0, "LinkFlap: mean_up must be positive");
  require(config_.mean_down_seconds > 0.0,
          "LinkFlap: mean_down must be positive");
  require(config_.degraded_fraction > 0.0 && config_.degraded_fraction <= 1.0,
          "LinkFlap: degraded_fraction must be in (0, 1]");
  require(config_.start_time >= 0.0, "LinkFlap: negative start time");
}

void LinkFlap::start() {
  require(!started_, "LinkFlap: already started");
  started_ = true;
  base_capacity_ = channel_.capacity();
  const double delay =
      config_.start_time + rng_.exponential(1.0 / config_.mean_up_seconds);
  next_ = engine_.schedule_at(delay, [this] { transition(); });
}

void LinkFlap::stop() {
  next_.cancel();
  if (degraded_) {
    channel_.set_capacity(base_capacity_);
    degraded_ = false;
    ++flaps_;
  }
}

void LinkFlap::transition() {
  if (keep_running_ && !keep_running_()) {
    // Fleet is done: leave the link healthy and stop rescheduling so
    // the event queue can drain.
    if (degraded_) {
      channel_.set_capacity(base_capacity_);
      degraded_ = false;
      ++flaps_;
    }
    return;
  }
  double delay;
  if (degraded_) {
    channel_.set_capacity(base_capacity_);
    degraded_ = false;
    delay = rng_.exponential(1.0 / config_.mean_up_seconds);
  } else {
    channel_.set_capacity(base_capacity_ * config_.degraded_fraction);
    degraded_ = true;
    delay = rng_.exponential(1.0 / config_.mean_down_seconds);
  }
  ++flaps_;
  OCELOT_COUNT("sim.linkflap.transitions", 1);
  next_ = engine_.schedule_in(delay, [this] { transition(); });
}

}  // namespace ocelot::sim

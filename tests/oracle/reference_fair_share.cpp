#include "oracle/reference_fair_share.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ocelot::sim::oracle {

namespace {

/// Slack for floating-point completion checks, relative to `scale`.
double eps_for(double scale) { return 1e-9 * (1.0 + std::abs(scale)); }

}  // namespace

std::unique_ptr<FlowChannel> make_reference_channel(Engine& engine,
                                                    std::string name,
                                                    double capacity) {
  return std::make_unique<ReferenceFairShareChannel>(engine, std::move(name),
                                                     capacity);
}

ReferenceFairShareChannel::ReferenceFairShareChannel(Engine& engine,
                                                     std::string name,
                                                     double capacity)
    : engine_(engine), name_(std::move(name)), capacity_(capacity),
      last_update_(engine.now()) {
  require(capacity > 0.0, "FairShareChannel: capacity must be positive");
}

ReferenceFairShareChannel::FlowId ReferenceFairShareChannel::open_flow(
    double demand, double work_seconds, FlowCallback on_complete,
    double stat_units) {
  require(demand > 0.0, "FairShareChannel: demand must be positive");
  require(work_seconds >= 0.0, "FairShareChannel: negative work");
  sync_progress();

  if (stat_units < 0.0) stat_units = demand * work_seconds;
  const FlowId id = flows_.size();
  Flow& flow = flows_.emplace_back();
  segments_.emplace_back(PoolAllocator<Segment>(engine_.object_pool()));
  Hot& hot = hot_.emplace_back();
  hot.demand = demand;
  hot.work = work_seconds;
  hot.stat_rate = work_seconds > 0.0 ? stat_units / work_seconds : 0.0;
  flow.opened_at = engine_.now();
  flow.on_complete = std::move(on_complete);
  active_.push_back(id);
  index_.emplace(id, id);
  sorted_.insert(
      std::upper_bound(sorted_.begin(), sorted_.end(),
                       std::make_pair(demand, id)),
      std::make_pair(demand, id));
  ++stats_.flows_opened;
  stats_.peak_flows = std::max(stats_.peak_flows, active_.size());

  reallocate();
  return id;
}

void ReferenceFairShareChannel::cancel_flow(FlowId id) {
  require(id < flows_.size(), "FairShareChannel: unknown flow");
  Flow& flow = flows_[id];
  if (!flow.active) return;
  sync_progress();
  flow.active = false;
  flow.closed_at = engine_.now();
  // The completion callback will never fire; drop it now so whatever
  // it captures (e.g. the cancelled transfer task) can be freed.
  flow.on_complete = nullptr;
  remove_active(id, hot_[id].demand);
  ++stats_.flows_cancelled;
  reallocate();
}

void ReferenceFairShareChannel::set_capacity(double capacity) {
  require(capacity > 0.0, "FairShareChannel: capacity must be positive");
  if (capacity == capacity_) return;
  sync_progress();
  capacity_ = capacity;
  reallocate();
}

bool ReferenceFairShareChannel::flow_active(FlowId id) const {
  return flow_ref(id).active;
}

const ReferenceFairShareChannel::Flow& ReferenceFairShareChannel::flow_ref(
    FlowId id) const {
  require(id < flows_.size(), "FairShareChannel: unknown flow");
  return flows_[id];
}

const ReferenceFairShareChannel::Hot& ReferenceFairShareChannel::hot_ref(
    FlowId id) const {
  require(id < hot_.size(), "FairShareChannel: unknown flow");
  return hot_[id];
}

double ReferenceFairShareChannel::progress_at(FlowId id, double t) const {
  const Flow& flow = flow_ref(id);
  const SegmentVec& segments = segments_[id];
  if (t <= flow.opened_at || segments.empty()) return 0.0;
  const double horizon = std::min(t, flow.closed_at);
  double progress = 0.0;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const Segment& seg = segments[k];
    if (seg.wall >= horizon) break;
    const double seg_end =
        (k + 1 < segments.size()) ? segments[k + 1].wall : horizon;
    const double dt = std::min(horizon, seg_end) - seg.wall;
    progress = seg.service + seg.fraction * std::max(0.0, dt);
  }
  // An active flow may have progressed past the last sync point, but
  // never past its total work.
  return std::min(progress, hot_ref(id).work);
}

double ReferenceFairShareChannel::delivery_time(FlowId id, double s) const {
  const Flow& flow = flow_ref(id);
  const Hot& hot = hot_ref(id);
  if (s <= 0.0) return flow.opened_at;
  const double eps = eps_for(hot.work);
  // Service the flow ever receives: all of it while active or once
  // completed; frozen at the cancellation point otherwise. An active
  // flow's last segment extrapolates at the current rate.
  const double ceiling =
      (flow.active || flow.completed) ? hot.work : hot.progress;
  if (s > ceiling + eps) return kNever;
  const SegmentVec& segments = segments_[id];
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const Segment& seg = segments[k];
    const double seg_service_end =
        (k + 1 < segments.size()) ? segments[k + 1].service : ceiling;
    if (s <= seg_service_end + eps || k + 1 == segments.size()) {
      if (seg.fraction <= 0.0) return seg.wall;
      const double wall = seg.wall + (s - seg.service) / seg.fraction;
      return std::min(wall, flow.closed_at);
    }
  }
  return kNever;
}

void ReferenceFairShareChannel::sync_progress() {
  const double now = engine_.now();
  const double dt = now - last_update_;
  if (dt > 0.0) {
    double rate_units = 0.0;
    for (const FlowId id : active_) {
      Hot& hot = hot_[slot_of(id)];
      hot.progress = std::min(hot.work, hot.progress + hot.fraction * dt);
      rate_units += hot.fraction * hot.stat_rate;
    }
    stats_.units_delivered += rate_units * dt;
    stats_.flow_seconds += static_cast<double>(active_.size()) * dt;
    if (!active_.empty()) stats_.busy_seconds += dt;
  }
  last_update_ = now;
}

void ReferenceFairShareChannel::apply_fraction(std::size_t slot,
                                               double fraction, double now,
                                               double& earliest) {
  Hot& hot = hot_[slot];
  // hot.fraction mirrors segments.back().fraction (and is -1 while the
  // history is empty), so an unchanged rate skips the cold record
  // entirely.
  if (hot.fraction != fraction) {
    SegmentVec& segments = segments_[slot];
    if (!segments.empty() && segments.back().wall == now) {
      // Batch same-timestamp rate updates: no virtual time has passed
      // since the last segment began, so overwrite its rate in place
      // instead of accumulating zero-width segments.
      segments.back().fraction = fraction;
    } else {
      segments.push_back(Segment{now, hot.progress, fraction});
    }
    hot.fraction = fraction;
  }
  const double remaining = hot.work - hot.progress;
  const double finish = remaining <= 0.0 ? now : now + remaining / fraction;
  earliest = std::min(earliest, finish);
}

void ReferenceFairShareChannel::remove_active(FlowId id, double demand) {
  active_.erase(std::find(active_.begin(), active_.end(), id));
  const auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                                   std::make_pair(demand, id));
  // The exact (demand, id) pair was inserted at open_flow, so the
  // search always lands on it.
  sorted_.erase(it);
}

void ReferenceFairShareChannel::reallocate() {
  const double now = engine_.now();
  OCELOT_COUNT("sim.fairshare.reallocs", 1);
  OCELOT_HIST("sim.fairshare.flows", static_cast<double>(active_.size()));

  // Full max-min recompute with scratch vectors and an internal sort.
  std::vector<double> demands;
  demands.reserve(active_.size());
  for (const FlowId id : active_) {
    demands.push_back(hot_[slot_of(id)].demand);
  }
  const std::vector<double> alloc = max_min_allocation(capacity_, demands);
  double earliest = kNever;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::size_t slot = slot_of(active_[i]);
    apply_fraction(slot, alloc[i] / hot_[slot].demand, now, earliest);
  }

  next_completion_.cancel();
  if (earliest < kNever) {
    next_completion_ =
        engine_.schedule_at(earliest, [this] { on_completion_event(); });
  }
}

void ReferenceFairShareChannel::on_completion_event() {
  sync_progress();
  // Collect every flow that has (numerically) finished, in id order —
  // ids are assigned monotonically, so this is deterministic.
  done_scratch_.clear();
  for (const FlowId id : active_) {
    const Hot& hot = hot_[slot_of(id)];
    if (hot.progress >= hot.work - eps_for(hot.work)) {
      done_scratch_.push_back(id);
    }
  }
  callbacks_scratch_.clear();
  for (const FlowId id : done_scratch_) {
    const std::size_t slot = slot_of(id);
    Hot& hot = hot_[slot];
    Flow& flow = flows_[slot];
    hot.progress = hot.work;  // pin exact completion
    flow.active = false;
    flow.completed = true;
    flow.closed_at = engine_.now();
    remove_active(id, hot.demand);
    ++stats_.flows_completed;
    if (flow.on_complete) {
      callbacks_scratch_.push_back(std::move(flow.on_complete));
    }
    flow.on_complete = nullptr;
  }
  reallocate();
  for (auto& cb : callbacks_scratch_) cb();
  callbacks_scratch_.clear();
}

}  // namespace ocelot::sim::oracle

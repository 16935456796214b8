#pragma once
// Reference fair-share channel: the full-recompute max-min pass the
// simulator ran before the incremental one, kept as the differential
// oracle for sim::FairShareChannel and as the baseline of
// bench_sim_scaling.
//
// Every reallocation gathers the active demands into scratch vectors
// and calls sim::max_min_allocation, which sorts them afresh; every
// hot-path flow access resolves the flow through a map-indexed flow
// table, like the original std::map<FlowId, Flow>. Flow bookkeeping,
// rate history and queries are otherwise the production channel's, so
// the two can be diffed flow by flow.
//
// Cost fidelity: the reference row of bench_sim_scaling must keep
// measuring what the reference path cost when it lived in the
// library. That path also kept the (demand, id)-sorted table current
// on every open and close, so this channel does too, although its
// pass never reads it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/pool_alloc.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"

namespace ocelot::sim::oracle {

class ReferenceFairShareChannel final : public FlowChannel {
 public:
  ReferenceFairShareChannel(Engine& engine, std::string name,
                            double capacity);

  FlowId open_flow(double demand, double work_seconds,
                   FlowCallback on_complete,
                   double stat_units = -1.0) override;
  void cancel_flow(FlowId id) override;
  void set_capacity(double capacity) override;
  [[nodiscard]] bool flow_active(FlowId id) const override;
  [[nodiscard]] double progress_at(FlowId id, double t) const override;
  [[nodiscard]] double delivery_time(FlowId id, double s) const override;

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double capacity() const override { return capacity_; }
  [[nodiscard]] std::size_t active_flows() const override {
    return active_.size();
  }
  [[nodiscard]] const ChannelStats& stats() const override { return stats_; }

 private:
  struct Segment {
    double wall;      ///< wall time the stretch began
    double service;   ///< cumulative service at that time
    double fraction;  ///< progress rate (allocation / demand)
  };
  using SegmentVec = std::vector<Segment, PoolAllocator<Segment>>;

  struct Hot {
    double demand = 0.0;
    double work = 0.0;
    double stat_rate = 0.0;
    double progress = 0.0;
    double fraction = -1.0;  ///< -1 before the first allocation
  };

  struct Flow {
    double opened_at = 0.0;
    double closed_at = kNever;
    bool active = true;
    bool completed = false;
    FlowCallback on_complete;
  };

  const Flow& flow_ref(FlowId id) const;
  const Hot& hot_ref(FlowId id) const;
  /// One map lookup per hot-path access.
  [[nodiscard]] std::size_t slot_of(FlowId id) const {
    return index_.find(id)->second;
  }
  void sync_progress();
  void reallocate();
  void apply_fraction(std::size_t slot, double fraction, double now,
                      double& earliest);
  void remove_active(FlowId id, double demand);
  void on_completion_event();

  Engine& engine_;
  std::string name_;
  double capacity_;
  std::vector<Hot> hot_;
  std::vector<Flow> flows_;
  std::vector<SegmentVec> segments_;
  std::vector<FlowId> active_;  ///< ascending ids (insertion order)
  std::vector<std::pair<double, FlowId>> sorted_;  ///< see file comment
  std::map<FlowId, std::size_t> index_;  ///< FlowId -> slot
  std::vector<FlowId> done_scratch_;
  std::vector<FlowCallback> callbacks_scratch_;
  EventHandle next_completion_;
  double last_update_ = 0.0;
  ChannelStats stats_;
};

/// EngineSeam::make_channel for the reference channel.
std::unique_ptr<FlowChannel> make_reference_channel(Engine& engine,
                                                    std::string name,
                                                    double capacity);

}  // namespace ocelot::sim::oracle

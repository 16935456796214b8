#pragma once
// Reference event queue: the binary min-heap the simulator ran on
// before the calendar queue, kept as the differential oracle for
// sim::EventQueue and as the baseline of bench_sim_scaling.
//
// Ordering is the engine's (time, seq) total order. Cancellations are
// lazily deleted at the head, and the heap compacts itself once
// cancelled tombstones exceed half its entries, bounding memory at
// O(live) under schedule/cancel churn. Every event costs one shared
// EventState allocation — the original storage model, which is the
// cost the bench's reference row measures.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/event_queue.hpp"

namespace ocelot::sim::oracle {

/// Live-event bookkeeping shared between the heap and its events, so
/// a handle's cancel can update the queue's live count.
struct QueueCounters {
  std::size_t live = 0;
};

/// One event's record; it is its handles' owner. The heap entry holds
/// the only strong reference, so a fired or swept event's handles
/// read as inactive.
struct EventState final : detail::EventOwner {
  bool cancelled = false;
  std::weak_ptr<QueueCounters> counters;
  detail::EventCallback cb;

  [[nodiscard]] bool handle_active(std::uint32_t /*slot*/,
                                   std::uint32_t /*gen*/) const override {
    return !cancelled;
  }

  bool cancel(std::uint32_t /*slot*/, std::uint32_t /*gen*/) override {
    if (cancelled) return false;
    cancelled = true;
    cb = nullptr;  // free captures immediately
    if (auto c = counters.lock()) --c->live;
    return true;
  }
};

class HeapQueue final : public EventScheduler {
 public:
  HeapQueue() : counters_(std::make_shared<QueueCounters>()) {}

  EventHandle push(double time, Callback cb) override {
    require(std::isfinite(time), "EventQueue: event time must be finite");
    auto state = std::make_shared<EventState>();
    state->counters = counters_;
    state->cb = std::move(cb);
    ++counters_->live;
    heap_.push_back(Entry{time, seq_++, state});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    maybe_compact();
    return EventHandle(std::move(state), 0, 0);
  }

  [[nodiscard]] double next_time() override {
    drop_cancelled();
    return heap_.front().time;
  }

  [[nodiscard]] bool empty() override {
    drop_cancelled();
    return heap_.empty();
  }

  [[nodiscard]] std::size_t live() const override { return counters_->live; }

  std::pair<double, Callback> pop() override {
    drop_cancelled();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    --counters_->live;
    maybe_compact();
    return {entry.time, std::move(entry.state->cb)};
  }

  /// Entries physically stored (live + uncollected tombstones).
  [[nodiscard]] std::size_t physical_entries() const { return heap_.size(); }
  /// Compactions performed.
  [[nodiscard]] std::uint64_t purges() const { return purges_; }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::shared_ptr<EventState> state;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty() && heap_.front().state->cancelled) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
  }

  /// Sweeps every tombstone once cancelled entries outnumber live
  /// ones, keeping memory O(live) under schedule/cancel churn.
  void maybe_compact() {
    if (heap_.size() < 64 || heap_.size() <= 2 * counters_->live) return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [](const Entry& e) {
                                 return e.state->cancelled;
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++purges_;
  }

  std::vector<Entry> heap_;
  std::shared_ptr<QueueCounters> counters_;
  std::uint64_t seq_ = 0;
  std::uint64_t purges_ = 0;
};

/// EngineSeam::make_queue for the reference heap.
inline std::unique_ptr<EventScheduler> make_heap_queue() {
  return std::make_unique<HeapQueue>();
}

}  // namespace ocelot::sim::oracle

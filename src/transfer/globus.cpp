#include "transfer/globus.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace ocelot {

double TransferTask::file_completion_offset(std::size_t i) const {
  const double delivered_at = channel_->delivery_time(flow_, data_service_[i]);
  if (delivered_at == sim::FlowChannel::kNever) {
    return sim::FlowChannel::kNever;
  }
  return estimate_.startup_seconds +
         estimate_.per_file_seconds * static_cast<double>(i + 1) +
         (delivered_at - submitted_at_);
}

std::size_t TransferTask::completed_files_at(double t) const {
  if (status_ == Status::kSucceeded && t >= completed_at_) {
    return file_bytes_.size();
  }
  double horizon = t - submitted_at_;
  if (status_ == Status::kCancelled) {
    horizon = std::min(horizon, cancelled_at_ - submitted_at_);
  }
  // Completion offsets are nondecreasing in the file index, so the
  // first not-yet-complete file bounds the count.
  std::size_t lo = 0, hi = file_bytes_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (file_completion_offset(mid) <= horizon) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double TransferTask::completed_bytes_at(double t) const {
  const std::size_t n = completed_files_at(t);
  double bytes = 0.0;
  for (std::size_t i = 0; i < n; ++i) bytes += file_bytes_[i];
  return bytes;
}

void TransferTask::cancel(double now) {
  if (status_ != Status::kActive) return;
  status_ = Status::kCancelled;
  cancelled_at_ = now;
  if (!service_done_) channel_->cancel_flow(flow_);
  completion_event_.cancel();
  // The completion callback will never fire; free its captures now.
  on_complete_ = nullptr;
}

sim::FlowChannel& GlobusService::channel_for(const LinkProfile& link) {
  auto it = channels_.find(link.name);
  if (it == channels_.end()) {
    it = channels_
             .emplace(link.name, sim::make_flow_channel(sim_, link.name,
                                                        link.bandwidth_bps))
             .first;
  }
  return *it->second;
}

std::shared_ptr<TransferTask> GlobusService::submit(
    TransferRequest request, TransferTask::Callback on_complete) {
  require(!request.file_bytes.empty(), "GlobusService: empty transfer");
  // Tasks churn once per transfer; draw them from the engine's pool
  // (the control block keeps the pool alive if a handle outlives us).
  auto task = std::allocate_shared<TransferTask>(
      PoolAllocator<TransferTask>(sim_.object_pool()));
  task->estimate_ = model_.estimate(request.file_bytes, request.link);
  task->on_complete_ = std::move(on_complete);
  task->submitted_at_ = sim_.now();

  // Per-file payload service offsets, derived from the estimate's
  // completion times (offset minus the overhead terms) so the model's
  // formula lives in one place and the solo case matches exactly.
  const TransferEstimate& est = task->estimate_;
  task->data_service_.reserve(request.file_bytes.size());
  for (std::size_t i = 0; i < est.completion_times.size(); ++i) {
    task->data_service_.push_back(
        est.completion_times[i] - est.startup_seconds -
        est.per_file_seconds * static_cast<double>(i + 1));
  }

  sim::FlowChannel& channel = channel_for(request.link);
  task->channel_ = &channel;
  const double payload_bytes = std::accumulate(
      request.file_bytes.begin(), request.file_bytes.end(), 0.0);
  task->file_bytes_ = std::move(request.file_bytes);
  task->flow_ = channel.open_flow(
      est.eff_bandwidth_bps, est.data_seconds,
      [this, task] {
        // Payload delivered; the control channel wraps up for the
        // fixed overhead, then the task completes.
        task->service_done_ = true;
        task->completion_event_ = sim_.schedule_in(
            task->estimate_.overhead_seconds, [this, task] {
              if (task->status_ != TransferTask::Status::kActive) return;
              task->status_ = TransferTask::Status::kSucceeded;
              task->completed_at_ = sim_.now();
              auto cb = std::move(task->on_complete_);
              if (cb) cb(*task);
            });
      },
      payload_bytes);
  return task;
}

}  // namespace ocelot

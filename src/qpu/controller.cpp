#include "qpu/controller.hpp"

#include <algorithm>

#define QCENV_LOG_COMPONENT "qpu.controller"
#include "common/logging.hpp"

namespace qcenv::qpu {

using common::Result;
using common::Status;
using common::TaskId;
using quantum::Samples;

const char* to_string(TaskState state) noexcept {
  switch (state) {
    case TaskState::kQueued: return "queued";
    case TaskState::kRunning: return "running";
    case TaskState::kDone: return "done";
    case TaskState::kFailed: return "failed";
    case TaskState::kCancelled: return "cancelled";
  }
  return "?";
}

QpuController::QpuController(QpuDevice* device, common::Clock* clock)
    : device_(device),
      clock_(clock),
      worker_([this](const std::stop_token& stop) { worker_loop(stop); }) {}

QpuController::~QpuController() {
  worker_.request_stop();
  cv_.notify_all();
}

TaskId QpuController::submit(quantum::Payload payload) {
  auto entry = std::make_shared<Entry>();
  entry->info.id = ids_.next();
  entry->info.state = TaskState::kQueued;
  entry->info.submitted_ns = clock_->now();
  entry->info.shots = payload.shots();
  entry->payload = std::move(payload);
  {
    std::scoped_lock lock(mutex_);
    queue_.push_back(entry);
    tasks_[entry->info.id] = entry;
  }
  cv_.notify_all();
  return entry->info.id;
}

Result<TaskState> QpuController::status(TaskId id) const {
  std::scoped_lock lock(mutex_);
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task " + id.to_string());
  }
  return it->second->info.state;
}

Result<TaskInfo> QpuController::info(TaskId id) const {
  std::scoped_lock lock(mutex_);
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task " + id.to_string());
  }
  return it->second->info;
}

Result<Samples> QpuController::result(TaskId id) const {
  std::scoped_lock lock(mutex_);
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task " + id.to_string());
  }
  const Entry& entry = *it->second;
  switch (entry.info.state) {
    case TaskState::kDone: return *entry.samples;
    case TaskState::kFailed: return *entry.error;
    case TaskState::kCancelled:
      return common::err::cancelled("task " + id.to_string() +
                                    " was cancelled");
    default:
      return common::err::failed_precondition(
          "task " + id.to_string() + " is still " +
          std::string(to_string(entry.info.state)));
  }
}

Result<TaskState> QpuController::wait_terminal(TaskId id) {
  std::unique_lock lock(mutex_);
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task " + id.to_string());
  }
  auto entry = it->second;
  cv_.wait(lock, [&] {
    return entry->info.state == TaskState::kDone ||
           entry->info.state == TaskState::kFailed ||
           entry->info.state == TaskState::kCancelled;
  });
  return entry->info.state;
}

Result<Samples> QpuController::wait(TaskId id) {
  auto state = wait_terminal(id);
  if (!state.ok()) return state.error();
  return result(id);
}

Status QpuController::cancel(TaskId id) {
  std::scoped_lock lock(mutex_);
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task " + id.to_string());
  }
  Entry& entry = *it->second;
  switch (entry.info.state) {
    case TaskState::kQueued: {
      entry.info.state = TaskState::kCancelled;
      entry.info.finished_ns = clock_->now();
      const auto queue_it =
          std::find(queue_.begin(), queue_.end(), it->second);
      if (queue_it != queue_.end()) queue_.erase(queue_it);
      cv_.notify_all();
      return Status::ok_status();
    }
    case TaskState::kRunning:
      entry.cancel_requested.store(true, std::memory_order_release);
      return Status::ok_status();
    default:
      return common::err::failed_precondition(
          "task already " + std::string(to_string(entry.info.state)));
  }
}

std::size_t QpuController::queue_depth() const {
  std::scoped_lock lock(mutex_);
  return queue_.size();
}

std::vector<TaskInfo> QpuController::list_tasks() const {
  std::scoped_lock lock(mutex_);
  std::vector<TaskInfo> out;
  out.reserve(tasks_.size());
  for (const auto& [_, entry] : tasks_) out.push_back(entry->info);
  return out;
}

void QpuController::worker_loop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    std::shared_ptr<Entry> entry;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stop.stop_requested() || !queue_.empty(); });
      if (stop.stop_requested()) return;
      entry = queue_.front();
      queue_.pop_front();
      entry->info.state = TaskState::kRunning;
      entry->info.started_ns = clock_->now();
    }
    auto outcome = device_->execute(entry->payload, &entry->cancel_requested);
    {
      std::scoped_lock lock(mutex_);
      entry->info.finished_ns = clock_->now();
      if (outcome.ok()) {
        entry->samples = std::move(outcome).value();
        entry->info.state = TaskState::kDone;
      } else if (outcome.error().code() == common::ErrorCode::kCancelled) {
        entry->info.state = TaskState::kCancelled;
      } else {
        entry->error = outcome.error();
        entry->info.error = outcome.error().to_string();
        entry->info.state = TaskState::kFailed;
        QCENV_LOG(Warn) << "task " << entry->info.id.to_string()
                        << " failed: " << entry->info.error;
      }
    }
    cv_.notify_all();
  }
}

}  // namespace qcenv::qpu

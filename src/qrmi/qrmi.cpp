#include "qrmi/qrmi.hpp"

#include <chrono>
#include <thread>

namespace qcenv::qrmi {

const char* to_string(ResourceType type) noexcept {
  switch (type) {
    case ResourceType::kLocalEmulator: return "local-emulator";
    case ResourceType::kDirectAccess: return "direct-access";
    case ResourceType::kCloudQpu: return "cloud-qpu";
    case ResourceType::kCloudEmulator: return "cloud-emulator";
  }
  return "?";
}

common::Result<ResourceType> resource_type_from_string(const std::string& s) {
  if (s == "local-emulator") return ResourceType::kLocalEmulator;
  if (s == "direct-access") return ResourceType::kDirectAccess;
  if (s == "cloud-qpu") return ResourceType::kCloudQpu;
  if (s == "cloud-emulator") return ResourceType::kCloudEmulator;
  return common::err::invalid_argument("unknown QRMI resource type: " + s);
}

const char* to_string(TaskStatus status) noexcept {
  switch (status) {
    case TaskStatus::kQueued: return "queued";
    case TaskStatus::kRunning: return "running";
    case TaskStatus::kCompleted: return "completed";
    case TaskStatus::kFailed: return "failed";
    case TaskStatus::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {
common::TimeNs run_sync_now(const common::Clock* clock) {
  if (clock != nullptr) return clock->now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

common::Result<TaskStatus> Qrmi::task_wait(const std::string& task_id,
                                           common::DurationNs poll_interval,
                                           common::Clock* clock,
                                           std::uint64_t* polls) {
  while (true) {
    auto status = task_status(task_id);
    if (polls != nullptr) ++*polls;
    if (!status.ok() || is_terminal(status.value())) return status;
    if (clock != nullptr) {
      clock->sleep_for(poll_interval);
      // A virtual clock may return instantly (auto-advancing manual
      // clocks do): hand the core to the worker actually running the
      // task instead of spinning on task_status.
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(poll_interval));
    }
  }
}

common::Result<quantum::Samples> Qrmi::run_sync(
    const quantum::Payload& payload, common::DurationNs poll_interval,
    common::Clock* clock, RunStats* stats) {
  auto task = task_start(payload);
  if (!task.ok()) return task.error();
  const std::string& id = task.value();
  if (stats != nullptr) stats->poll_start = run_sync_now(clock);
  auto status = task_wait(id, poll_interval, clock,
                          stats != nullptr ? &stats->polls : nullptr);
  if (stats != nullptr) stats->poll_end = run_sync_now(clock);
  if (!status.ok()) {
    // Best-effort cancel so a task we can no longer observe does not keep
    // consuming the resource (the caller will re-dispatch elsewhere).
    (void)task_stop(id);
    if (stats != nullptr) stats->result_end = stats->poll_end;
    return status.error();
  }
  auto result = task_result(id);
  if (stats != nullptr) stats->result_end = run_sync_now(clock);
  return result;
}

}  // namespace qcenv::qrmi

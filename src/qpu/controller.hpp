// Vendor-level QPU task queue (the "QPU scheduler" of §3.4).
//
// A single worker drains a FIFO queue into the device. This is what the
// middleware daemon's second-level scheduler sits on top of: the daemon
// reorders/prioritizes before submission; the controller guarantees safe
// serialized device access, cancellation and result retention.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "qpu/qpu_device.hpp"

namespace qcenv::qpu {

enum class TaskState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* to_string(TaskState state) noexcept;

struct TaskInfo {
  common::TaskId id;
  TaskState state = TaskState::kQueued;
  common::TimeNs submitted_ns = 0;
  common::TimeNs started_ns = 0;
  common::TimeNs finished_ns = 0;
  std::uint64_t shots = 0;
  std::string error;  // set when state == kFailed
};

class QpuController {
 public:
  /// `device` and `clock` must outlive the controller. The worker thread
  /// starts immediately and stops in the destructor.
  QpuController(QpuDevice* device, common::Clock* clock);
  ~QpuController();
  QpuController(const QpuController&) = delete;
  QpuController& operator=(const QpuController&) = delete;

  /// Enqueues a payload; returns its task id.
  common::TaskId submit(quantum::Payload payload);

  common::Result<TaskState> status(common::TaskId id) const;
  common::Result<TaskInfo> info(common::TaskId id) const;

  /// Result of a completed task; kFailedPrecondition while pending/running.
  common::Result<quantum::Samples> result(common::TaskId id) const;

  /// Blocks until the task reaches a terminal state and returns that state.
  common::Result<TaskState> wait_terminal(common::TaskId id);

  /// wait_terminal, then the task's samples (or the execution error).
  common::Result<quantum::Samples> wait(common::TaskId id);

  /// Cancels a queued task immediately or aborts a running one at the next
  /// shot-batch boundary.
  common::Status cancel(common::TaskId id);

  std::size_t queue_depth() const;
  std::vector<TaskInfo> list_tasks() const;

 private:
  struct Entry {
    TaskInfo info;
    quantum::Payload payload;
    std::optional<quantum::Samples> samples;
    std::optional<common::Error> error;
    std::atomic<bool> cancel_requested{false};
  };

  void worker_loop(const std::stop_token& stop);

  QpuDevice* device_;
  common::Clock* clock_;
  common::IdGenerator<common::TaskTag> ids_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Entry>> queue_;
  std::unordered_map<common::TaskId, std::shared_ptr<Entry>> tasks_;
  std::jthread worker_;
};

}  // namespace qcenv::qpu

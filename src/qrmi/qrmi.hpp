// QRMI — Quantum Resource Management Interface (after Sitdikov et al.,
// arXiv:2506.10052, the interface the paper builds its runtime on).
//
// A Qrmi instance represents one quantum resource. The lifecycle is:
//   acquire() -> token        exclusive or shared lease on the resource
//   task_start(payload)       submit; returns an opaque task id
//   task_status(id)           poll
//   task_wait(id)             block until terminal
//   task_result(id)           fetch samples once completed
//   task_stop(id)             cancel
//   release(token)
// task_wait's default polls task_status; resources that can signal
// completion override it (LocalEmulatorQrmi wakes on its worker's
// notification, DirectQpuQrmi on the vendor controller's), so a waiting
// caller resumes the moment the task ends. CloudQrmi keeps the default.
// A task whose result was fetched may be forgotten: LocalEmulatorQrmi
// then answers later status, wait and result calls with kNotFound.
// target() returns the current device specification (with live calibration)
// so programs can be validated at the point of execution.
//
// The paper's contribution we reproduce here: *local emulators are QRMI
// resources too* (LocalEmulatorQrmi), so development, HPC emulation and QPU
// execution share one interface and programs move between them without
// source changes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "quantum/device.hpp"
#include "quantum/payload.hpp"
#include "quantum/samples.hpp"

namespace qcenv::qrmi {

enum class ResourceType {
  kLocalEmulator,  // in-process emulator (developer laptop / HPC node)
  kDirectAccess,   // on-prem QPU behind the vendor controller
  kCloudQpu,       // QPU reached through a cloud API
  kCloudEmulator,  // managed emulator reached through a cloud API
};

const char* to_string(ResourceType type) noexcept;
common::Result<ResourceType> resource_type_from_string(const std::string& s);

enum class TaskStatus { kQueued, kRunning, kCompleted, kFailed, kCancelled };

const char* to_string(TaskStatus status) noexcept;

/// True for states in which the task will make no further progress.
constexpr bool is_terminal(TaskStatus status) noexcept {
  return status == TaskStatus::kCompleted || status == TaskStatus::kFailed ||
         status == TaskStatus::kCancelled;
}

class Qrmi {
 public:
  virtual ~Qrmi() = default;

  virtual std::string resource_id() const = 0;
  virtual ResourceType type() const = 0;

  /// Whether the resource is reachable and operational right now.
  virtual common::Result<bool> is_accessible() = 0;

  /// Leases the resource. Direct-access resources are exclusive; emulators
  /// and cloud resources grant freely.
  virtual common::Result<std::string> acquire() = 0;
  virtual common::Status release(const std::string& token) = 0;

  virtual common::Result<std::string> task_start(
      const quantum::Payload& payload) = 0;
  virtual common::Result<TaskStatus> task_status(
      const std::string& task_id) = 0;
  virtual common::Result<quantum::Samples> task_result(
      const std::string& task_id) = 0;
  virtual common::Status task_stop(const std::string& task_id) = 0;

  /// Blocks until the task is terminal and returns that status, or returns
  /// the first task_status error. The default polls task_status every
  /// `poll_interval`, pacing through `clock` when one is given (see
  /// run_sync); overrides ignore both, wake on completion and count as one
  /// check. `polls`, when non-null, is incremented once per status check.
  virtual common::Result<TaskStatus> task_wait(const std::string& task_id,
                                               common::DurationNs poll_interval,
                                               common::Clock* clock,
                                               std::uint64_t* polls);

  /// Current device specification (embedding the live calibration snapshot).
  virtual common::Result<quantum::DeviceSpec> target() = 0;

  /// Implementation-defined details (engine, endpoint, limits).
  virtual common::Json metadata() = 0;

  /// Timing breakdown of one run_sync() call, for tracing: the wait and
  /// result fetch become child spans of the dispatcher's qrmi_execute
  /// stage. Timestamps come from the caller's clock when one is provided
  /// (virtual-time deterministic), else from the wall clock.
  struct RunStats {
    common::TimeNs poll_start = 0;    // after task_start returned
    common::TimeNs poll_end = 0;      // task_wait returned
    common::TimeNs result_end = 0;    // after task_result returned
    std::uint64_t polls = 0;          // status checks task_wait made
  };

  /// Convenience: start, task_wait until terminal, and return the result.
  /// `poll_interval` paces the polling default of task_wait. When `clock`
  /// is provided the poll pacing goes through it instead of a raw
  /// std::this_thread sleep — identical under WallClock, and the seam
  /// that lets virtual-time harnesses drive dispatch with no real sleeps.
  /// `stats`, when non-null, receives the per-phase timing breakdown.
  common::Result<quantum::Samples> run_sync(
      const quantum::Payload& payload,
      common::DurationNs poll_interval = 20 * common::kMillisecond,
      common::Clock* clock = nullptr, RunStats* stats = nullptr);
};

using QrmiPtr = std::shared_ptr<Qrmi>;

}  // namespace qcenv::qrmi

// QRMI resource type "local-emulator": the paper's extension of QRMI to
// locally running emulators. Tasks execute on a worker thread so the
// interface behaves asynchronously like the other resource types; the
// worker signals completion, so task_wait and task_result block without
// polling. A task is forgotten once its result is fetched.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/clock.hpp"
#include "emulator/backend.hpp"
#include "qrmi/qrmi.hpp"

namespace qcenv::qrmi {

/// Injection hooks for the simulation harness (src/simtest) and fault
/// tests: per-task start failures (node brownouts between the broker's
/// health probes), virtual-time execution latency, and — strictly for
/// proving that invariant sweeps catch real bugs — result corruption.
/// All hooks are optional; unset hooks cost nothing on the task path.
struct EmulatorFaultHooks {
  /// Consulted at task_start; a returned error fails the start with that
  /// error (kUnavailable/kIo/kTimeout trigger the dispatcher's failover
  /// path, anything else its spec-rejection path).
  std::function<std::optional<common::Error>(const quantum::Payload&)>
      on_start;
  /// Virtual execution time for a task of `shots` shots. With a clock
  /// installed via set_fault_hooks the task reports kRunning until
  /// clock->now() passes start + latency, and task_wait sleeps on that
  /// clock until then — so batch durations (and the QPU time the
  /// accounting ledger charges) follow injected virtual time, never the
  /// host's scheduling noise.
  std::function<common::DurationNs(std::uint64_t shots)> latency;
  /// Applied to completed samples on fetch. Used ONLY to plant deliberate
  /// invariant violations (e.g. silently dropping shots) and prove the
  /// simtest sweep detects them.
  std::function<quantum::Samples(quantum::Samples)> corrupt_result;
  /// Applied to the DeviceSpec returned by target(). Drives calibration
  /// drift in simulation: the harness degrades calibration fields as a pure
  /// function of virtual time so drift alerts replay deterministically.
  std::function<void(quantum::DeviceSpec&)> mutate_spec;
};

class LocalEmulatorQrmi final
    : public Qrmi,
      public std::enable_shared_from_this<LocalEmulatorQrmi> {
 public:
  /// `backend_kind` as accepted by make_emulator_backend ("sv", "mps",
  /// "mps:<chi>", "mps-mock").
  static common::Result<std::shared_ptr<LocalEmulatorQrmi>> create(
      std::string resource_id, const std::string& backend_kind,
      emulator::RunOptions run_options = {});

  std::string resource_id() const override { return resource_id_; }
  ResourceType type() const override { return ResourceType::kLocalEmulator; }
  common::Result<bool> is_accessible() override { return !offline_.load(); }

  /// Ops/test hook: simulates the node hosting this emulator going down.
  /// While offline, is_accessible() reports false and task_start() fails
  /// with kUnavailable; tasks already running are allowed to finish.
  void set_offline(bool offline) { offline_.store(offline); }
  bool offline() const { return offline_.load(); }

  /// Installs (or, with an empty struct, clears) the fault hooks. `clock`
  /// is required for the latency hook (virtual completion gating) and may
  /// be null otherwise. Thread-safe; applies to tasks started afterwards.
  void set_fault_hooks(EmulatorFaultHooks hooks,
                       common::Clock* clock = nullptr);

  common::Result<std::string> acquire() override;
  common::Status release(const std::string& token) override;

  common::Result<std::string> task_start(
      const quantum::Payload& payload) override;
  common::Result<TaskStatus> task_status(const std::string& task_id) override;
  /// Blocks until the worker finishes the task, then (latency hook) sleeps
  /// on the fault clock until the virtual completion gate passes.
  common::Result<TaskStatus> task_wait(const std::string& task_id,
                                       common::DurationNs poll_interval,
                                       common::Clock* clock,
                                       std::uint64_t* polls) override;
  /// Waits for completion, returns the samples and forgets the task: later
  /// status, wait and result calls for its id return kNotFound.
  common::Result<quantum::Samples> task_result(
      const std::string& task_id) override;
  common::Status task_stop(const std::string& task_id) override;

  common::Result<quantum::DeviceSpec> target() override;
  common::Json metadata() override;

 private:
  LocalEmulatorQrmi(std::string resource_id, std::string backend_kind,
                    std::unique_ptr<emulator::Backend> backend,
                    emulator::RunOptions run_options);

  struct Task {
    TaskStatus status = TaskStatus::kQueued;
    std::optional<quantum::Samples> samples;
    std::optional<common::Error> error;
    /// Virtual completion gate (latency hook): while the injected clock
    /// reads earlier than this, a finished task still reports kRunning.
    common::TimeNs ready_at = 0;
  };

  /// True once `task`'s virtual completion gate has passed (always true
  /// without a latency clock). Caller must hold mutex_.
  bool ready_locked(const Task& task) const;

  /// Looks `task_id` up and blocks on done_ until its status is terminal.
  /// `lock` holds mutex_ on entry and on return.
  common::Result<std::shared_ptr<Task>> wait_terminal_locked(
      std::unique_lock<std::mutex>& lock, const std::string& task_id);

  std::string resource_id_;
  std::string backend_kind_;
  std::unique_ptr<emulator::Backend> backend_;
  emulator::RunOptions run_options_;
  std::atomic<std::uint64_t> next_task_{1};
  std::atomic<std::uint64_t> seed_counter_{1};
  std::atomic<bool> offline_{false};

  std::mutex mutex_;
  std::condition_variable done_;  // notified when a task turns terminal
  std::unordered_map<std::string, std::shared_ptr<Task>> tasks_;
  EmulatorFaultHooks fault_hooks_;
  common::Clock* fault_clock_ = nullptr;
};

}  // namespace qcenv::qrmi

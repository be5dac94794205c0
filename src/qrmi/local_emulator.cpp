#include "qrmi/local_emulator.hpp"

#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace qcenv::qrmi {

using common::Result;
using common::Status;
using quantum::Payload;
using quantum::Samples;

Result<std::shared_ptr<LocalEmulatorQrmi>> LocalEmulatorQrmi::create(
    std::string resource_id, const std::string& backend_kind,
    emulator::RunOptions run_options) {
  auto backend = emulator::make_emulator_backend(backend_kind);
  if (!backend.ok()) return backend.error();
  return std::shared_ptr<LocalEmulatorQrmi>(new LocalEmulatorQrmi(
      std::move(resource_id), backend_kind, std::move(backend).value(),
      run_options));
}

LocalEmulatorQrmi::LocalEmulatorQrmi(std::string resource_id,
                                     std::string backend_kind,
                                     std::unique_ptr<emulator::Backend> backend,
                                     emulator::RunOptions run_options)
    : resource_id_(std::move(resource_id)),
      backend_kind_(std::move(backend_kind)),
      backend_(std::move(backend)),
      run_options_(run_options) {}

Result<std::string> LocalEmulatorQrmi::acquire() {
  // Emulators grant unlimited shared leases.
  return std::string("emu-lease-") + common::random_token(8);
}

Status LocalEmulatorQrmi::release(const std::string&) {
  return Status::ok_status();
}

void LocalEmulatorQrmi::set_fault_hooks(EmulatorFaultHooks hooks,
                                        common::Clock* clock) {
  std::scoped_lock lock(mutex_);
  fault_hooks_ = std::move(hooks);
  fault_clock_ = clock;
}

bool LocalEmulatorQrmi::ready_locked(const Task& task) const {
  return fault_clock_ == nullptr || task.ready_at <= 0 ||
         fault_clock_->now() >= task.ready_at;
}

Result<std::string> LocalEmulatorQrmi::task_start(const Payload& payload) {
  if (offline_.load()) {
    return common::err::unavailable("resource '" + resource_id_ +
                                    "' is offline");
  }
  std::function<std::optional<common::Error>(const quantum::Payload&)>
      on_start;
  common::DurationNs latency = 0;
  {
    std::scoped_lock lock(mutex_);
    on_start = fault_hooks_.on_start;
    if (fault_hooks_.latency && fault_clock_ != nullptr) {
      latency = fault_hooks_.latency(payload.shots());
    }
  }
  if (on_start) {
    if (auto injected = on_start(payload); injected.has_value()) {
      return *injected;
    }
  }
  const std::string id =
      "local-" + std::to_string(next_task_.fetch_add(1));
  auto task = std::make_shared<Task>();
  task->status = TaskStatus::kRunning;
  {
    std::scoped_lock lock(mutex_);
    tasks_[id] = task;
    if (latency > 0 && fault_clock_ != nullptr) {
      task->ready_at = fault_clock_->now() + latency;
    }
  }
  emulator::RunOptions options = run_options_;
  // Each task gets a distinct seed so repeated runs differ like hardware,
  // while the resource-level seed keeps whole experiments reproducible.
  options.seed =
      run_options_.seed ^ (seed_counter_.fetch_add(1) * 0x9E3779B9ull);
  // The resource capture is weak on purpose: the pool is process-wide, so
  // a strong (or raw `this`) capture would let a queued job run against a
  // destroyed resource; locking `self` first keeps backend_ and mutex_
  // alive for the duration of the job.
  (void)common::default_pool().submit(
      [self = weak_from_this(), task, payload, options] {
        const auto resource = self.lock();
        if (!resource) return;  // resource torn down while the job was queued
        auto outcome = resource->backend_->run(payload, options);
        {
          std::scoped_lock lock(resource->mutex_);
          if (outcome.ok()) {
            task->samples = std::move(outcome).value();
            task->status = TaskStatus::kCompleted;
          } else {
            task->error = outcome.error();
            task->status = TaskStatus::kFailed;
          }
        }
        resource->done_.notify_all();
      });
  return id;
}

Result<TaskStatus> LocalEmulatorQrmi::task_status(const std::string& task_id) {
  std::scoped_lock lock(mutex_);
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task: " + task_id);
  }
  // A finished task behind its virtual completion gate is still "running"
  // from the caller's point of view: injected latency in virtual time.
  if (is_terminal(it->second->status) && !ready_locked(*it->second)) {
    return TaskStatus::kRunning;
  }
  return it->second->status;
}

Result<std::shared_ptr<LocalEmulatorQrmi::Task>>
LocalEmulatorQrmi::wait_terminal_locked(std::unique_lock<std::mutex>& lock,
                                        const std::string& task_id) {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task: " + task_id);
  }
  std::shared_ptr<Task> task = it->second;
  done_.wait(lock, [&] { return is_terminal(task->status); });
  return task;
}

Result<TaskStatus> LocalEmulatorQrmi::task_wait(const std::string& task_id,
                                                common::DurationNs,
                                                common::Clock*,
                                                std::uint64_t* polls) {
  if (polls != nullptr) ++*polls;
  std::unique_lock lock(mutex_);
  auto waited = wait_terminal_locked(lock, task_id);
  if (!waited.ok()) return waited.error();
  const Task& task = *waited.value();
  // The virtual completion gate: virtual time moves by the remaining
  // modelled latency only, through the same clock the gate reads.
  while (!ready_locked(task)) {
    common::Clock* gate = fault_clock_;
    const common::DurationNs remaining = task.ready_at - gate->now();
    lock.unlock();
    gate->sleep_for(remaining);
    lock.lock();
  }
  return task.status;
}

Result<Samples> LocalEmulatorQrmi::task_result(const std::string& task_id) {
  std::unique_lock lock(mutex_);
  auto waited = wait_terminal_locked(lock, task_id);
  if (!waited.ok()) return waited.error();
  // Fetching forgets the task. Only the caller whose erase removed it may
  // take the samples; a concurrent fetch of the same id finds it gone.
  if (tasks_.erase(task_id) == 0) {
    return common::err::not_found("unknown task: " + task_id);
  }
  Task& task = *waited.value();
  switch (task.status) {
    case TaskStatus::kCompleted:
      if (fault_hooks_.corrupt_result) {
        const auto corrupt = fault_hooks_.corrupt_result;
        lock.unlock();
        return corrupt(std::move(*task.samples));
      }
      return std::move(*task.samples);
    case TaskStatus::kFailed: return *task.error;
    case TaskStatus::kCancelled:
      return common::err::cancelled("task cancelled: " + task_id);
    default:
      return common::err::failed_precondition("task still running: " +
                                              task_id);
  }
}

Status LocalEmulatorQrmi::task_stop(const std::string& task_id) {
  // Emulator tasks are short; treat stop of a known task as best-effort.
  std::scoped_lock lock(mutex_);
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    return common::err::not_found("unknown task: " + task_id);
  }
  if (it->second->status == TaskStatus::kQueued) {
    it->second->status = TaskStatus::kCancelled;
    done_.notify_all();
  }
  return Status::ok_status();
}

Result<quantum::DeviceSpec> LocalEmulatorQrmi::target() {
  quantum::DeviceSpec spec = backend_->spec();
  std::scoped_lock lock(mutex_);
  if (fault_hooks_.mutate_spec) fault_hooks_.mutate_spec(spec);
  return spec;
}

common::Json LocalEmulatorQrmi::metadata() {
  common::Json meta = common::Json::object();
  meta["resource_id"] = resource_id_;
  meta["type"] = to_string(type());
  meta["engine"] = backend_kind_;
  meta["backend"] = backend_->name();
  return meta;
}

}  // namespace qcenv::qrmi

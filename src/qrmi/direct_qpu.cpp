#include "qrmi/direct_qpu.hpp"

#include <cstdlib>

#include "common/strings.hpp"

namespace qcenv::qrmi {

using common::Result;
using common::Status;
using common::TaskId;
using quantum::Samples;

DirectQpuQrmi::DirectQpuQrmi(std::string resource_id, qpu::QpuDevice* device,
                             qpu::QpuController* controller)
    : resource_id_(std::move(resource_id)),
      device_(device),
      controller_(controller) {}

Result<std::string> DirectQpuQrmi::acquire() {
  std::scoped_lock lock(mutex_);
  if (lease_.has_value()) {
    return common::err::resource_exhausted(
        "resource '" + resource_id_ + "' is exclusively leased");
  }
  lease_ = "qpu-lease-" + common::random_token(8);
  return *lease_;
}

Status DirectQpuQrmi::release(const std::string& token) {
  std::scoped_lock lock(mutex_);
  if (!lease_.has_value() || *lease_ != token) {
    return common::err::permission_denied("unknown lease token");
  }
  lease_.reset();
  return Status::ok_status();
}

Result<TaskId> DirectQpuQrmi::decode(const std::string& task_id) const {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(task_id.c_str(), &end, 10);
  if (end == task_id.c_str() || *end != '\0' || value == 0) {
    return common::err::invalid_argument("malformed task id: " + task_id);
  }
  return TaskId(value);
}

Result<std::string> DirectQpuQrmi::task_start(
    const quantum::Payload& payload) {
  const TaskId id = controller_->submit(payload);
  return id.to_string();
}

namespace {
Result<TaskStatus> from_state(const Result<qpu::TaskState>& state) {
  if (!state.ok()) return state.error();
  switch (state.value()) {
    case qpu::TaskState::kQueued: return TaskStatus::kQueued;
    case qpu::TaskState::kRunning: return TaskStatus::kRunning;
    case qpu::TaskState::kDone: return TaskStatus::kCompleted;
    case qpu::TaskState::kFailed: return TaskStatus::kFailed;
    case qpu::TaskState::kCancelled: return TaskStatus::kCancelled;
  }
  return common::err::internal("unreachable task state");
}
}  // namespace

Result<TaskStatus> DirectQpuQrmi::task_status(const std::string& task_id) {
  auto id = decode(task_id);
  if (!id.ok()) return id.error();
  return from_state(controller_->status(id.value()));
}

Result<TaskStatus> DirectQpuQrmi::task_wait(const std::string& task_id,
                                            common::DurationNs,
                                            common::Clock*,
                                            std::uint64_t* polls) {
  if (polls != nullptr) ++*polls;
  auto id = decode(task_id);
  if (!id.ok()) return id.error();
  return from_state(controller_->wait_terminal(id.value()));
}

Result<Samples> DirectQpuQrmi::task_result(const std::string& task_id) {
  auto id = decode(task_id);
  if (!id.ok()) return id.error();
  return controller_->result(id.value());
}

Status DirectQpuQrmi::task_stop(const std::string& task_id) {
  auto id = decode(task_id);
  if (!id.ok()) return id.error();
  return controller_->cancel(id.value());
}

Result<quantum::DeviceSpec> DirectQpuQrmi::target() { return device_->spec(); }

common::Json DirectQpuQrmi::metadata() {
  common::Json meta = common::Json::object();
  meta["resource_id"] = resource_id_;
  meta["type"] = to_string(type());
  meta["device"] = device_->options().spec.name;
  meta["shot_rate_hz"] = device_->options().spec.shot_rate_hz;
  meta["queue_depth"] = static_cast<long long>(controller_->queue_depth());
  return meta;
}

}  // namespace qcenv::qrmi

// QRMI resource type "direct-access": an on-prem QPU behind the vendor
// controller. Leases are exclusive — the middleware daemon holds the lease
// and multiplexes users on top (the paper's second scheduling layer).
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "qpu/controller.hpp"
#include "qrmi/qrmi.hpp"

namespace qcenv::qrmi {

class DirectQpuQrmi final : public Qrmi {
 public:
  /// `controller` and its device must outlive this resource.
  DirectQpuQrmi(std::string resource_id, qpu::QpuDevice* device,
                qpu::QpuController* controller);

  std::string resource_id() const override { return resource_id_; }
  ResourceType type() const override { return ResourceType::kDirectAccess; }
  common::Result<bool> is_accessible() override { return true; }

  common::Result<std::string> acquire() override;
  common::Status release(const std::string& token) override;

  common::Result<std::string> task_start(
      const quantum::Payload& payload) override;
  common::Result<TaskStatus> task_status(const std::string& task_id) override;
  /// Blocks on the controller until the task is terminal.
  common::Result<TaskStatus> task_wait(const std::string& task_id,
                                       common::DurationNs poll_interval,
                                       common::Clock* clock,
                                       std::uint64_t* polls) override;
  common::Result<quantum::Samples> task_result(
      const std::string& task_id) override;
  common::Status task_stop(const std::string& task_id) override;

  common::Result<quantum::DeviceSpec> target() override;
  common::Json metadata() override;

 private:
  common::Result<common::TaskId> decode(const std::string& task_id) const;

  std::string resource_id_;
  qpu::QpuDevice* device_;
  qpu::QpuController* controller_;

  std::mutex mutex_;
  std::optional<std::string> lease_;  // exclusive access token
};

}  // namespace qcenv::qrmi

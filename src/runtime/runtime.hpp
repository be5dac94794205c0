// HybridRuntime: the user-facing execution layer (§3.1).
//
// One API, three execution paths chosen purely by configuration — never by
// source changes (the Figure 1 goal):
//   * local:   `--qpu=<resource>` resolved against a ResourceRegistry
//              (laptop emulators, cloud endpoints),
//   * daemon:  jobs travel through the middleware daemon's REST API with a
//              user session (the HPC path),
// Configuration keys (read from env/Config per §3.4):
//   QCENV_QPU          resource name (same as --qpu=)
//   QRMI_DAEMON_PORT   middleware daemon endpoint (set by the SPANK plugin)
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/config.hpp"
#include "daemon/queue_core.hpp"
#include "net/http_client.hpp"
#include "qrmi/registry.hpp"
#include "runtime/portability.hpp"

namespace qcenv::runtime {

struct RuntimeOptions {
  std::string resource;  // --qpu=<resource>; empty = from config QCENV_QPU
  std::string user = "developer";
  daemon::JobClass job_class = daemon::JobClass::kDevelopment;
  /// Slurm partition name forwarded to the daemon ("the daemon retrieves
  /// the job's priority from Slurm").
  std::string partition;
  /// Status poll cadence of wait(): the daemon's job route, and local
  /// resources that keep Qrmi::task_wait's polling default.
  common::DurationNs poll_interval = 20 * common::kMillisecond;
};

/// Opaque handle to a submitted job.
struct JobHandle {
  std::string id;
};

class HybridRuntime {
 public:
  /// Local mode: execute directly on a registry resource.
  static common::Result<std::unique_ptr<HybridRuntime>> connect_local(
      const qrmi::ResourceRegistry* registry, RuntimeOptions options,
      const common::Config& config = {});

  /// Daemon mode: open a session against the middleware REST API.
  static common::Result<std::unique_ptr<HybridRuntime>> connect_daemon(
      std::uint16_t port, RuntimeOptions options);

  ~HybridRuntime();

  /// Current device specification (live calibration included).
  common::Result<quantum::DeviceSpec> device();

  /// Re-validates a program against the *current* device state.
  common::Result<ValidationReport> validate(const quantum::Payload& payload);

  common::Result<JobHandle> submit(const quantum::Payload& payload);
  common::Result<quantum::Samples> wait(const JobHandle& handle);
  common::Status cancel(const JobHandle& handle);

  /// submit + wait.
  common::Result<quantum::Samples> run(const quantum::Payload& payload);

  /// "local" or "daemon"; the resource/backend actually in use.
  std::string mode() const;
  std::string resource_name() const;

 private:
  struct LocalDriver {
    qrmi::QrmiPtr resource;
  };
  struct DaemonDriver {
    std::unique_ptr<net::HttpClient> client;
    std::string token;
  };

  HybridRuntime(RuntimeOptions options) : options_(std::move(options)) {}

  RuntimeOptions options_;
  std::optional<LocalDriver> local_;
  std::optional<DaemonDriver> daemon_;
};

/// Resolves the target resource name: explicit option > config QCENV_QPU >
/// config QRMI_RESOURCE_ID.
common::Result<std::string> resolve_resource_name(
    const RuntimeOptions& options, const common::Config& config);

}  // namespace qcenv::runtime

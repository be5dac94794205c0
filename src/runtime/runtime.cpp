#include "runtime/runtime.hpp"

#include <thread>

#include "common/strings.hpp"

#define QCENV_LOG_COMPONENT "runtime"
#include "common/logging.hpp"

namespace qcenv::runtime {

using common::Json;
using common::Result;
using common::Status;
using quantum::Payload;
using quantum::Samples;

Result<std::string> resolve_resource_name(const RuntimeOptions& options,
                                          const common::Config& config) {
  if (!options.resource.empty()) return options.resource;
  if (auto v = config.get("QCENV_QPU")) return *v;
  if (auto v = config.get("QRMI_RESOURCE_ID")) return *v;
  return common::err::invalid_argument(
      "no target resource: pass --qpu=<resource> or set QCENV_QPU");
}

Result<std::unique_ptr<HybridRuntime>> HybridRuntime::connect_local(
    const qrmi::ResourceRegistry* registry, RuntimeOptions options,
    const common::Config& config) {
  auto name = resolve_resource_name(options, config);
  if (!name.ok()) return name.error();
  auto resource = registry->lookup(name.value());
  if (!resource.ok()) return resource.error();
  options.resource = name.value();
  auto runtime =
      std::unique_ptr<HybridRuntime>(new HybridRuntime(std::move(options)));
  runtime->local_ = LocalDriver{std::move(resource).value()};
  return runtime;
}

Result<std::unique_ptr<HybridRuntime>> HybridRuntime::connect_daemon(
    std::uint16_t port, RuntimeOptions options) {
  auto client = std::make_unique<net::HttpClient>(port);
  Json body = Json::object();
  body["user"] = options.user;
  body["class"] = daemon::to_string(options.job_class);
  auto response = client->post("/v1/sessions", body.dump());
  if (!response.ok()) {
    return common::err::unavailable("cannot reach middleware daemon: " +
                                    response.error().message());
  }
  if (response.value().status != 201) {
    return common::err::permission_denied("session rejected: " +
                                          response.value().body);
  }
  auto parsed = Json::parse(response.value().body);
  if (!parsed.ok()) return parsed.error();
  auto token = parsed.value().get_string("token");
  if (!token.ok()) return token.error();

  auto runtime =
      std::unique_ptr<HybridRuntime>(new HybridRuntime(std::move(options)));
  DaemonDriver driver;
  driver.client = std::move(client);
  driver.token = token.value();
  driver.client->set_default_header("X-Session-Token", driver.token);
  runtime->daemon_ = std::move(driver);
  return runtime;
}

HybridRuntime::~HybridRuntime() {
  if (daemon_.has_value()) {
    (void)daemon_->client->del("/v1/sessions");  // best-effort close
  }
}

std::string HybridRuntime::mode() const {
  return local_.has_value() ? "local" : "daemon";
}

std::string HybridRuntime::resource_name() const {
  if (local_.has_value()) return local_->resource->resource_id();
  return "daemon:" + std::to_string(daemon_->client->port());
}

Result<quantum::DeviceSpec> HybridRuntime::device() {
  if (local_.has_value()) return local_->resource->target();
  auto response = daemon_->client->get("/v1/device");
  if (!response.ok()) return response.error();
  if (response.value().status != 200) {
    return common::err::unavailable("device query failed: " +
                                    response.value().body);
  }
  auto json = Json::parse(response.value().body);
  if (!json.ok()) return json.error();
  return quantum::DeviceSpec::from_json(json.value());
}

Result<ValidationReport> HybridRuntime::validate(const Payload& payload) {
  auto spec = device();
  if (!spec.ok()) return spec.error();
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  return validate_payload(payload, spec.value(), now);
}

Result<JobHandle> HybridRuntime::submit(const Payload& payload) {
  if (local_.has_value()) {
    auto task = local_->resource->task_start(payload);
    if (!task.ok()) return task.error();
    return JobHandle{task.value()};
  }
  Json body = Json::object();
  body["payload"] = payload.to_json();
  if (!options_.partition.empty()) body["partition"] = options_.partition;
  auto response = daemon_->client->post("/v1/jobs", body.dump());
  if (!response.ok()) return response.error();
  if (response.value().status != 201) {
    auto parsed = Json::parse(response.value().body);
    const std::string detail =
        parsed.ok() && parsed.value().contains("error")
            ? parsed.value().at_or_null("error").as_string()
            : response.value().body;
    if (response.value().status == 400 || response.value().status == 409) {
      return common::err::invalid_argument("job rejected: " + detail);
    }
    return common::err::unavailable("job submission failed: " + detail);
  }
  auto parsed = Json::parse(response.value().body);
  if (!parsed.ok()) return parsed.error();
  auto id = parsed.value().get_int("job_id");
  if (!id.ok()) return id.error();
  return JobHandle{std::to_string(id.value())};
}

Result<Samples> HybridRuntime::wait(const JobHandle& handle) {
  if (local_.has_value()) {
    auto status = local_->resource->task_wait(
        handle.id, options_.poll_interval, nullptr, nullptr);
    if (!status.ok()) return status.error();
    return local_->resource->task_result(handle.id);
  }
  while (true) {
    auto response = daemon_->client->get("/v1/jobs/" + handle.id);
    if (!response.ok()) return response.error();
    auto parsed = Json::parse(response.value().body);
    if (!parsed.ok()) return parsed.error();
    auto state = parsed.value().get_string("state");
    if (!state.ok()) return state.error();
    if (state.value() == "completed") break;
    if (state.value() == "failed") {
      return common::err::internal(
          "job failed: " +
          parsed.value().at_or_null("error").as_string());
    }
    if (state.value() == "cancelled") {
      return common::err::cancelled("job was cancelled");
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(options_.poll_interval));
  }
  auto response = daemon_->client->get("/v1/jobs/" + handle.id + "/result");
  if (!response.ok()) return response.error();
  if (response.value().status != 200) {
    return common::err::unavailable("result fetch failed: " +
                                    response.value().body);
  }
  auto parsed = Json::parse(response.value().body);
  if (!parsed.ok()) return parsed.error();
  return Samples::from_json(parsed.value());
}

Status HybridRuntime::cancel(const JobHandle& handle) {
  if (local_.has_value()) return local_->resource->task_stop(handle.id);
  auto response = daemon_->client->del("/v1/jobs/" + handle.id);
  if (!response.ok()) return response.error();
  if (response.value().status != 200) {
    return common::err::failed_precondition("cancel failed: " +
                                            response.value().body);
  }
  return Status::ok_status();
}

Result<Samples> HybridRuntime::run(const Payload& payload) {
  auto handle = submit(payload);
  if (!handle.ok()) return handle.error();
  return wait(handle.value());
}

}  // namespace qcenv::runtime

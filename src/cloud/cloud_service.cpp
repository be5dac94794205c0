#include "cloud/cloud_service.hpp"

#include <thread>

#include "common/strings.hpp"

namespace qcenv::cloud {

using common::Json;
using common::Result;
using net::HttpRequest;
using net::HttpResponse;
using net::PathParams;

namespace {
HttpResponse error_response(int status, const common::Error& error) {
  Json body = Json::object();
  body["error"] = error.message();
  body["code"] = common::to_string(error.code());
  return HttpResponse::json(status, body.dump());
}

int http_status_for(common::ErrorCode code) {
  switch (code) {
    case common::ErrorCode::kNotFound: return 404;
    case common::ErrorCode::kInvalidArgument: return 400;
    case common::ErrorCode::kProtocol: return 400;
    case common::ErrorCode::kPermissionDenied: return 403;
    case common::ErrorCode::kFailedPrecondition: return 409;
    case common::ErrorCode::kResourceExhausted: return 429;
    case common::ErrorCode::kCancelled: return 410;
    default: return 500;
  }
}
}  // namespace

CloudService::CloudService(qrmi::QrmiPtr resource, CloudServiceOptions options)
    : resource_(std::move(resource)),
      options_(std::move(options)),
      server_(net::HttpServerOptions{options_.port, 4,
                                     10 * common::kSecond}),
      rng_(options_.seed) {
  install_routes();
}

CloudService::~CloudService() { stop(); }

Result<std::uint16_t> CloudService::start() { return server_.start(); }

void CloudService::stop() { server_.stop(); }

void CloudService::install_routes() {
  // Middleware: WAN latency on every call plus bearer-token auth.
  server_.set_middleware(
      [this](const HttpRequest& request) -> std::optional<HttpResponse> {
        common::DurationNs delay;
        {
          std::scoped_lock lock(rng_mutex_);
          delay = options_.latency.sample(rng_);
        }
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
        if (request.path() == "/api/v1/health") return std::nullopt;
        const auto auth = request.headers.find("Authorization");
        if (auth == request.headers.end() ||
            auth->second != "Bearer " + options_.api_key) {
          return HttpResponse::json(401, R"({"error":"unauthorized"})");
        }
        return std::nullopt;
      });

  server_.router().add(
      "GET", "/api/v1/health",
      [](const HttpRequest&, const PathParams&) {
        return HttpResponse::json(200, R"({"status":"ok"})");
      });

  server_.router().add(
      "GET", "/api/v1/device",
      [this](const HttpRequest&, const PathParams&) {
        auto spec = resource_->target();
        if (!spec.ok()) return error_response(503, spec.error());
        return HttpResponse::json(200, spec.value().to_json().dump());
      });

  server_.router().add(
      "POST", "/api/v1/jobs",
      [this](const HttpRequest& request, const PathParams&) {
        auto payload = quantum::Payload::deserialize(request.body);
        if (!payload.ok()) return error_response(400, payload.error());
        auto task = resource_->task_start(payload.value());
        if (!task.ok()) {
          return error_response(http_status_for(task.error().code()),
                                task.error());
        }
        Json body = Json::object();
        body["id"] = task.value();
        return HttpResponse::json(201, body.dump());
      });

  server_.router().add(
      "GET", "/api/v1/jobs/:id",
      [this](const HttpRequest&, const PathParams& params) {
        auto status = resource_->task_status(params.at("id"));
        if (!status.ok()) {
          return error_response(http_status_for(status.error().code()),
                                status.error());
        }
        Json body = Json::object();
        body["id"] = params.at("id");
        body["status"] = to_string(status.value());
        return HttpResponse::json(200, body.dump());
      });

  // Inherits the backend's fetch semantics: a LocalEmulatorQrmi forgets a
  // task once its result is fetched, so a repeated GET here is a 404.
  server_.router().add(
      "GET", "/api/v1/jobs/:id/result",
      [this](const HttpRequest&, const PathParams& params) {
        auto samples = resource_->task_result(params.at("id"));
        if (!samples.ok()) {
          return error_response(http_status_for(samples.error().code()),
                                samples.error());
        }
        return HttpResponse::json(200, samples.value().to_json().dump());
      });

  server_.router().add(
      "DELETE", "/api/v1/jobs/:id",
      [this](const HttpRequest&, const PathParams& params) {
        auto status = resource_->task_stop(params.at("id"));
        if (!status.ok()) {
          return error_response(http_status_for(status.error().code()),
                                status.error());
        }
        return HttpResponse::json(200, R"({"cancelled":true})");
      });
}

}  // namespace qcenv::cloud

#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "quantum/samples.hpp"

namespace qcenv::bench_e2e {

using common::Json;

namespace {

constexpr std::size_t kTenants = 64;
constexpr std::size_t kHybridSessions = 4;
/// Modelled QPU execution time per shot on qpu_fleet and ops_mix.
constexpr DurationNs kLatencyPerShot = 50 * common::kMicrosecond;

struct FleetShape {
  std::size_t qpus = 1;
  DurationNs latency_per_shot = 0;
};

FleetShape fleet_of(Workload workload) {
  switch (workload) {
    case Workload::kQpuFleet: return {2, kLatencyPerShot};
    case Workload::kOpsMix: return {1, kLatencyPerShot};
    default: return {1, 0};
  }
}

std::string tenant_name(std::size_t i) {
  return (i < 10 ? "tenant-0" : "tenant-") + std::to_string(i);
}

}  // namespace

void sleep_until(TimeNs deadline) {
  const TimeNs wait = deadline - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kHybridLoop: return "hybrid_loop";
    case Workload::kSweepBacklog: return "sweep_backlog";
    case Workload::kQpuFleet: return "qpu_fleet";
    case Workload::kOpsMix: return "ops_mix";
  }
  return "?";
}

std::optional<Workload> workload_from_string(const std::string& name) {
  for (const Workload workload : kAllWorkloads) {
    if (name == to_string(workload)) return workload;
  }
  return std::nullopt;
}

const char* to_string(ReadKind kind) {
  switch (kind) {
    case ReadKind::kDevice: return "device";
    case ReadKind::kStatus: return "status";
    case ReadKind::kResult: return "result";
    case ReadKind::kQueue: return "queue";
    case ReadKind::kMetrics: return "metrics";
    case ReadKind::kEta: return "eta";
    case ReadKind::kAdminStatus: return "admin_status";
  }
  return "?";
}

void ThreadLog::fail(const std::string& what) {
  ++failed;
  if (first_error.empty()) first_error = what;
}

std::unique_ptr<Env> make_env(Workload workload, bool traced,
                              double* setup_seconds, std::string* error) {
  auto env = std::make_unique<Env>();
  if (env->dir.path().empty()) {
    *error = "cannot create a data dir under the temp directory";
    return nullptr;
  }
  const FleetShape fleet = fleet_of(workload);
  qrmi::ResourceRegistry registry;
  for (std::size_t i = 0; i < fleet.qpus; ++i) {
    const std::string name =
        fleet.qpus == 1 ? "qpu" : "qpu-" + std::string(1, char('a' + i));
    auto emulator = qrmi::LocalEmulatorQrmi::create(name, "sv");
    if (!emulator.ok()) {
      *error = emulator.error().to_string();
      return nullptr;
    }
    if (fleet.latency_per_shot > 0) {
      qrmi::EmulatorFaultHooks hooks;
      hooks.latency = [per_shot = fleet.latency_per_shot](
                          std::uint64_t shots) {
        return per_shot * static_cast<DurationNs>(shots);
      };
      emulator.value()->set_fault_hooks(std::move(hooks), &env->clock);
    }
    env->emulators.push_back(emulator.value());
    qrmi::QrmiPtr member = emulator.value();
    if (traced) {
      env->timed.push_back(std::make_shared<TimedQrmi>(
          member, &env->clock, fleet.latency_per_shot));
      member = env->timed.back();
    }
    registry.add(name, member);
  }

  daemon::DaemonOptions options;
  options.store.data_dir = env->dir.path();
  const TimeNs start = now_ns();
  env->daemon = std::make_unique<daemon::MiddlewareDaemon>(
      options, registry, nullptr, &env->clock);
  if (env->daemon->state_store() == nullptr) {
    *error = "the durable store did not open (the daemon fell back to memory)";
    return nullptr;
  }
  auto port = env->daemon->start();
  if (!port.ok()) {
    *error = "daemon start: " + port.error().to_string();
    return nullptr;
  }
  env->port = port.value();

  // Every workload logs in the same 64 tenants, so set-up is the same work
  // everywhere; hybrid_loop's four loop sessions are four of them, opened
  // through HybridRuntime (which keeps their tokens to itself).
  net::HttpClient client(env->port);
  for (std::size_t i = 0; i < kTenants; ++i) {
    if (workload == Workload::kHybridLoop && i < kHybridSessions) {
      runtime::RuntimeOptions runtime_options;
      runtime_options.user = tenant_name(i);
      runtime_options.poll_interval = common::kMillisecond;
      auto runtime =
          runtime::HybridRuntime::connect_daemon(env->port, runtime_options);
      if (!runtime.ok()) {
        *error = "session open: " + runtime.error().to_string();
        return nullptr;
      }
      env->runtimes.push_back(std::move(runtime).value());
      env->tenants.push_back({tenant_name(i), ""});
      continue;
    }
    Json body = Json::object();
    body["user"] = tenant_name(i);
    body["class"] = "dev";
    auto response = client.post("/v1/sessions", body.dump());
    if (!response.ok() || response.value().status != 201) {
      *error = "session open failed for " + tenant_name(i);
      return nullptr;
    }
    auto parsed = Json::parse(response.value().body);
    auto token = parsed.ok() ? parsed.value().get_string("token")
                             : common::Result<std::string>(parsed.error());
    if (!token.ok()) {
      *error = "session open: " + token.error().to_string();
      return nullptr;
    }
    env->tenants.push_back({tenant_name(i), token.value()});
  }
  *setup_seconds = static_cast<double>(now_ns() - start) / 1e9;
  return env;
}

void LoadContext::after_submit(std::uint64_t job_id) {
  if (!config_.traced) return;
  if ((submissions_.fetch_add(1) + 1) % 250 != 0) return;
  daemon::MiddlewareDaemon& daemon = *env_.daemon;
  ProbeSample probe;
  probe.depth = daemon.dispatcher().queued_total();
  const TimeNs t0 = now_ns();
  (void)daemon.dispatcher().pending_snapshot();
  const TimeNs t1 = now_ns();
  (void)daemon.eta().estimate(job_id);
  const TimeNs t2 = now_ns();
  probe.snapshot_ms = to_ms(t1 - t0);
  probe.eta_ms = to_ms(t2 - t1);
  std::scoped_lock lock(probe_mutex_);
  probes_.push_back(probe);
}

void LoadContext::attach_trace(JobSample& job, ThreadLog& log) {
  if (!config_.traced) return;
  auto trace = env_.daemon->dispatcher().trace(job.job_id);
  if (!trace.ok()) {
    log.fail("trace of job " + std::to_string(job.job_id) + ": " +
             trace.error().to_string());
    return;
  }
  job.trace = std::move(trace).value();
}

std::vector<ProbeSample> LoadContext::take_probes() {
  std::scoped_lock lock(probe_mutex_);
  return std::move(probes_);
}

net::HttpRequest make_request(const std::string& method,
                              const std::string& target,
                              const std::string& token) {
  net::HttpRequest request;
  request.method = method;
  request.target = target;
  if (!token.empty()) request.headers["X-Session-Token"] = token;
  return request;
}

std::optional<net::HttpResponse> send_request(net::HttpClient& client,
                                              net::HttpRequest request,
                                              int expected_status,
                                              ThreadLog& log) {
  ++log.attempted;
  const std::string what = request.method + " " + request.target;
  auto response = client.send(std::move(request));
  if (!response.ok()) {
    log.fail(what + ": " + response.error().to_string());
    return std::nullopt;
  }
  if (response.value().status != expected_status) {
    log.fail(what + " -> " + std::to_string(response.value().status) + " " +
             response.value().body.substr(0, 200));
    return std::nullopt;
  }
  return std::move(response).value();
}

std::optional<Json> request_json(net::HttpClient& client,
                                 net::HttpRequest request,
                                 int expected_status, ThreadLog& log) {
  const std::string what = request.method + " " + request.target;
  auto response =
      send_request(client, std::move(request), expected_status, log);
  if (!response.has_value()) return std::nullopt;
  auto parsed = Json::parse(response->body);
  if (!parsed.ok()) {
    log.fail(what + ": unparsable body: " + parsed.error().to_string());
    return std::nullopt;
  }
  return std::move(parsed).value();
}

bool submit_job(LoadContext& ctx, net::HttpClient& client,
                const Tenant& tenant, const std::string& body, JobSample& job,
                ThreadLog& log) {
  net::HttpRequest request = make_request("POST", "/v1/jobs", tenant.token);
  request.headers["Content-Type"] = "application/json";
  request.body = body;
  job.send = now_ns();
  auto created = request_json(client, std::move(request), 201, log);
  job.acked = now_ns();
  if (!created.has_value()) return false;
  auto id = created->get_int("job_id");
  if (!id.ok() || id.value() <= 0) {
    log.fail("201 without a job_id");
    return false;
  }
  job.job_id = static_cast<std::uint64_t>(id.value());
  const Json& trace_id = created->at_or_null("trace_id");
  job.trace_id =
      trace_id.is_number() ? static_cast<std::uint64_t>(trace_id.as_int()) : 0;
  log.admitted.push_back(job.job_id);
  ctx.after_submit(job.job_id);
  return true;
}

std::optional<std::string> job_state(net::HttpClient& client,
                                     const Tenant& tenant, std::uint64_t id,
                                     ThreadLog& log) {
  auto job = request_json(
      client, make_request("GET", "/v1/jobs/" + std::to_string(id),
                           tenant.token),
      200, log);
  if (!job.has_value()) return std::nullopt;
  auto state = job->get_string("state");
  if (!state.ok()) {
    log.fail("job " + std::to_string(id) + " status without a state");
    return std::nullopt;
  }
  if (state.value() == "failed" || state.value() == "cancelled") {
    log.fail("job " + std::to_string(id) + " ended " + state.value());
    return std::nullopt;
  }
  return state.value();
}

bool fetch_result(net::HttpClient& client, const Tenant& tenant,
                  std::uint64_t id, std::uint64_t shots, ThreadLog& log) {
  auto body = request_json(
      client,
      make_request("GET", "/v1/jobs/" + std::to_string(id) + "/result",
                   tenant.token),
      200, log);
  if (!body.has_value()) return false;
  auto samples = quantum::Samples::from_json(*body);
  if (!samples.ok() || samples.value().total_shots() != shots) {
    log.fail("job " + std::to_string(id) + " returned " +
             (samples.ok() ? std::to_string(samples.value().total_shots())
                           : samples.error().to_string()) +
             " shots, requested " + std::to_string(shots));
    return false;
  }
  return true;
}

std::optional<std::string> partition_job(const JobSample& job,
                                         Partition& out) {
  if (!job.trace.has_value()) return "no daemon trace";
  const telemetry::JobTrace& trace = *job.trace;
  if (const std::string bad = telemetry::trace_nesting_error(trace);
      !bad.empty()) {
    return "malformed daemon trace: " + bad;
  }
  if (trace.dropped_spans != 0) return "daemon trace dropped spans";
  if (job.trace_id != 0 && trace.trace_id != job.trace_id) {
    return "daemon trace id differs from the 201's";
  }
  if (trace.start < job.send || trace.finish > job.done) {
    return "daemon timeline lies outside the client's request span";
  }
  const auto clip = [](const telemetry::TraceSpan& span, TimeNs from,
                       TimeNs to) {
    return std::max<DurationNs>(
        0, std::min(span.end, to) - std::max(span.start, from));
  };
  out = Partition{};
  out.pre_submit = job.send - job.due;
  DurationNs covered = 0;
  for (const telemetry::TraceSpan& span : trace.spans) {
    if (span.depth != 0) continue;
    const DurationNs whole = span.end - span.start;
    const DurationNs before_ack = clip(span, job.send, job.acked);
    const DurationNs after_ack = clip(span, job.acked, job.done);
    covered += before_ack + after_ack;
    if (span.stage == "admission" || span.stage == "journal_append") {
      if (after_ack > common::kMicrosecond) {
        return span.stage + " continues after the 201";
      }
      const bool admission = span.stage == "admission";
      (admission ? out.admission : out.journal_append) += before_ack;
      (admission ? out.span_admission : out.span_journal_append) += whole;
    } else if (span.stage == "queue_wait") {
      out.queue_wait += after_ack;
      out.span_queue_wait += whole;
    } else if (span.stage == "shard_dispatch") {
      out.shard_dispatch += after_ack;
      out.span_shard_dispatch += whole;
    } else if (span.stage == "qrmi_execute") {
      out.qrmi_execute += after_ack;
      out.span_qrmi_execute += whole;
    } else {
      return "unexpected daemon stage '" + span.stage + "'";
    }
  }
  out.rest_residual = (job.acked - job.send) - out.admission -
                      out.journal_append;
  out.completion_detect = (job.done - job.acked) - out.queue_wait -
                          out.shard_dispatch - out.qrmi_execute;
  const DurationNs parts = out.pre_submit + out.admission +
                           out.journal_append + out.rest_residual +
                           out.queue_wait + out.shard_dispatch +
                           out.qrmi_execute + out.completion_detect;
  constexpr DurationNs kTolerance = common::kMicrosecond;
  if (std::llabs(covered - (trace.finish - trace.start)) > kTolerance) {
    return "daemon spans do not cover the trace interval";
  }
  if (out.rest_residual < -kTolerance || out.completion_detect < -kTolerance) {
    return "daemon stages exceed the client's request span";
  }
  if (std::llabs(parts - (job.done - job.due)) > kTolerance) {
    return "parts do not add up to the turnaround";
  }
  return std::nullopt;
}

}  // namespace qcenv::bench_e2e

#include "daemon/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "common/strings.hpp"

#define QCENV_LOG_COMPONENT "daemon"
#include "common/logging.hpp"

namespace qcenv::daemon {

using common::Json;
using common::Result;
using net::HttpRequest;
using net::HttpResponse;
using net::PathParams;

namespace {

int http_status_for(common::ErrorCode code) {
  switch (code) {
    case common::ErrorCode::kNotFound: return 404;
    case common::ErrorCode::kInvalidArgument: return 400;
    case common::ErrorCode::kProtocol: return 400;
    case common::ErrorCode::kPermissionDenied: return 401;
    case common::ErrorCode::kFailedPrecondition: return 409;
    case common::ErrorCode::kResourceExhausted: return 429;
    case common::ErrorCode::kCancelled: return 410;
    case common::ErrorCode::kUnavailable: return 503;
    default: return 500;
  }
}

HttpResponse error_response(const common::Error& error) {
  Json body = Json::object();
  body["error"] = error.message();
  body["code"] = common::to_string(error.code());
  return HttpResponse::json(http_status_for(error.code()), body.dump());
}

/// Error response that names the trace which recorded the rejection, so a
/// 429/500/503 can be correlated with `/metrics` and the event log.
HttpResponse error_response(const common::Error& error,
                            telemetry::TraceId trace_id) {
  if (trace_id == 0) return error_response(error);
  Json body = Json::object();
  body["error"] = error.message();
  body["code"] = common::to_string(error.code());
  body["trace_id"] = static_cast<long long>(trace_id);
  return HttpResponse::json(http_status_for(error.code()), body.dump());
}

Json job_to_json(const DaemonJob& job) {
  Json out = Json::object();
  out["id"] = static_cast<long long>(job.id);
  out["user"] = job.user;
  out["class"] = to_string(job.job_class);
  out["state"] = to_string(job.state);
  out["total_shots"] = static_cast<long long>(job.total_shots);
  out["shots_done"] = static_cast<long long>(job.shots_done);
  out["submit_time_ns"] = job.submit_time;
  out["first_dispatch_time_ns"] = job.first_dispatch_time;
  out["finish_time_ns"] = job.finish_time;
  out["resource"] = job.resource;
  if (!job.error.empty()) out["error"] = job.error;
  return out;
}

/// Strict non-negative decimal parse of a numeric query parameter. The
/// whole value must be digits: `since=abc` must 400 naming the parameter
/// rather than silently become 0, and `since=-1` must 400 rather than
/// wrap to 2^64-1.
Result<std::uint64_t> parse_numeric_param(const std::string& raw,
                                          const char* name) {
  if (raw.empty() ||
      raw.find_first_not_of("0123456789") != std::string::npos) {
    return common::err::invalid_argument(
        std::string(name) + " must be a non-negative integer, got '" + raw +
        "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (errno == ERANGE || end != raw.c_str() + raw.size()) {
    return common::err::invalid_argument(std::string(name) +
                                         " is out of range");
  }
  return static_cast<std::uint64_t>(value);
}

/// Same, for parameters consumed as signed nanosecond timestamps/windows
/// (start=/end=/window=): non-negative and within int64 range.
Result<common::TimeNs> parse_time_param(const std::string& raw,
                                        const char* name) {
  auto value = parse_numeric_param(raw, name);
  if (!value.ok()) return value.error();
  if (value.value() >
      static_cast<std::uint64_t>(
          std::numeric_limits<common::TimeNs>::max())) {
    return common::err::invalid_argument(std::string(name) +
                                         " is out of range");
  }
  return static_cast<common::TimeNs>(value.value());
}

qrmi::ResourceRegistry single_resource_fleet(const qrmi::QrmiPtr& resource) {
  qrmi::ResourceRegistry fleet;
  fleet.add(resource->resource_id(), resource);
  return fleet;
}

store::SessionRecord to_session_record(const Session& session) {
  store::SessionRecord record;
  record.id = session.id.value;
  record.user = session.user;
  record.token = session.token;
  record.job_class = session.job_class;
  record.created = session.created;
  record.last_active = session.last_active;
  return record;
}

Session from_session_record(const store::SessionRecord& record) {
  Session session;
  session.id = common::SessionId{record.id};
  session.user = record.user;
  session.token = record.token;
  session.job_class = record.job_class;
  session.created = record.created;
  session.last_active = record.last_active;
  return session;
}

}  // namespace

MiddlewareDaemon::MiddlewareDaemon(DaemonOptions options,
                                   const qrmi::ResourceRegistry& fleet,
                                   qpu::QpuDevice* device,
                                   common::Clock* clock)
    : options_(std::move(options)),
      device_(device),
      clock_(clock),
      traces_(options_.telemetry.tracing
                  ? std::make_unique<telemetry::TraceStore>(
                        options_.telemetry.trace_capacity,
                        options_.telemetry.trace_shards)
                  : nullptr),
      events_(options_.telemetry.event_capacity),
      profiler_(options_.telemetry.profile_capacity),
      sessions_(options_.sessions, clock),
      admission_(options_.admission),
      accounting_(options_.accounting, clock, &metrics_),
      broker_(std::make_shared<broker::ResourceBroker>(options_.broker,
                                                       clock, &metrics_)),
      server_(net::HttpServerOptions{options_.port, 4,
                                     10 * common::kSecond}) {
  // Availability transitions must be logged before the first resource can
  // transition — the ETA engine replays them for drain/outage overlap.
  broker_->set_event_log(&events_);
  auto seeded = broker_->add_all(fleet);
  if (!seeded.ok()) {
    QCENV_LOG(Error) << "fleet seeding failed: " << seeded.to_string();
  }
  const auto names = broker_->names();
  if (!names.empty()) {
    primary_ = broker_->resource(names.front()).value();
  }
  // Recover durable state BEFORE the dispatcher exists, so restored jobs
  // are queued before any lane or client can race them.
  std::uint64_t next_job_id = 1;
  std::vector<store::JobRecord> recovered_jobs;
  if (options_.store.enabled()) {
    recovered_jobs = open_store(next_job_id);
  }
  dispatcher_ = std::make_unique<Dispatcher>(broker_, options_.queue_policy,
                                             clock, &metrics_, store_.get(),
                                             &accounting_, traces_.get(),
                                             &events_);
  dispatcher_->set_terminal_retention(options_.store.terminal_job_retention,
                                      options_.store.terminal_job_cap);
  dispatcher_->set_slow_job_threshold(options_.telemetry.slow_job_threshold);
  // Before any job can finish: lanes fold terminal traces into the
  // critical-path profiler from finish_locked, and a restored job can
  // finish as soon as restore() queues it.
  dispatcher_->set_profiler(&profiler_);
  if (store_ != nullptr) {
    dispatcher_->restore(recovered_jobs, next_job_id);
    store_->set_snapshot_provider([this] { return build_snapshot(); });
  }
  if (options_.telemetry.observability.enabled) {
    ObservabilityOptions obs = options_.telemetry.observability;
    if (obs.dump_path.empty() && options_.store.enabled()) {
      obs.dump_path = options_.store.data_dir + "/flight.json";
    }
    observability_ = std::make_unique<ObservabilityPipeline>(
        obs, &metrics_, &events_, clock_);
    observability_->attach(dispatcher_.get(), broker_.get());
    dispatcher_->set_latency_slo(obs.latency_slo);
    dispatcher_->set_lane_heartbeat([this](const std::string& lane) {
      observability_->recorder().heartbeat(lane);
    });
    if (store_ != nullptr) {
      store_->set_writer_heartbeat([this] {
        observability_->recorder().heartbeat("journal_writer");
      });
      // Journal disk death: capture the black box while the failure is
      // fresh. The hook runs once, after the journal_fail_stop event is
      // logged, so the dump's event tail names the failure itself.
      store_->set_fail_stop_hook([this](const std::string& error) {
        auto dumped =
            observability_->recorder().dump("journal_fail_stop: " + error);
        if (dumped.ok()) {
          QCENV_LOG(Warn) << "flight recorder dumped to "
                          << dumped.value();
        } else {
          QCENV_LOG(Error) << "flight dump failed: "
                           << dumped.error().to_string();
        }
      });
    }
    observability_->start();
  }
  EtaEngine::Deps eta_deps;
  eta_deps.dispatcher = dispatcher_.get();
  eta_deps.broker = broker_.get();
  eta_deps.accounting = &accounting_;
  eta_deps.tsdb =
      observability_ != nullptr ? &observability_->tsdb() : nullptr;
  eta_deps.events = &events_;
  eta_deps.clock = clock_;
  eta_deps.policy = options_.queue_policy;
  eta_ = std::make_unique<EtaEngine>(eta_deps, options_.telemetry.eta);
  if (options_.federation.enabled) {
    federation_ = std::make_unique<federation::FederationRouter>(
        options_.federation,
        [this] {
          federation::FederationRouter::LocalStatus status;
          status.queue_depth = dispatcher_->queued_total();
          const auto fleet = broker_->summarize();
          status.healthy_resources = fleet.healthy;
          status.mean_score = fleet.mean_score;
          return status;
        },
        clock_, &metrics_, &events_);
    if (options_.store.enabled()) {
      // The durable fencing epoch lives next to the journal: a daemon
      // restarted after being promoted resumes AT its promoted epoch,
      // not at 0 (where the old leader's WAL could out-fence it again).
      federation_->set_data_dir(options_.store.data_dir);
      auto epoch = federation::read_epoch(options_.store.data_dir);
      if (epoch.ok()) {
        federation_->set_epoch(epoch.value());
      } else {
        QCENV_LOG(Error) << "unreadable federation epoch file: "
                         << epoch.error().to_string();
      }
    }
  }
  install_routes();
}

std::vector<store::JobRecord> MiddlewareDaemon::open_store(
    std::uint64_t& next_job_id) {
  store_ = std::make_unique<store::StateStore>(options_.store, clock_,
                                               &metrics_);
  // Before open(): the group-commit writer thread starts there, and its
  // fail-stop / fsync-stall events must have somewhere to go from the
  // first batch.
  store_->set_event_log(&events_);
  auto recovered = store_->open();
  if (!recovered.ok()) {
    // Refusing to start would take the whole access node down with the
    // store; running in-memory keeps users working and screams in the log.
    // Quarantine the data-dir so a LATER restart cannot replay state that
    // went stale during the in-memory period (resurrecting closed
    // sessions' tokens and re-running old jobs).
    QCENV_LOG(Error) << "store unusable, continuing WITHOUT durability: "
                     << recovered.error().to_string();
    store_.reset();
    const std::string quarantine = options_.store.data_dir + ".unusable-" +
                                   std::to_string(clock_->now());
    std::error_code ec;
    std::filesystem::rename(options_.store.data_dir, quarantine, ec);
    if (ec) {
      QCENV_LOG(Error) << "could not quarantine '"
                       << options_.store.data_dir << "': " << ec.message();
    } else {
      QCENV_LOG(Warn) << "quarantined unusable store data-dir to '"
                      << quarantine << "'";
    }
    return {};
  }
  for (const auto& session : recovered.value().sessions) {
    sessions_.restore(from_session_record(session));
  }
  // Rebuild the usage ledger: snapshot records first, then the journal's
  // newer batch/completion charges on top — decayed usage survives the
  // restart exactly, so post-recovery fair-share ordering matches a run
  // that never crashed.
  accounting_.restore(recovered.value().usage,
                      recovered.value().usage_deltas);
  next_job_id = recovered.value().next_job_id;
  return std::move(recovered).value().jobs;
}

store::StoreSnapshot MiddlewareDaemon::build_snapshot() {
  // Job state carries its own exact watermark (read under the dispatcher
  // lock). For sessions, read the watermark BEFORE listing: any session
  // event at or below it committed its mutation first, so the list below
  // reflects it; later events replay idempotently on top.
  store::StoreSnapshot snapshot = dispatcher_->durable_snapshot();
  snapshot.sessions_seq = store_->journal().last_seq();
  for (const auto& session : sessions_.list()) {
    snapshot.sessions.push_back(to_session_record(session));
  }
  return snapshot;
}

std::size_t MiddlewareDaemon::session_removed(const Session& session) {
  const std::size_t cancelled =
      dispatcher_->cancel_for_session(session.id);
  if (store_ != nullptr) store_->session_closed(session.token);
  if (cancelled > 0) {
    QCENV_LOG(Info) << "session " << session.id.to_string() << " of '"
                    << session.user << "' closed; cancelled " << cancelled
                    << " orphaned job(s)";
  }
  return cancelled;
}

MiddlewareDaemon::MiddlewareDaemon(DaemonOptions options,
                                   qrmi::QrmiPtr resource,
                                   qpu::QpuDevice* device,
                                   common::Clock* clock)
    : MiddlewareDaemon(std::move(options), single_resource_fleet(resource),
                       device, clock) {}

MiddlewareDaemon::~MiddlewareDaemon() { stop(); }

Result<std::uint16_t> MiddlewareDaemon::start() {
  auto port = server_.start();
  if (port.ok()) {
    QCENV_LOG(Info) << "middleware daemon on 127.0.0.1:" << port.value();
    if (federation_ != nullptr) federation_->start();
  }
  return port;
}

void MiddlewareDaemon::stop() {
  // Peer polling first: a poll landing mid-teardown would read members
  // this function is about to destroy state under.
  if (federation_ != nullptr) federation_->stop();
  server_.stop();
  // No scrapes may run once subsystems start tearing down: the samplers
  // read the dispatcher and broker.
  if (observability_ != nullptr) observability_->stop();
  // Stop the compaction thread while the dispatcher (whose state the
  // snapshot provider reads) is still alive, and make the journal durable.
  if (store_ != nullptr) store_->shutdown();
}

JobClass MiddlewareDaemon::resolve_class(const std::string& partition,
                                         JobClass session_default) const {
  if (partition.empty()) return session_default;
  const auto it = options_.partition_class.find(partition);
  return it != options_.partition_class.end() ? it->second : session_default;
}

Result<Session> MiddlewareDaemon::open_session(const std::string& user,
                                               JobClass cls) {
  auto session = sessions_.create(user, cls);
  if (!session.ok()) return session.error();
  if (store_ != nullptr) {
    store_->session_created(to_session_record(session.value()));
  }
  return session;
}

Result<std::size_t> MiddlewareDaemon::close_session(
    const std::string& token) {
  auto session = sessions_.authenticate(token);
  if (!session.ok()) return session.error();
  QCENV_RETURN_IF_ERROR(sessions_.close(token));
  // A closed session must not leave orphans in the queue.
  return session_removed(session.value());
}

Result<std::string> MiddlewareDaemon::ingress_session(
    const std::string& user) {
  {
    std::scoped_lock lock(ingress_mutex_);
    const auto it = ingress_tokens_.find(user);
    // Re-authenticate the cached token: idle expiry may have reaped the
    // session between forwards.
    if (it != ingress_tokens_.end() &&
        sessions_.authenticate(it->second).ok()) {
      return it->second;
    }
  }
  // The session default class is a placeholder — forwarded submissions
  // carry their partition, and resolve_class overrides per job.
  auto session = open_session(user, JobClass::kDevelopment);
  if (!session.ok()) return session.error();
  std::scoped_lock lock(ingress_mutex_);
  ingress_tokens_[user] = session.value().token;
  return session.value().token;
}

Result<MiddlewareDaemon::Submitted> MiddlewareDaemon::submit_job(
    const std::string& token, quantum::Payload payload,
    const SubmitHints& hints, telemetry::TraceId* trace_out) {
  auto session = sessions_.authenticate(token);
  if (!session.ok()) return session.error();
  const std::string user = session.value().user;
  // Federation: when this daemon cannot take the job (demoted to
  // standby, fleet down, queue saturated — choose_peer decides), route
  // it to the best-scored peer BEFORE touching local admission state.
  // A failed forward falls through to the normal local path below: a
  // submission always lands in exactly one daemon's queue, never
  // nowhere. Resource-pinned jobs and peer-forwarded arrivals stay put.
  if (federation_ != nullptr && !hints.no_forward &&
      hints.resource.empty()) {
    if (const auto peer = federation_->choose_peer("")) {
      auto forwarded = federation_->forward(*peer, user, hints.partition,
                                            payload.to_json());
      if (forwarded.ok()) {
        events_.log(clock_->now(), telemetry::Severity::kInfo,
                    "job_forwarded",
                    "submission routed to peer '" + *peer + "' as job " +
                        std::to_string(forwarded.value().remote_id),
                    user, forwarded.value().remote_id);
        Submitted submitted;
        submitted.id = forwarded.value().remote_id;
        submitted.job_class =
            resolve_class(hints.partition, session.value().job_class);
        submitted.resource = forwarded.value().resource;
        submitted.forwarded_to = *peer;
        return submitted;
      }
      events_.log(clock_->now(), telemetry::Severity::kWarn,
                  "forward_failed",
                  "peer '" + *peer + "' refused a forwarded submission (" +
                      forwarded.error().message() +
                      "); falling back to the local queue",
                  user);
    }
  }
  // Every traced submission's timeline starts here: the `admission` stage
  // covers validation and accounting, and it opens BEFORE any check can
  // reject — so 429/500/503 responses carry a trace id too.
  telemetry::TraceId trace = 0;
  const common::TimeNs trace_start = clock_->now();
  if (traces_ != nullptr) {
    // One relaxed fetch_add; the trace's spans materialize off the hot
    // path (at first claim/finish/read, or in `rejected` below).
    trace = traces_->allocate();
    if (trace_out != nullptr) *trace_out = trace;
  }
  const auto rejected = [&](const common::Error& error) -> common::Error {
    if (trace != 0) {
      traces_->record_rejected(trace, user, trace_start, clock_->now());
    }
    events_.log(clock_->now(), telemetry::Severity::kWarn,
                "submit_rejected", error.message(), user, 0, trace);
    // Rejection-ratio SLO input (cold path by definition).
    if (observability_ != nullptr) observability_->note_rejected(user);
    return error;
  };
  const JobClass cls =
      resolve_class(hints.partition, session.value().job_class);
  Dispatcher::SubmitOptions placement;
  placement.resource = hints.resource;
  placement.policy = hints.policy;
  placement.trace_id = trace;
  placement.trace_start = trace_start;
  // Validate against the spec of the resource the job is pinned to (or
  // the primary when the broker places it freely).
  qrmi::QrmiPtr spec_source = primary_;
  if (!placement.resource.empty()) {
    auto pinned = broker_->resource(placement.resource);
    if (!pinned.ok()) return rejected(pinned.error());
    spec_source = std::move(pinned).value();
  }
  if (spec_source == nullptr) {
    return rejected(common::err::failed_precondition(
        "no resources registered with this daemon"));
  }
  auto spec = spec_source->target();
  if (!spec.ok()) return rejected(spec.error());
  AdmissionContext context;
  context.user = user;
  // One relaxed atomic load — the submit hot path must not walk (and
  // lock) every queue shard just to read the global depth.
  context.queue_depth = dispatcher_->queued_total();
  context.user_pending = dispatcher_->pending_for_user(context.user);
  const auto pending_override = accounting_.pending_limit(context.user);
  if (pending_override.has_value()) {
    context.user_pending_limit = static_cast<std::size_t>(*pending_override);
  }
  auto admitted = admission_.validate(payload, cls, spec.value(), context);
  if (!admitted.ok()) return rejected(admitted.error());
  // Per-user rate limits and in-flight shot caps (HTTP 429). Consumes a
  // token and reserves the shots; released as batches execute or if the
  // submission fails below.
  const std::uint64_t shots = payload.shots();
  auto reserved = accounting_.admit_submission(context.user, shots);
  if (!reserved.ok()) return rejected(reserved.error());
  // The dispatcher re-checks the pending cap under its own lock — the
  // only race-free enforcement point for concurrent submits.
  placement.user_pending_limit = context.user_pending_limit.value_or(
      options_.admission.max_pending_per_user);
  auto id = dispatcher_->submit(session.value().id, user, cls,
                                std::move(payload), placement);
  if (!id.ok()) {
    accounting_.release_submission(context.user, shots);
    return rejected(id.error());
  }
  // Close the submit/close race: if the session died between the
  // authenticate above and this submit, its cancel sweep may have run
  // before the job existed — sweep it ourselves. The dispatcher owns the
  // trace from here (the cancel finishes it), so only log the event.
  if (!sessions_.authenticate(token).ok()) {
    (void)dispatcher_->cancel_for_session(session.value().id);
    events_.log(clock_->now(), telemetry::Severity::kWarn,
                "submit_rejected", "session closed during submission",
                user, id.value(), trace);
    return common::err::permission_denied("session closed during submission");
  }
  Submitted submitted;
  submitted.id = id.value();
  submitted.job_class = cls;
  auto job = dispatcher_->query(id.value());
  if (job.ok()) submitted.resource = job.value().resource;
  return submitted;
}

void MiddlewareDaemon::install_routes() {
  // Instrumentation middleware: count requests per path prefix.
  server_.set_middleware(
      [this](const HttpRequest& request) -> std::optional<HttpResponse> {
        metrics_
            .counter("daemon_http_requests_total",
                     {{"method", request.method}}, "REST requests")
            .increment();
        return std::nullopt;
      });

  auto& router = server_.router();

  const auto authenticate =
      [this](const HttpRequest& request) -> Result<Session> {
    const auto it = request.headers.find("X-Session-Token");
    if (it == request.headers.end()) {
      return common::err::permission_denied("missing X-Session-Token header");
    }
    return sessions_.authenticate(it->second);
  };
  const auto require_admin =
      [this](const HttpRequest& request) -> common::Status {
    const auto it = request.headers.find("X-Admin-Key");
    if (it == request.headers.end() || it->second != options_.admin_key) {
      return common::err::permission_denied("admin key required");
    }
    return common::Status::ok_status();
  };

  router.add("POST", "/v1/sessions",
             [this](const HttpRequest& request, const PathParams&) {
               auto body = Json::parse(request.body);
               if (!body.ok()) return error_response(body.error());
               auto user = body.value().get_string("user");
               if (!user.ok()) return error_response(user.error());
               JobClass cls = JobClass::kDevelopment;
               if (body.value().contains("class")) {
                 auto parsed = job_class_from_string(
                     body.value().at_or_null("class").as_string());
                 if (!parsed.ok()) return error_response(parsed.error());
                 cls = parsed.value();
               }
               auto session = open_session(user.value(), cls);
               if (!session.ok()) return error_response(session.error());
               Json out = Json::object();
               out["session_id"] = session.value().id.to_string();
               out["token"] = session.value().token;
               out["class"] = to_string(session.value().job_class);
               return HttpResponse::json(201, out.dump());
             });

  // Extracts the session token header; the programmatic helpers
  // authenticate it themselves (one lookup, not two).
  const auto session_token =
      [](const HttpRequest& request) -> Result<std::string> {
    const auto it = request.headers.find("X-Session-Token");
    if (it == request.headers.end()) {
      return common::err::permission_denied("missing X-Session-Token header");
    }
    return it->second;
  };

  router.add("DELETE", "/v1/sessions",
             [this, session_token](const HttpRequest& request,
                                   const PathParams&) {
               auto token = session_token(request);
               if (!token.ok()) return error_response(token.error());
               auto cancelled = close_session(token.value());
               if (!cancelled.ok()) return error_response(cancelled.error());
               Json out = Json::object();
               out["closed"] = true;
               out["cancelled_jobs"] =
                   static_cast<long long>(cancelled.value());
               return HttpResponse::json(200, out.dump());
             });

  router.add("GET", "/v1/device",
             [this](const HttpRequest&, const PathParams&) {
               if (primary_ == nullptr) {
                 return error_response(common::err::failed_precondition(
                     "no resources registered with this daemon"));
               }
               auto spec = primary_->target();
               if (!spec.ok()) return error_response(spec.error());
               return HttpResponse::json(200, spec.value().to_json().dump());
             });

  router.add("GET", "/v1/resources",
             [this](const HttpRequest&, const PathParams&) {
               Json out = Json::array();
               for (const auto& status : broker_->snapshot()) {
                 out.push_back(status.to_json());
               }
               return HttpResponse::json(200, out.dump());
             });

  router.add(
      "POST", "/v1/jobs",
      [this, session_token](const HttpRequest& request, const PathParams&) {
        auto token = session_token(request);
        if (!token.ok()) return error_response(token.error());
        auto body = Json::parse(request.body);
        if (!body.ok()) return error_response(body.error());
        auto payload =
            quantum::Payload::from_json(body.value().at_or_null("payload"));
        if (!payload.ok()) return error_response(payload.error());
        SubmitHints hints;
        if (body.value().contains("partition")) {
          auto parsed = body.value().get_string("partition");
          if (!parsed.ok()) return error_response(parsed.error());
          hints.partition = std::move(parsed).value();
        }
        if (body.value().contains("resource")) {
          auto parsed = body.value().get_string("resource");
          if (!parsed.ok()) return error_response(parsed.error());
          hints.resource = std::move(parsed).value();
        }
        if (body.value().contains("policy")) {
          auto name = body.value().get_string("policy");
          if (!name.ok()) return error_response(name.error());
          auto parsed = broker::policy_from_string(name.value());
          if (!parsed.ok()) return error_response(parsed.error());
          hints.policy = parsed.value();
        }
        telemetry::TraceId trace = 0;
        auto submitted = submit_job(token.value(),
                                    std::move(payload).value(), hints,
                                    &trace);
        if (!submitted.ok()) {
          HttpResponse response = error_response(submitted.error(), trace);
          // Rate-limited submissions learn when to come back: the token
          // bucket's refill time, rounded up to whole seconds (HTTP
          // Retry-After), the same number the ETA endpoint reports as the
          // rate_limited wait cause. Caps without a refill (in-flight
          // shots, pending jobs) send no header.
          if (response.status == 429) {
            if (auto limited = sessions_.authenticate(token.value());
                limited.ok()) {
              const common::DurationNs retry =
                  accounting_.rate_limiter().retry_after(
                      limited.value().user, clock_->now());
              if (retry > 0) {
                response.headers["Retry-After"] = std::to_string(
                    (retry + common::kSecond - 1) / common::kSecond);
              }
            }
          }
          return response;
        }
        Json out = Json::object();
        out["job_id"] = static_cast<long long>(submitted.value().id);
        out["class"] = to_string(submitted.value().job_class);
        out["resource"] = submitted.value().resource;
        if (!submitted.value().forwarded_to.empty()) {
          out["forwarded_to"] = submitted.value().forwarded_to;
        }
        if (trace != 0) out["trace_id"] = static_cast<long long>(trace);
        // The predicted start/finish window rides the 201: REST clients
        // get their ETA without a second round-trip. Off the programmatic
        // hot path on purpose — bench_submit_path drives submit_job
        // directly and never pays for the queue snapshot below. A
        // forwarded job's id belongs to the peer; its ETA does too.
        if (submitted.value().forwarded_to.empty()) {
          if (auto eta = eta_->estimate(submitted.value().id); eta.ok()) {
            out["eta"] = eta.value().to_json();
          }
        }
        return HttpResponse::json(201, out.dump());
      });

  router.add("GET", "/v1/jobs/:id/eta",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams& params) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               const std::uint64_t id = std::strtoull(
                   params.at("id").c_str(), nullptr, 10);
               auto job = dispatcher_->query(id);
               if (!job.ok()) return error_response(job.error());
               if (job.value().user != session.value().user) {
                 return error_response(common::err::permission_denied(
                     "job belongs to another user"));
               }
               auto eta = eta_->estimate(id);
               if (!eta.ok()) return error_response(eta.error());
               return HttpResponse::json(200, eta.value().to_json().dump());
             });

  router.add("GET", "/v1/jobs/:id/explain",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams& params) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               const std::uint64_t id = std::strtoull(
                   params.at("id").c_str(), nullptr, 10);
               auto job = dispatcher_->query(id);
               if (!job.ok()) return error_response(job.error());
               if (job.value().user != session.value().user) {
                 return error_response(common::err::permission_denied(
                     "job belongs to another user"));
               }
               auto report = eta_->explain(id);
               if (!report.ok()) return error_response(report.error());
               return HttpResponse::json(200,
                                         report.value().to_json().dump());
             });

  router.add("GET", "/v1/jobs/:id",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams& params) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               const std::uint64_t id = std::strtoull(
                   params.at("id").c_str(), nullptr, 10);
               auto job = dispatcher_->query(id);
               if (!job.ok()) return error_response(job.error());
               if (job.value().user != session.value().user) {
                 return error_response(common::err::permission_denied(
                     "job belongs to another user"));
               }
               return HttpResponse::json(200, job_to_json(job.value()).dump());
             });

  router.add("GET", "/v1/jobs/:id/trace",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams& params) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               const std::uint64_t id = std::strtoull(
                   params.at("id").c_str(), nullptr, 10);
               auto job = dispatcher_->query(id);
               if (!job.ok()) return error_response(job.error());
               if (job.value().user != session.value().user) {
                 return error_response(common::err::permission_denied(
                     "job belongs to another user"));
               }
               if (traces_ == nullptr) {
                 return error_response(common::err::not_found(
                     "tracing is disabled on this daemon"));
               }
               // Materializes deferred submit spans on demand, so queued
               // jobs are traceable before their first dispatch.
               auto trace = dispatcher_->trace(id);
               if (!trace.ok()) {
                 if (trace.error().message() == "trace evicted") {
                   return error_response(common::err::not_found(
                       "trace evicted (raise telemetry.trace_capacity)"));
                 }
                 return error_response(trace.error());
               }
               return HttpResponse::json(
                   200,
                   telemetry::TraceStore::to_json(trace.value()).dump());
             });

  router.add("GET", "/v1/jobs/:id/result",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams& params) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               const std::uint64_t id = std::strtoull(
                   params.at("id").c_str(), nullptr, 10);
               auto owner = dispatcher_->query(id);
               if (!owner.ok()) return error_response(owner.error());
               if (owner.value().user != session.value().user) {
                 return error_response(common::err::permission_denied(
                     "job belongs to another user"));
               }
               auto samples = dispatcher_->result(id);
               if (!samples.ok()) return error_response(samples.error());
               return HttpResponse::json(200,
                                         samples.value().to_json().dump());
             });

  router.add("DELETE", "/v1/jobs/:id",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams& params) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               const std::uint64_t id = std::strtoull(
                   params.at("id").c_str(), nullptr, 10);
               auto owner = dispatcher_->query(id);
               if (!owner.ok()) return error_response(owner.error());
               if (owner.value().user != session.value().user) {
                 return error_response(common::err::permission_denied(
                     "job belongs to another user"));
               }
               auto status = dispatcher_->cancel(id);
               if (!status.ok()) return error_response(status.error());
               return HttpResponse::json(200, R"({"cancelled":true})");
             });

  router.add("GET", "/v1/jobs",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams&) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               Json out = Json::array();
               for (const auto& job : dispatcher_->jobs_snapshot()) {
                 if (job.user == session.value().user) {
                   out.push_back(job_to_json(job));
                 }
               }
               return HttpResponse::json(200, out.dump());
             });

  router.add("GET", "/v1/queue",
             [this](const HttpRequest&, const PathParams&) {
               Json out = Json::object();
               Json depths = Json::object();
               for (const auto& [cls, depth] : dispatcher_->queue_depths()) {
                 depths[to_string(cls)] = static_cast<long long>(depth);
               }
               out["depths"] = std::move(depths);
               Json order = Json::array();
               for (const std::uint64_t id : dispatcher_->queue_order()) {
                 order.push_back(static_cast<long long>(id));
               }
               out["order"] = std::move(order);
               // Per-resource lane view: queued/running jobs per lane plus
               // the broker's live in-flight batch count.
               std::map<std::string, std::size_t> inflight;
               for (const auto& status : broker_->snapshot()) {
                 inflight[status.name] = status.inflight_batches;
               }
               Json lanes = Json::object();
               for (const auto& [name, depth] : dispatcher_->lane_depths()) {
                 Json lane = Json::object();
                 lane["queued"] = static_cast<long long>(depth.queued);
                 lane["running"] = static_cast<long long>(depth.running);
                 const auto it = inflight.find(name);
                 lane["inflight_batches"] = static_cast<long long>(
                     it != inflight.end() ? it->second : 0);
                 lanes[name] = std::move(lane);
               }
               out["lanes"] = std::move(lanes);
               // Per-tenant view: queued jobs per user, so a 429'd client
               // can see whose backlog is occupying the queue.
               Json users = Json::object();
               for (const auto& [user, count] :
                    dispatcher_->user_pending_counts()) {
                 users[user] = static_cast<long long>(count);
               }
               out["users"] = std::move(users);
               out["draining"] = dispatcher_->draining();
               return HttpResponse::json(200, out.dump());
             });

  router.add("GET", "/v1/usage",
             [this, authenticate](const HttpRequest& request,
                                  const PathParams&) {
               auto session = authenticate(request);
               if (!session.ok()) return error_response(session.error());
               const std::string& user = session.value().user;
               return HttpResponse::json(
                   200,
                   accounting_
                       .usage_json(user, dispatcher_->pending_for_user(user))
                       .dump());
             });

  router.add("GET", "/metrics",
             [this](const HttpRequest&, const PathParams&) {
               HttpResponse response =
                   HttpResponse::text(200, metrics_.expose());
               // The version suffix is the Prometheus exposition-format
               // contract; only this endpoint speaks it.
               response.headers["Content-Type"] =
                   "text/plain; version=0.0.4";
               return response;
             });

  // ---- Admin surface ------------------------------------------------------

  router.add("GET", "/admin/status",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               Json out = Json::object();
               out["sessions"] = static_cast<long long>(sessions_.count());
               out["draining"] = dispatcher_->draining();
               Json depths = Json::object();
               for (const auto& [cls, depth] : dispatcher_->queue_depths()) {
                 depths[to_string(cls)] = static_cast<long long>(depth);
               }
               out["queue"] = std::move(depths);
               if (device_ != nullptr) {
                 const auto counters = device_->counters();
                 out["qpu_jobs_executed"] =
                     static_cast<long long>(counters.jobs_executed);
                 out["qpu_busy_seconds"] = common::to_seconds(counters.busy_ns);
                 out["qpu_fidelity"] =
                     device_->spec().calibration.fidelity_estimate();
               }
               return HttpResponse::json(200, out.dump());
             });

  // Structured-event tail: `?since=<seq>` returns events AFTER that
  // sequence number (0 = from the oldest retained), so operators can poll
  // incrementally; `last_seq` is the cursor for the next call.
  router.add("GET", "/admin/events",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               std::uint64_t since = 0;
               if (const auto raw = request.query_param("since")) {
                 auto parsed = parse_numeric_param(*raw, "since");
                 if (!parsed.ok()) return error_response(parsed.error());
                 since = parsed.value();
               }
               std::size_t max = 256;
               if (const auto raw = request.query_param("max")) {
                 auto parsed = parse_numeric_param(*raw, "max");
                 if (!parsed.ok()) return error_response(parsed.error());
                 max = static_cast<std::size_t>(parsed.value());
               }
               telemetry::EventLog::Filter filter;
               if (const auto raw = request.query_param("severity")) {
                 if (*raw == "info") {
                   filter.severity = telemetry::Severity::kInfo;
                 } else if (*raw == "warn") {
                   filter.severity = telemetry::Severity::kWarn;
                 } else if (*raw == "error") {
                   filter.severity = telemetry::Severity::kError;
                 } else {
                   return error_response(common::err::invalid_argument(
                       "severity must be info|warn|error"));
                 }
               }
               if (const auto raw = request.query_param("kind")) {
                 filter.kind = *raw;
               }
               Json out = Json::object();
               Json list = Json::array();
               for (const auto& event : events_.since(since, max, filter)) {
                 list.push_back(telemetry::EventLog::to_json(event));
               }
               out["events"] = std::move(list);
               out["last_seq"] =
                   static_cast<long long>(events_.last_seq());
               return HttpResponse::json(200, out.dump());
             });

  // ---- observability: TSDB / alerts / SLO / flight recorder --------------
  const auto require_observability =
      [this]() -> common::Result<ObservabilityPipeline*> {
    if (observability_ == nullptr) {
      return common::err::failed_precondition("observability is disabled");
    }
    return observability_.get();
  };

  router.add(
      "GET", "/admin/tsdb/query",
      [this, require_admin, require_observability](
          const HttpRequest& request, const PathParams&) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        auto obs = require_observability();
        if (!obs.ok()) return error_response(obs.error());
        const auto series_param = request.query_param("series");
        if (!series_param) {
          return error_response(
              common::err::invalid_argument("series= is required"));
        }
        auto key = telemetry::SeriesKey::parse(*series_param);
        if (!key.ok()) return error_response(key.error());
        common::TimeNs start = 0;
        common::TimeNs end = std::numeric_limits<common::TimeNs>::max();
        if (const auto raw = request.query_param("start")) {
          auto parsed = parse_time_param(*raw, "start");
          if (!parsed.ok()) return error_response(parsed.error());
          start = parsed.value();
        }
        if (const auto raw = request.query_param("end")) {
          auto parsed = parse_time_param(*raw, "end");
          if (!parsed.ok()) return error_response(parsed.error());
          end = parsed.value();
        }
        const telemetry::TimeSeriesDb& tsdb = obs.value()->tsdb();
        Json out = Json::object();
        out["series"] = key.value().to_string();
        common::DurationNs window = 0;
        if (const auto raw = request.query_param("window")) {
          auto parsed = parse_time_param(*raw, "window");
          if (!parsed.ok()) return error_response(parsed.error());
          window = parsed.value();
        }
        if (window > 0) {
          telemetry::Aggregation agg = telemetry::Aggregation::kMean;
          if (const auto raw = request.query_param("agg")) {
            if (*raw == "mean") {
              agg = telemetry::Aggregation::kMean;
            } else if (*raw == "min") {
              agg = telemetry::Aggregation::kMin;
            } else if (*raw == "max") {
              agg = telemetry::Aggregation::kMax;
            } else if (*raw == "last") {
              agg = telemetry::Aggregation::kLast;
            } else if (*raw == "sum") {
              agg = telemetry::Aggregation::kSum;
            } else if (*raw == "count") {
              agg = telemetry::Aggregation::kCount;
            } else if (*raw == "rate") {
              agg = telemetry::Aggregation::kRate;
            } else {
              return error_response(common::err::invalid_argument(
                  "agg must be mean|min|max|last|sum|count|rate"));
            }
          }
          // aggregate() windows cover [start, end); a max end would
          // overflow the window arithmetic, so clamp to the data.
          if (end == std::numeric_limits<common::TimeNs>::max()) {
            const auto last = tsdb.last(key.value());
            end = last ? last->time + 1 : start;
          }
          Json windows = Json::array();
          for (const auto& point :
               tsdb.aggregate(key.value(), start, end, window, agg)) {
            Json entry = Json::object();
            entry["window_start"] = point.window_start;
            entry["value"] = point.value;
            entry["samples"] = point.samples;
            windows.push_back(std::move(entry));
          }
          out["windows"] = std::move(windows);
        } else {
          common::JsonArray points;
          for (const auto& point :
               tsdb.query_range(key.value(), start, end)) {
            common::JsonArray pair;
            pair.reserve(2);
            pair.emplace_back(point.time);
            pair.emplace_back(point.value);
            points.emplace_back(std::move(pair));
          }
          out["points"] = Json(std::move(points));
        }
        return HttpResponse::json(200, out.dump());
      });

  router.add(
      "GET", "/admin/tsdb/export",
      [this, require_admin, require_observability](
          const HttpRequest& request, const PathParams&) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        auto obs = require_observability();
        if (!obs.ok()) return error_response(obs.error());
        const telemetry::TimeSeriesDb& tsdb = obs.value()->tsdb();
        std::vector<telemetry::SeriesKey> keys;
        if (const auto raw = request.query_param("series")) {
          auto key = telemetry::SeriesKey::parse(*raw);
          if (!key.ok()) return error_response(key.error());
          keys.push_back(std::move(key).value());
        } else {
          keys = tsdb.series();
        }
        std::string body;
        for (const auto& key : keys) {
          auto lines = tsdb.dump_series(key);
          if (!lines.ok()) return error_response(lines.error());
          body += lines.value();
        }
        return HttpResponse::text(200, body);
      });

  router.add("GET", "/admin/alerts",
             [this, require_admin, require_observability](
                 const HttpRequest& request, const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               auto obs = require_observability();
               if (!obs.ok()) return error_response(obs.error());
               return HttpResponse::json(
                   200, obs.value()->alerts().to_json().dump());
             });

  router.add("GET", "/admin/slo",
             [this, require_admin, require_observability](
                 const HttpRequest& request, const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               auto obs = require_observability();
               if (!obs.ok()) return error_response(obs.error());
               ObservabilityPipeline* pipeline = obs.value();
               const common::TimeNs now =
                   pipeline->collector().last_scrape() >= 0
                       ? pipeline->collector().last_scrape()
                       : clock_->now();
               Json out = Json::object();
               Json burns = Json::array();
               for (const auto& status :
                    pipeline->alerts().burn_status(pipeline->tsdb(), now)) {
                 burns.push_back(status.to_json());
               }
               out["burn_rates"] = std::move(burns);
               out["objective"] = pipeline->options().slo_objective;
               out["burn_threshold"] = pipeline->options().burn_threshold;
               out["short_window_ns"] = pipeline->short_window();
               out["long_window_ns"] = pipeline->long_window();
               out["evaluated_at"] = now;
               return HttpResponse::json(200, out.dump());
             });

  // Critical-path profile: collapsed stacks of terminal jobs finishing in
  // the trailing `window` ns (0/absent = everything retained), merged
  // fleet-wide and split per resource / per tenant, plus regressions
  // against the recorded baseline (stacks whose share of total self time
  // grew more than `threshold` share points).
  const auto profile_window =
      [this](const HttpRequest& request)
      -> Result<std::pair<common::TimeNs, common::TimeNs>> {
    const common::TimeNs now = clock_->now();
    common::DurationNs window = 0;
    if (const auto raw = request.query_param("window")) {
      auto parsed = parse_time_param(*raw, "window");
      if (!parsed.ok()) return parsed.error();
      window = parsed.value();
    }
    const common::TimeNs since =
        window > 0 ? (now > window ? now - window : 0) : 0;
    return std::pair<common::TimeNs, common::TimeNs>{since, now};
  };

  router.add("GET", "/admin/profile",
             [this, require_admin, profile_window](
                 const HttpRequest& request, const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               auto range = profile_window(request);
               if (!range.ok()) return error_response(range.error());
               const auto [since, until] = range.value();
               double threshold = 0.05;
               if (const auto raw = request.query_param("threshold")) {
                 threshold = std::strtod(raw->c_str(), nullptr);
               }
               Json out = profiler_.view(since, until).to_json();
               out["baseline"] = profiler_.has_baseline();
               Json regs = Json::array();
               for (const auto& regression :
                    profiler_.regressions(since, until, threshold)) {
                 regs.push_back(regression.to_json());
               }
               out["regressions"] = std::move(regs);
               return HttpResponse::json(200, out.dump());
             });

  router.add("POST", "/admin/profile/baseline",
             [this, require_admin, profile_window](
                 const HttpRequest& request, const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               auto range = profile_window(request);
               if (!range.ok()) return error_response(range.error());
               const auto [since, until] = range.value();
               profiler_.record_baseline(since, until);
               Json out = Json::object();
               out["recorded"] = true;
               out["since_ns"] = since;
               out["until_ns"] = until;
               out["jobs"] = static_cast<long long>(
                   profiler_.view(since, until).jobs);
               return HttpResponse::json(200, out.dump());
             });

  router.add("POST", "/admin/debug/dump",
             [this, require_admin, require_observability](
                 const HttpRequest& request, const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               auto obs = require_observability();
               if (!obs.ok()) return error_response(obs.error());
               auto dumped = obs.value()->recorder().dump("admin_request");
               if (!dumped.ok()) return error_response(dumped.error());
               events_.log(clock_->now(), telemetry::Severity::kInfo,
                           "flight_dump",
                           "operator-requested forensics dump to " +
                               dumped.value());
               Json out = Json::object();
               out["path"] = dumped.value();
               out["dumps"] = obs.value()->recorder().dump_count();
               return HttpResponse::json(200, out.dump());
             });

  router.add("GET", "/admin/sessions",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               Json out = Json::array();
               for (const auto& session : sessions_.list()) {
                 Json s = Json::object();
                 s["id"] = session.id.to_string();
                 s["user"] = session.user;
                 s["class"] = to_string(session.job_class);
                 s["created_ns"] = session.created;
                 out.push_back(std::move(s));
               }
               return HttpResponse::json(200, out.dump());
             });

  router.add("POST", "/admin/expire_sessions",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               const auto expired = sessions_.expire_idle();
               std::size_t cancelled = 0;
               for (const auto& session : expired) {
                 cancelled += session_removed(session);
               }
               Json out = Json::object();
               out["expired"] = static_cast<long long>(expired.size());
               out["cancelled_jobs"] = static_cast<long long>(cancelled);
               return HttpResponse::json(200, out.dump());
             });

  router.add("GET", "/admin/fairshare",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               return HttpResponse::json(200,
                                         accounting_.fairshare_json().dump());
             });

  router.add(
      "POST", "/admin/quotas/:user",
      [this, require_admin](const HttpRequest& request,
                            const PathParams& params) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        const std::string& user = params.at("user");
        auto body = Json::parse(request.body);
        if (!body.ok()) return error_response(body.error());
        const Json& quota = body.value();
        // Shares: account membership and weight (either field optional;
        // the other keeps its current value).
        if (quota.contains("shares") || quota.contains("account")) {
          const auto current = accounting_.fair_share().share_of(user);
          const Json& shares = quota.at_or_null("shares");
          const Json& account = quota.at_or_null("account");
          if (quota.contains("shares") && !shares.is_number()) {
            return error_response(common::err::invalid_argument(
                "'shares' must be a number"));
          }
          if (quota.contains("account") && !account.is_string()) {
            return error_response(common::err::invalid_argument(
                "'account' must be a string"));
          }
          accounting_.set_shares(
              user, account.is_string() ? account.as_string()
                                        : current.account,
              shares.is_number() ? shares.as_double() : current.shares);
        }
        // Rate limits: any field present replaces that knob, the rest keep
        // the user's current effective values. Negative limits are typos,
        // not requests — reject instead of wrapping to huge uint64s.
        const auto non_negative =
            [&quota](const char* key) -> common::Status {
          const Json& value = quota.at_or_null(key);
          if (value.is_number() && value.as_double() < 0) {
            return common::err::invalid_argument(
                std::string("'") + key + "' must be >= 0");
          }
          return common::Status::ok_status();
        };
        for (const char* key : {"submit_per_sec", "submit_burst",
                                "max_inflight_shots", "max_pending_jobs"}) {
          auto checked = non_negative(key);
          if (!checked.ok()) return error_response(checked.error());
        }
        if (quota.contains("submit_per_sec") ||
            quota.contains("submit_burst") ||
            quota.contains("max_inflight_shots")) {
          accounting::RateLimitOptions limits =
              accounting_.rate_limiter().effective(user);
          const Json& per_sec = quota.at_or_null("submit_per_sec");
          if (per_sec.is_number()) limits.submit_per_sec = per_sec.as_double();
          const Json& burst = quota.at_or_null("submit_burst");
          if (burst.is_number()) limits.submit_burst = burst.as_double();
          const Json& inflight = quota.at_or_null("max_inflight_shots");
          if (inflight.is_number()) {
            limits.max_inflight_shots =
                static_cast<std::uint64_t>(inflight.as_int());
          }
          accounting_.set_rate_limit(user, limits);
        }
        // max_pending_jobs: a number sets the override (0 = unlimited for
        // this user, beating the global policy); null clears it back to
        // the policy default.
        if (quota.contains("max_pending_jobs")) {
          const Json& pending = quota.at_or_null("max_pending_jobs");
          if (pending.is_number()) {
            accounting_.set_pending_limit(
                user, static_cast<std::uint64_t>(pending.as_int()));
          } else if (pending.is_null()) {
            accounting_.clear_pending_limit(user);
          } else {
            return error_response(common::err::invalid_argument(
                "'max_pending_jobs' must be a number or null"));
          }
        }
        return HttpResponse::json(200, accounting_.quota_json(user).dump());
      });

  router.add("POST", "/admin/drain",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               dispatcher_->drain();
               return HttpResponse::json(200, R"({"draining":true})");
             });

  router.add("POST", "/admin/resume",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               dispatcher_->resume();
               return HttpResponse::json(200, R"({"draining":false})");
             });

  router.add("POST", "/admin/resources/:name/drain",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams& params) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               auto status = dispatcher_->drain_resource(params.at("name"));
               if (!status.ok()) return error_response(status.error());
               Json out = Json::object();
               out["resource"] = params.at("name");
               out["draining"] = true;
               return HttpResponse::json(200, out.dump());
             });

  router.add("POST", "/admin/resources/:name/resume",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams& params) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               auto status = dispatcher_->resume_resource(params.at("name"));
               if (!status.ok()) return error_response(status.error());
               Json out = Json::object();
               out["resource"] = params.at("name");
               out["draining"] = false;
               return HttpResponse::json(200, out.dump());
             });

  router.add("GET", "/admin/store",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               Json out = Json::object();
               out["enabled"] = store_ != nullptr;
               if (store_ != nullptr) {
                 const auto status = store_->status();
                 Json detail = status.to_json();
                 // Flatten the toggle into the same object for clients.
                 for (auto& [key, value] : detail.as_object()) {
                   out[key] = std::move(value);
                 }
               }
               return HttpResponse::json(200, out.dump());
             });

  router.add("POST", "/admin/store/compact",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               if (store_ == nullptr) {
                 return error_response(common::err::failed_precondition(
                     "daemon runs without a durable store (no data_dir)"));
               }
               auto status = store_->compact();
               if (!status.ok()) return error_response(status.error());
               Json out = Json::object();
               out["compacted"] = true;
               out["journal_bytes"] = store_->journal().size_bytes();
               out["journal_events"] = store_->journal().event_count();
               return HttpResponse::json(200, out.dump());
             });

  // ---- federation + hot-standby replication ------------------------------

  // Always registered (federation disabled included): peers probing a
  // daemon that has federation off still get a parseable answer instead
  // of a 404 they cannot tell from a dead daemon.
  router.add(
      "GET", "/admin/federation",
      [this, require_admin](const HttpRequest& request, const PathParams&) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        Json out;
        if (federation_ != nullptr) {
          out = federation_->status_json();
        } else {
          out = Json::object();
          out["enabled"] = false;
          out["self"] = options_.federation.self;
          out["role"] = "leader";
          std::uint64_t epoch = 0;
          if (options_.store.enabled()) {
            if (auto read = federation::read_epoch(options_.store.data_dir);
                read.ok()) {
              epoch = read.value();
            }
          }
          out["epoch"] = static_cast<long long>(epoch);
          out["queue_depth"] =
              static_cast<long long>(dispatcher_->queued_total());
          out["peers"] = Json::array();
        }
        out["fleet"] = broker_->summarize().to_json();
        if (store_ != nullptr) {
          Json store_state = Json::object();
          store_state["journal_last_seq"] =
              static_cast<long long>(store_->journal().last_seq());
          out["store"] = std::move(store_state);
        }
        return HttpResponse::json(200, out.dump());
      });

  router.add("POST", "/admin/federation/promote",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               if (federation_ == nullptr) {
                 return error_response(common::err::failed_precondition(
                     "federation is not enabled on this daemon"));
               }
               auto epoch = federation_->promote();
               if (!epoch.ok()) return error_response(epoch.error());
               Json out = Json::object();
               out["role"] = "leader";
               out["epoch"] = static_cast<long long>(epoch.value());
               return HttpResponse::json(200, out.dump());
             });

  router.add("POST", "/admin/federation/demote",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               if (federation_ == nullptr) {
                 return error_response(common::err::failed_precondition(
                     "federation is not enabled on this daemon"));
               }
               federation_->demote();
               Json out = Json::object();
               out["role"] = "standby";
               out["epoch"] = static_cast<long long>(federation_->epoch());
               return HttpResponse::json(200, out.dump());
             });

  // Peer ingress: a forwarded job enters here and walks the exact
  // session/admission/accounting pipeline a direct submission does —
  // under a lazily-created session for the ORIGINAL user, so fair-share
  // and quotas charge the right ledger on this side too.
  router.add(
      "POST", "/admin/federation/submit",
      [this, require_admin](const HttpRequest& request, const PathParams&) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        auto body = Json::parse(request.body);
        if (!body.ok()) return error_response(body.error());
        auto user = body.value().get_string("user");
        if (!user.ok()) return error_response(user.error());
        auto payload =
            quantum::Payload::from_json(body.value().at_or_null("payload"));
        if (!payload.ok()) return error_response(payload.error());
        SubmitHints hints;
        hints.no_forward = true;
        if (body.value().contains("partition")) {
          auto parsed = body.value().get_string("partition");
          if (!parsed.ok()) return error_response(parsed.error());
          hints.partition = std::move(parsed).value();
        }
        auto token = ingress_session(user.value());
        if (!token.ok()) return error_response(token.error());
        auto submitted =
            submit_job(token.value(), std::move(payload).value(), hints);
        if (!submitted.ok()) return error_response(submitted.error());
        Json out = Json::object();
        out["job_id"] = static_cast<long long>(submitted.value().id);
        out["class"] = to_string(submitted.value().job_class);
        out["resource"] = submitted.value().resource;
        return HttpResponse::json(201, out.dump());
      });

  // Journal shipping: raw v2 WAL frames above `after`, capped at the
  // durable watermark and `max_bytes`. Framing metadata rides response
  // headers so the body stays exactly the bytes the leader's WAL holds.
  router.add(
      "GET", "/admin/replication/wal",
      [this, require_admin](const HttpRequest& request, const PathParams&) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        if (store_ == nullptr) {
          return error_response(common::err::failed_precondition(
              "daemon runs without a durable store (no data_dir)"));
        }
        std::uint64_t after = 0;
        if (const auto raw = request.query_param("after")) {
          auto parsed = parse_numeric_param(*raw, "after");
          if (!parsed.ok()) return error_response(parsed.error());
          after = parsed.value();
        }
        std::uint64_t max_bytes = 256 * 1024;
        if (const auto raw = request.query_param("max_bytes")) {
          auto parsed = parse_numeric_param(*raw, "max_bytes");
          if (!parsed.ok()) return error_response(parsed.error());
          if (parsed.value() == 0) {
            return error_response(common::err::invalid_argument(
                "max_bytes must be a positive integer"));
          }
          max_bytes = parsed.value();
        }
        auto segment = store_->journal().read_segment(after, max_bytes);
        if (!segment.ok()) return error_response(segment.error());
        std::uint64_t epoch = 0;
        if (federation_ != nullptr) {
          epoch = federation_->epoch();
        } else if (auto read =
                       federation::read_epoch(options_.store.data_dir);
                   read.ok()) {
          epoch = read.value();
        }
        HttpResponse response;
        response.headers["Content-Type"] = "application/octet-stream";
        response.headers["X-Replication-First-Seq"] =
            std::to_string(segment.value().first_seq);
        response.headers["X-Replication-End-Seq"] =
            std::to_string(segment.value().end_seq);
        response.headers["X-Replication-Durable-Seq"] =
            std::to_string(segment.value().durable_seq);
        response.headers["X-Replication-Snapshot-Needed"] =
            segment.value().snapshot_needed ? "1" : "0";
        response.headers["X-Replication-Epoch"] = std::to_string(epoch);
        response.body = std::move(segment.value().bytes);
        return response;
      });

  router.add(
      "GET", "/admin/replication/snapshot",
      [this, require_admin](const HttpRequest& request, const PathParams&) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        if (store_ == nullptr) {
          return error_response(common::err::failed_precondition(
              "daemon runs without a durable store (no data_dir)"));
        }
        std::ifstream in(store_->snapshot_path(), std::ios::binary);
        if (!in.is_open()) {
          return error_response(
              common::err::not_found("no snapshot has been written yet"));
        }
        std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
        // Parse the bytes we are about to ship (not the file again —
        // compaction may swap it underneath) for the resume watermark.
        auto parsed = Json::parse(bytes);
        if (!parsed.ok()) return error_response(parsed.error());
        auto snapshot = store::StoreSnapshot::from_json(parsed.value());
        if (!snapshot.ok()) return error_response(snapshot.error());
        const std::uint64_t watermark = std::min(
            snapshot.value().jobs_seq, snapshot.value().sessions_seq);
        std::uint64_t epoch = 0;
        if (federation_ != nullptr) {
          epoch = federation_->epoch();
        } else if (auto read =
                       federation::read_epoch(options_.store.data_dir);
                   read.ok()) {
          epoch = read.value();
        }
        HttpResponse response;
        response.headers["Content-Type"] = "application/json";
        response.headers["X-Replication-Watermark"] =
            std::to_string(watermark);
        response.headers["X-Replication-Epoch"] = std::to_string(epoch);
        response.body = std::move(bytes);
        return response;
      });

  router.add("POST", "/admin/recalibrate",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               if (device_ == nullptr) {
                 return error_response(common::err::failed_precondition(
                     "no local device attached to this daemon"));
               }
               device_->recalibrate();
               Json out = Json::object();
               out["recalibrated"] = true;
               out["fidelity"] =
                   device_->spec().calibration.fidelity_estimate();
               return HttpResponse::json(200, out.dump());
             });

  router.add("POST", "/admin/qa",
             [this, require_admin](const HttpRequest& request,
                                   const PathParams&) {
               auto admin = require_admin(request);
               if (!admin.ok()) return error_response(admin.error());
               if (device_ == nullptr) {
                 return error_response(common::err::failed_precondition(
                     "no local device attached to this daemon"));
               }
               auto quality = device_->run_qa_check();
               if (!quality.ok()) return error_response(quality.error());
               Json out = Json::object();
               out["qa_quality"] = quality.value();
               return HttpResponse::json(200, out.dump());
             });

  // Low-level control with safeguards (§2.5): bounded shot-rate override.
  router.add(
      "POST", "/admin/lowlevel/shot_rate",
      [this, require_admin](const HttpRequest& request, const PathParams&) {
        auto admin = require_admin(request);
        if (!admin.ok()) return error_response(admin.error());
        if (device_ == nullptr) {
          return error_response(common::err::failed_precondition(
              "no local device attached to this daemon"));
        }
        auto body = Json::parse(request.body);
        if (!body.ok()) return error_response(body.error());
        auto value = body.value().get_double("value");
        if (!value.ok()) return error_response(value.error());
        if (value.value() < options_.min_shot_rate_hz ||
            value.value() > options_.max_shot_rate_hz) {
          return error_response(common::err::invalid_argument(
              common::format("shot rate %.3f Hz outside the safeguarded "
                             "range [%.3f, %.3f]",
                             value.value(), options_.min_shot_rate_hz,
                             options_.max_shot_rate_hz)));
        }
        auto status = device_->set_shot_rate(value.value());
        if (!status.ok()) return error_response(status.error());
        Json out = Json::object();
        out["shot_rate_hz"] = value.value();
        return HttpResponse::json(200, out.dump());
      });
}

}  // namespace qcenv::daemon

// Sessions, admission, dispatcher and the full REST daemon over loopback.
#include <gtest/gtest.h>

#include <algorithm>

#include "daemon/daemon.hpp"
#include "net/http_client.hpp"
#include "qpu/controller.hpp"
#include "qrmi/direct_qpu.hpp"
#include "qrmi/local_emulator.hpp"

namespace qcenv::daemon {
namespace {

using common::Json;
using common::kSecond;
using common::ManualClock;
using quantum::AtomRegister;
using quantum::Payload;
using quantum::Sequence;
using quantum::Waveform;

Payload small_payload(std::uint64_t shots = 40) {
  Sequence seq(AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{Waveform::constant(200, 2.0),
                               Waveform::constant(200, 0.0), 0.0});
  return Payload::from_sequence(seq, shots);
}

TEST(SessionManagerTest, CreateAuthenticateClose) {
  ManualClock clock;
  SessionManager manager({}, &clock);
  auto session = manager.create("alice", JobClass::kTest);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session.value().token.empty());
  auto authed = manager.authenticate(session.value().token);
  ASSERT_TRUE(authed.ok());
  EXPECT_EQ(authed.value().user, "alice");
  EXPECT_EQ(authed.value().job_class, JobClass::kTest);
  EXPECT_TRUE(manager.close(session.value().token).ok());
  EXPECT_FALSE(manager.authenticate(session.value().token).ok());
}

TEST(SessionManagerTest, RejectsBadTokensAndEmptyUser) {
  ManualClock clock;
  SessionManager manager({}, &clock);
  EXPECT_FALSE(manager.authenticate("bogus").ok());
  EXPECT_FALSE(manager.create("", JobClass::kTest).ok());
  EXPECT_FALSE(manager.close("bogus").ok());
}

TEST(SessionManagerTest, PerUserLimit) {
  ManualClock clock;
  SessionManagerOptions options;
  options.max_sessions_per_user = 2;
  SessionManager manager(options, &clock);
  ASSERT_TRUE(manager.create("bob", JobClass::kDevelopment).ok());
  ASSERT_TRUE(manager.create("bob", JobClass::kDevelopment).ok());
  EXPECT_FALSE(manager.create("bob", JobClass::kDevelopment).ok());
  EXPECT_TRUE(manager.create("carol", JobClass::kDevelopment).ok());
}

TEST(SessionManagerTest, IdleExpiry) {
  ManualClock clock;
  SessionManagerOptions options;
  options.idle_expiry = 10 * kSecond;
  SessionManager manager(options, &clock);
  auto fresh = manager.create("alice", JobClass::kTest).value();
  auto stale = manager.create("bob", JobClass::kTest).value();
  clock.advance(8 * kSecond);
  ASSERT_TRUE(manager.authenticate(fresh.token).ok());  // refresh alice
  clock.advance(5 * kSecond);
  const auto expired = manager.expire_idle();  // bob expired at 13s idle
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front().user, "bob");
  EXPECT_TRUE(manager.authenticate(fresh.token).ok());
  EXPECT_FALSE(manager.authenticate(stale.token).ok());
}

TEST(AdmissionTest, EnforcesClassShotQuotas) {
  AdmissionController admission;
  const auto spec = quantum::DeviceSpec::analog_default();
  EXPECT_FALSE(admission
                   .validate(small_payload(5000), JobClass::kDevelopment,
                             spec, AdmissionContext{})
                   .ok());
  EXPECT_TRUE(admission
                  .validate(small_payload(5000), JobClass::kProduction, spec,
                            AdmissionContext{})
                  .ok());
}

TEST(AdmissionTest, EnforcesDeviceLimitsAndQueueDepth) {
  AdmissionPolicy policy;
  policy.max_queue_depth = 2;
  AdmissionController admission(policy);
  const auto spec = quantum::DeviceSpec::analog_default();
  AdmissionContext full;
  full.queue_depth = 2;
  auto rejected =
      admission.validate(small_payload(), JobClass::kProduction, spec, full);
  ASSERT_FALSE(rejected.ok());
  // The rejection names the limit that fired (global, not per-user).
  EXPECT_NE(rejected.error().message().find("global max_queue_depth=2"),
            std::string::npos)
      << rejected.error().message();
  quantum::Circuit c(2);
  c.h(0);
  EXPECT_FALSE(admission
                   .validate(Payload::from_circuit(c, 10),
                             JobClass::kProduction, spec, AdmissionContext{})
                   .ok());  // analog device rejects digital
}

TEST(AdmissionTest, PerUserPendingLimitNamesTheUser) {
  AdmissionPolicy policy;
  policy.max_pending_per_user = 3;
  AdmissionController admission(policy);
  const auto spec = quantum::DeviceSpec::analog_default();
  AdmissionContext context;
  context.user = "alice";
  context.queue_depth = 5;  // well under the global limit
  context.user_pending = 3;
  auto rejected =
      admission.validate(small_payload(), JobClass::kProduction, spec,
                         context);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), common::ErrorCode::kResourceExhausted);
  EXPECT_NE(rejected.error().message().find("user 'alice'"),
            std::string::npos);
  EXPECT_NE(rejected.error().message().find("per-user limit 3"),
            std::string::npos);
  // A per-user override from /admin/quotas wins over the policy default.
  context.user_pending_limit = 10;
  EXPECT_TRUE(admission
                  .validate(small_payload(), JobClass::kProduction, spec,
                            context)
                  .ok());
}

TEST(DispatcherTest, RunsJobsInClassOrder) {
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  common::WallClock clock;
  QueuePolicy policy;
  policy.non_production_batch_shots = 0;
  Dispatcher dispatcher(resource, policy, &clock, nullptr);
  const auto dev =
      dispatcher.submit(common::SessionId{1}, "dev", JobClass::kDevelopment,
                        small_payload(20));
  const auto prod =
      dispatcher.submit(common::SessionId{2}, "prod", JobClass::kProduction,
                        small_payload(20));
  ASSERT_TRUE(dispatcher.wait(dev).ok());
  ASSERT_TRUE(dispatcher.wait(prod).ok());
  const auto dev_job = dispatcher.query(dev).value();
  const auto prod_job = dispatcher.query(prod).value();
  EXPECT_EQ(dev_job.state, DaemonJobState::kCompleted);
  EXPECT_EQ(prod_job.state, DaemonJobState::kCompleted);
  EXPECT_EQ(dev_job.shots_done, 20u);
}

TEST(DispatcherTest, BatchesMergeToFullShotCount) {
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  common::WallClock clock;
  QueuePolicy policy;
  policy.non_production_batch_shots = 7;  // 40 shots -> 6 batches
  Dispatcher dispatcher(resource, policy, &clock, nullptr);
  const auto id = dispatcher.submit(common::SessionId{1}, "dev",
                                    JobClass::kDevelopment, small_payload(40));
  auto samples = dispatcher.wait(id);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 40u);
}

TEST(DispatcherTest, CancelPendingJob) {
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  common::WallClock clock;
  Dispatcher dispatcher(resource, QueuePolicy{}, &clock, nullptr);
  dispatcher.drain();  // hold dispatch so the job stays queued
  const auto id = dispatcher.submit(common::SessionId{1}, "dev",
                                    JobClass::kDevelopment, small_payload());
  ASSERT_TRUE(dispatcher.cancel(id).ok());
  auto result = dispatcher.wait(id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), common::ErrorCode::kCancelled);
  dispatcher.resume();
}

TEST(DispatcherTest, DrainPausesDispatch) {
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  common::WallClock clock;
  Dispatcher dispatcher(resource, QueuePolicy{}, &clock, nullptr);
  dispatcher.drain();
  const auto id = dispatcher.submit(common::SessionId{1}, "dev",
                                    JobClass::kDevelopment, small_payload());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(dispatcher.query(id).value().state, DaemonJobState::kQueued);
  dispatcher.resume();
  EXPECT_TRUE(dispatcher.wait(id).ok());
}

TEST(DispatcherTest, CancelRacingFailoverBatch) {
  // A cancel that lands while the job's in-flight batch is failing over
  // (resource died mid-dispatch) must terminate the job even though no
  // healthy resource is left to serve the requeued work.
  auto doomed = qrmi::LocalEmulatorQrmi::create("doomed", "sv").value();
  common::WallClock clock;
  broker::BrokerOptions broker_options;
  broker_options.initial_backoff = 50 * common::kMillisecond;
  auto fleet = std::make_shared<broker::ResourceBroker>(broker_options,
                                                        &clock, nullptr);
  ASSERT_TRUE(fleet->add("doomed", doomed).ok());
  QueuePolicy policy;
  policy.non_production_batch_shots = 10;
  Dispatcher dispatcher(fleet, policy, &clock, nullptr);
  const auto id = dispatcher.submit(common::SessionId{1}, "dev",
                                    JobClass::kDevelopment,
                                    small_payload(1000));
  for (int i = 0; i < 5000; ++i) {
    const auto job = dispatcher.query(id).value();
    if (job.state == DaemonJobState::kRunning && job.shots_done > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  doomed->set_offline(true);  // next batch dispatch fails: kUnavailable
  ASSERT_TRUE(dispatcher.cancel(id).ok());
  auto result = dispatcher.wait(id, 30 * common::kSecond);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), common::ErrorCode::kCancelled)
      << result.error().to_string();
  const auto job = dispatcher.query(id).value();
  EXPECT_EQ(job.state, DaemonJobState::kCancelled);
  EXPECT_LT(job.shots_done, 1000u);  // the failed batch was not counted
}

TEST(DispatcherTest, SessionCancelSweepsQueuedJobs) {
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  common::WallClock clock;
  Dispatcher dispatcher(resource, QueuePolicy{}, &clock, nullptr);
  dispatcher.drain();  // keep everything queued
  const auto mine_a = dispatcher.submit(common::SessionId{7}, "alice",
                                        JobClass::kDevelopment,
                                        small_payload());
  const auto mine_b = dispatcher.submit(common::SessionId{7}, "alice",
                                        JobClass::kDevelopment,
                                        small_payload());
  const auto other = dispatcher.submit(common::SessionId{8}, "bob",
                                       JobClass::kDevelopment,
                                       small_payload());
  EXPECT_EQ(dispatcher.cancel_for_session(common::SessionId{7}), 2u);
  EXPECT_EQ(dispatcher.query(mine_a).value().state,
            DaemonJobState::kCancelled);
  EXPECT_EQ(dispatcher.query(mine_b).value().state,
            DaemonJobState::kCancelled);
  EXPECT_EQ(dispatcher.query(other).value().state, DaemonJobState::kQueued);
  dispatcher.resume();
  EXPECT_TRUE(dispatcher.wait(other).ok());
}

TEST(DispatcherTest, MetricsRecorded) {
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  common::WallClock clock;
  telemetry::MetricsRegistry metrics;
  Dispatcher dispatcher(resource, QueuePolicy{}, &clock, &metrics);
  const auto id = dispatcher.submit(common::SessionId{1}, "u",
                                    JobClass::kTest, small_payload());
  ASSERT_TRUE(dispatcher.wait(id).ok());
  const std::string exposition = metrics.expose();
  EXPECT_NE(exposition.find("daemon_jobs_submitted_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("daemon_jobs_finished_total"),
            std::string::npos);
}

// ---- Full REST daemon -------------------------------------------------------

class DaemonFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    resource_ = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
    DaemonOptions options;
    options.admin_key = "root";
    daemon_ = std::make_unique<MiddlewareDaemon>(options, resource_, nullptr,
                                                 &clock_);
    auto port = daemon_->start();
    ASSERT_TRUE(port.ok());
    client_ = std::make_unique<net::HttpClient>(port.value());
  }

  std::string open_session(const std::string& user,
                           const std::string& cls = "development") {
    Json body = Json::object();
    body["user"] = user;
    body["class"] = cls;
    auto response = client_->post("/v1/sessions", body.dump());
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 201);
    auto parsed = Json::parse(response.value().body);
    return parsed.value().get_string("token").value();
  }

  common::WallClock clock_;
  qrmi::QrmiPtr resource_;
  std::unique_ptr<MiddlewareDaemon> daemon_;
  std::unique_ptr<net::HttpClient> client_;
};

TEST_F(DaemonFixture, SessionLifecycleOverRest) {
  const std::string token = open_session("alice");
  EXPECT_EQ(daemon_->sessions().count(), 1u);
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  auto closed = authed.del("/v1/sessions");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed.value().status, 200);
  EXPECT_EQ(daemon_->sessions().count(), 0u);
}

TEST_F(DaemonFixture, JobSubmitPollResult) {
  const std::string token = open_session("alice", "test");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);

  Json body = Json::object();
  body["payload"] = small_payload(30).to_json();
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().status, 201) << submitted.value().body;
  const auto job_id =
      Json::parse(submitted.value().body).value().get_int("job_id").value();

  // Poll until terminal.
  std::string state;
  for (int i = 0; i < 200; ++i) {
    auto status = authed.get("/v1/jobs/" + std::to_string(job_id));
    ASSERT_TRUE(status.ok());
    state = Json::parse(status.value().body)
                .value()
                .get_string("state")
                .value();
    if (state == "completed" || state == "failed") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(state, "completed");

  auto result = authed.get("/v1/jobs/" + std::to_string(job_id) + "/result");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().status, 200);
  auto samples =
      quantum::Samples::from_json(Json::parse(result.value().body).value());
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 30u);
}

TEST_F(DaemonFixture, RejectsUnauthenticatedAndOversized) {
  auto denied = client_->post("/v1/jobs", "{}");
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied.value().status, 401);

  const std::string token = open_session("dave", "development");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(100000).to_json();  // over dev quota
  auto rejected = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status, 400);
}

TEST_F(DaemonFixture, PartitionOverridesSessionClass) {
  const std::string token = open_session("eve", "development");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(10).to_json();
  body["partition"] = "production";  // Slurm partition mapping
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().status, 201);
  EXPECT_EQ(Json::parse(submitted.value().body)
                .value()
                .get_string("class")
                .value(),
            "production");
}

TEST_F(DaemonFixture, QueueAndMetricsEndpoints) {
  auto queue = client_->get("/v1/queue");
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ(queue.value().status, 200);
  auto parsed = Json::parse(queue.value().body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().contains("depths"));
  // Multi-lane view: every fleet resource reports its queue + in-flight
  // batches (this daemon has the single "emu" lane).
  const Json& lanes = parsed.value().at_or_null("lanes");
  ASSERT_TRUE(lanes.is_object());
  const Json& lane = lanes.at_or_null("emu");
  ASSERT_TRUE(lane.is_object());
  EXPECT_TRUE(lane.contains("queued"));
  EXPECT_TRUE(lane.contains("running"));
  EXPECT_TRUE(lane.contains("inflight_batches"));

  auto metrics = client_->get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("daemon_http_requests_total"),
            std::string::npos);
}

TEST_F(DaemonFixture, DeviceEndpointServesSpec) {
  auto device = client_->get("/v1/device");
  ASSERT_TRUE(device.ok());
  ASSERT_EQ(device.value().status, 200);
  auto spec =
      quantum::DeviceSpec::from_json(Json::parse(device.value().body).value());
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec.value().supports_digital);
}

TEST_F(DaemonFixture, TraceEndpointShowsWellNestedTimeline) {
  const std::string token = open_session("alice", "test");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(30).to_json();
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().status, 201) << submitted.value().body;
  const auto parsed = Json::parse(submitted.value().body).value();
  const auto job_id = parsed.get_int("job_id").value();
  // Accepted submissions echo their trace id for correlation.
  EXPECT_GT(parsed.get_int("trace_id").value_or(0), 0);

  auto samples = daemon_->dispatcher().wait(job_id);
  ASSERT_TRUE(samples.ok());

  auto traced = authed.get("/v1/jobs/" + std::to_string(job_id) + "/trace");
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced.value().status, 200) << traced.value().body;
  const auto timeline = Json::parse(traced.value().body).value();
  EXPECT_EQ(timeline.at_or_null("job_id").as_int(), job_id);
  EXPECT_TRUE(timeline.contains("finish_ns"));
  const Json& spans = timeline.at_or_null("spans");
  ASSERT_TRUE(spans.is_array());
  std::vector<std::string> stages;
  for (const Json& span : spans.as_array()) {
    stages.push_back(span.at_or_null("stage").as_string());
  }
  const auto has = [&](const char* stage) {
    return std::find(stages.begin(), stages.end(), stage) != stages.end();
  };
  EXPECT_TRUE(has("admission")) << traced.value().body;
  EXPECT_TRUE(has("queue_wait")) << traced.value().body;
  EXPECT_TRUE(has("shard_dispatch")) << traced.value().body;
  EXPECT_TRUE(has("qrmi_execute")) << traced.value().body;
  // Every span of the finished timeline is closed (duration recorded).
  for (const Json& span : spans.as_array()) {
    EXPECT_TRUE(span.contains("duration_ns")) << traced.value().body;
  }
}

TEST_F(DaemonFixture, EmulatorLaneWaitsForCompletionWithOneCheck) {
  // The emulator signals completion, so the lane makes one wait per batch
  // instead of polling task_status on kRunPoll.
  const std::string token = open_session("erin", "test");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(30).to_json();
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().status, 201) << submitted.value().body;
  const auto job_id = static_cast<std::uint64_t>(
      Json::parse(submitted.value().body).value().get_int("job_id").value());
  ASSERT_TRUE(daemon_->dispatcher().wait(job_id).ok());

  auto trace = daemon_->dispatcher().trace(job_id);
  ASSERT_TRUE(trace.ok());
  std::vector<std::string> polls;
  for (const auto& span : trace.value().spans) {
    if (span.stage == "qrmi_poll") polls.push_back(span.detail);
  }
  EXPECT_EQ(polls, std::vector<std::string>{"polls=1"});
}

TEST_F(DaemonFixture, TraceEndpointMaterializesQueuedJobsMidFlight) {
  // Park the lanes so the job stays queued: its deferred trace must still
  // be readable (materialized on demand by the read itself).
  daemon_->dispatcher().drain();
  const std::string token = open_session("bob", "test");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(30).to_json();
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().status, 201);
  const auto job_id =
      Json::parse(submitted.value().body).value().get_int("job_id").value();

  auto traced = authed.get("/v1/jobs/" + std::to_string(job_id) + "/trace");
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced.value().status, 200) << traced.value().body;
  const auto timeline = Json::parse(traced.value().body).value();
  EXPECT_FALSE(timeline.contains("finish_ns"));
  const Json& spans = timeline.at_or_null("spans");
  ASSERT_TRUE(spans.is_array());
  ASSERT_GT(spans.size(), 0u);
  // The open stage of a queued job is queue_wait.
  const Json& last = spans.as_array().back();
  EXPECT_EQ(last.at_or_null("stage").as_string(), "queue_wait");
  EXPECT_FALSE(last.contains("end_ns"));
  daemon_->dispatcher().resume();
}

TEST_F(DaemonFixture, RejectedSubmissionCarriesTraceIdInErrorBody) {
  const std::string token = open_session("carol", "development");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(100000).to_json();  // over dev quota
  auto rejected = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status, 400);
  const auto parsed = Json::parse(rejected.value().body).value();
  // The error body names the trace that explains the rejection...
  const auto trace_id = parsed.get_int("trace_id").value_or(0);
  EXPECT_GT(trace_id, 0);
  // ...and that trace exists, finished, with its admission span closed.
  ASSERT_NE(daemon_->traces(), nullptr);
  const auto trace =
      daemon_->traces()->find(static_cast<telemetry::TraceId>(trace_id));
  ASSERT_TRUE(trace.has_value());
  EXPECT_GE(trace->finish, 0);
  ASSERT_EQ(trace->spans.size(), 1u);
  EXPECT_EQ(trace->spans[0].stage, "admission");
}

TEST_F(DaemonFixture, AdminEventsTailsStructuredLog) {
  net::HttpClient admin(client_->port());
  admin.set_default_header("X-Admin-Key", "root");
  // Unauthenticated and non-admin callers are refused.
  EXPECT_EQ(client_->get("/admin/events").value().status, 401);

  const std::string token = open_session("dave", "development");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(100000).to_json();  // force a rejection
  ASSERT_EQ(authed.post("/v1/jobs", body.dump()).value().status, 400);

  auto events = admin.get("/admin/events?since=0");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().status, 200);
  const auto parsed = Json::parse(events.value().body).value();
  const Json& list = parsed.at_or_null("events");
  ASSERT_TRUE(list.is_array());
  bool saw_rejection = false;
  for (const Json& event : list.as_array()) {
    if (event.at_or_null("kind").as_string() == "submit_rejected") {
      saw_rejection = true;
      EXPECT_EQ(event.at_or_null("user").as_string(), "dave");
    }
  }
  EXPECT_TRUE(saw_rejection) << events.value().body;
  // Tailing from last_seq returns nothing new.
  const auto last_seq = parsed.at_or_null("last_seq").as_int();
  auto tail = admin.get("/admin/events?since=" + std::to_string(last_seq));
  ASSERT_EQ(tail.value().status, 200);
  EXPECT_EQ(Json::parse(tail.value().body).value().at_or_null("events").size(),
            0u);
}

TEST_F(DaemonFixture, MetricsExposeStageHistogramsWithPrometheusType) {
  const std::string token = open_session("erin", "test");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(30).to_json();
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_EQ(submitted.value().status, 201);
  const auto job_id =
      Json::parse(submitted.value().body).value().get_int("job_id").value();
  ASSERT_TRUE(daemon_->dispatcher().wait(job_id).ok());

  auto metrics = client_->get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  const auto content_type = metrics.value().headers.find("Content-Type");
  ASSERT_NE(content_type, metrics.value().headers.end());
  EXPECT_EQ(content_type->second, "text/plain; version=0.0.4");
  // Per-stage latency histograms with cumulative le buckets.
  EXPECT_NE(metrics.value().body.find("daemon_stage_seconds_bucket{"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(metrics.value().body.find("daemon_stage_seconds_count"),
            std::string::npos);
}

TEST_F(DaemonFixture, AdminEndpointsRequireKey) {
  auto denied = client_->get("/admin/status");
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied.value().status, 401);

  net::HttpClient admin(client_->port());
  admin.set_default_header("X-Admin-Key", "root");
  auto status = admin.get("/admin/status");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().status, 200);

  auto drained = admin.post("/admin/drain", "{}");
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(daemon_->dispatcher().draining());
  auto resumed = admin.post("/admin/resume", "{}");
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(daemon_->dispatcher().draining());
}

TEST_F(DaemonFixture, ClosingSessionCancelsItsQueuedJobs) {
  const std::string token = open_session("alice", "test");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  net::HttpClient admin(client_->port());
  admin.set_default_header("X-Admin-Key", "root");
  ASSERT_TRUE(admin.post("/admin/drain", "{}").ok());  // keep jobs queued

  Json body = Json::object();
  body["payload"] = small_payload(30).to_json();
  auto first = authed.post("/v1/jobs", body.dump());
  ASSERT_EQ(first.value().status, 201);
  const auto first_id =
      Json::parse(first.value().body).value().get_int("job_id").value();
  auto second = authed.post("/v1/jobs", body.dump());
  ASSERT_EQ(second.value().status, 201);

  auto closed = authed.del("/v1/sessions");
  ASSERT_TRUE(closed.ok());
  ASSERT_EQ(closed.value().status, 200);
  // No orphans: both queued jobs died with the session.
  EXPECT_EQ(Json::parse(closed.value().body)
                .value()
                .get_int("cancelled_jobs")
                .value(),
            2);
  const auto job = daemon_->dispatcher().query(
      static_cast<std::uint64_t>(first_id));
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job.value().state, DaemonJobState::kCancelled);
  ASSERT_TRUE(admin.post("/admin/resume", "{}").ok());
}

TEST(DaemonExpiry, IdleExpiryCancelsOrphanedJobs) {
  // ManualClock daemon: advance time past the idle window and check the
  // expired session's queued work is swept with it.
  common::ManualClock clock;
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  DaemonOptions options;
  options.admin_key = "root";
  options.sessions.idle_expiry = 10 * kSecond;
  MiddlewareDaemon daemon(options, resource, nullptr, &clock);
  ASSERT_TRUE(daemon.start().ok());
  daemon.dispatcher().drain();

  net::HttpClient client(daemon.port());
  auto opened =
      client.post("/v1/sessions", R"({"user":"sleepy","class":"test"})");
  ASSERT_EQ(opened.value().status, 201);
  const std::string token =
      Json::parse(opened.value().body).value().get_string("token").value();
  net::HttpClient authed(daemon.port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(30).to_json();
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_EQ(submitted.value().status, 201);
  const auto job_id = static_cast<std::uint64_t>(
      Json::parse(submitted.value().body).value().get_int("job_id").value());

  clock.advance(60 * kSecond);
  net::HttpClient admin(daemon.port());
  admin.set_default_header("X-Admin-Key", "root");
  auto expired = admin.post("/admin/expire_sessions", "{}");
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(expired.value().status, 200);
  auto parsed = Json::parse(expired.value().body).value();
  EXPECT_EQ(parsed.get_int("expired").value(), 1);
  EXPECT_EQ(parsed.get_int("cancelled_jobs").value(), 1);
  EXPECT_EQ(daemon.dispatcher().query(job_id).value().state,
            DaemonJobState::kCancelled);
  EXPECT_FALSE(daemon.sessions().authenticate(token).ok());
}

TEST_F(DaemonFixture, AdminExpireSessions) {
  (void)open_session("sleepy");
  EXPECT_EQ(daemon_->sessions().count(), 1u);
  net::HttpClient admin(client_->port());
  admin.set_default_header("X-Admin-Key", "root");
  auto expired = admin.post("/admin/expire_sessions", "{}");
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(expired.value().status, 200);
  // Nothing idle long enough yet.
  EXPECT_EQ(Json::parse(expired.value().body).value().get_int("expired")
                .value(),
            0);
}

TEST_F(DaemonFixture, LowLevelEndpointsNeedDevice) {
  // This daemon fronts an emulator (device == nullptr): guarded endpoints
  // refuse rather than crash.
  net::HttpClient admin(client_->port());
  admin.set_default_header("X-Admin-Key", "root");
  auto recal = admin.post("/admin/recalibrate", "{}");
  ASSERT_TRUE(recal.ok());
  EXPECT_EQ(recal.value().status, 409);
}

// ---- Multi-resource fleet over REST ----------------------------------------

class FleetDaemonFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    qrmi::ResourceRegistry fleet;
    fleet.add("emu-a", qrmi::LocalEmulatorQrmi::create("emu-a", "sv").value());
    fleet.add("emu-b",
              qrmi::LocalEmulatorQrmi::create("emu-b", "mps-mock").value());
    DaemonOptions options;
    options.admin_key = "root";
    options.broker.default_policy = broker::SchedulingPolicy::kRoundRobin;
    daemon_ = std::make_unique<MiddlewareDaemon>(options, fleet, nullptr,
                                                 &clock_);
    auto port = daemon_->start();
    ASSERT_TRUE(port.ok());
    client_ = std::make_unique<net::HttpClient>(port.value());
  }

  std::string open_session(const std::string& user) {
    Json body = Json::object();
    body["user"] = user;
    body["class"] = "test";
    auto response = client_->post("/v1/sessions", body.dump());
    EXPECT_TRUE(response.ok());
    return Json::parse(response.value().body)
        .value()
        .get_string("token")
        .value();
  }

  common::WallClock clock_;
  std::unique_ptr<MiddlewareDaemon> daemon_;
  std::unique_ptr<net::HttpClient> client_;
};

TEST_F(FleetDaemonFixture, ResourcesEndpointListsFleet) {
  auto response = client_->get("/v1/resources");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  auto parsed = Json::parse(response.value().body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 2u);
  const auto& first = parsed.value().as_array().front();
  EXPECT_EQ(first.at_or_null("name").as_string(), "emu-a");
  EXPECT_TRUE(first.at_or_null("healthy").as_bool());
  EXPECT_TRUE(first.contains("score"));
}

TEST_F(FleetDaemonFixture, ResourceHintPinsJobAndIsReported) {
  const std::string token = open_session("alice");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);

  Json body = Json::object();
  body["payload"] = small_payload(20).to_json();
  body["resource"] = "emu-b";
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().status, 201) << submitted.value().body;
  auto parsed = Json::parse(submitted.value().body).value();
  EXPECT_EQ(parsed.get_string("resource").value(), "emu-b");
  const auto job_id = parsed.get_int("job_id").value();

  auto samples = daemon_->dispatcher().wait(
      static_cast<std::uint64_t>(job_id), 30 * common::kSecond);
  ASSERT_TRUE(samples.ok()) << samples.error().to_string();
  auto job = authed.get("/v1/jobs/" + std::to_string(job_id));
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(Json::parse(job.value().body)
                .value()
                .get_string("resource")
                .value(),
            "emu-b");
}

TEST_F(FleetDaemonFixture, BadPlacementHintsAreRejected) {
  const std::string token = open_session("bob");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);

  Json body = Json::object();
  body["payload"] = small_payload(20).to_json();
  body["resource"] = "emu-z";
  auto unknown = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().status, 404);
  // User-centric diagnostics: the error lists the available resources.
  EXPECT_NE(unknown.value().body.find("emu-a"), std::string::npos);

  body = Json::object();
  body["payload"] = small_payload(20).to_json();
  body["policy"] = "best_effort";
  auto bad_policy = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(bad_policy.ok());
  EXPECT_EQ(bad_policy.value().status, 400);

  // Wrong JSON types must come back as 400s, not dropped connections.
  body = Json::object();
  body["payload"] = small_payload(20).to_json();
  body["resource"] = static_cast<long long>(123);
  auto non_string = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(non_string.ok());
  EXPECT_EQ(non_string.value().status, 400);
}

TEST_F(FleetDaemonFixture, PolicyHintAccepted) {
  const std::string token = open_session("carol");
  net::HttpClient authed(client_->port());
  authed.set_default_header("X-Session-Token", token);
  Json body = Json::object();
  body["payload"] = small_payload(20).to_json();
  body["policy"] = "calibration_aware";
  auto submitted = authed.post("/v1/jobs", body.dump());
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value().status, 201) << submitted.value().body;
  EXPECT_FALSE(Json::parse(submitted.value().body)
                   .value()
                   .get_string("resource")
                   .value()
                   .empty());
}

TEST_F(FleetDaemonFixture, PerResourceDrainAndResume) {
  auto denied = client_->post("/admin/resources/emu-a/drain", "{}");
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied.value().status, 401);

  net::HttpClient admin(client_->port());
  admin.set_default_header("X-Admin-Key", "root");
  auto drained = admin.post("/admin/resources/emu-a/drain", "{}");
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained.value().status, 200);
  EXPECT_TRUE(daemon_->broker().draining("emu-a"));

  auto listed = client_->get("/v1/resources");
  ASSERT_TRUE(listed.ok());
  EXPECT_NE(listed.value().body.find("\"draining\":true"),
            std::string::npos);

  auto resumed = admin.post("/admin/resources/emu-a/resume", "{}");
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed.value().status, 200);
  EXPECT_FALSE(daemon_->broker().draining("emu-a"));

  auto unknown = admin.post("/admin/resources/nope/drain", "{}");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().status, 404);
}

TEST(DaemonWithDevice, AdminControlsActOnQpu) {
  common::ManualClock clock;
  qpu::QpuOptions qpu_options;
  qpu_options.time_scale = 1e9;
  qpu::QpuDevice device(qpu_options, &clock);
  qpu::QpuController controller(&device, &clock);
  auto resource = std::make_shared<qrmi::DirectQpuQrmi>("fresnel", &device,
                                                        &controller);
  DaemonOptions options;
  options.admin_key = "root";
  common::WallClock wall;
  MiddlewareDaemon daemon(options, resource, &device, &wall);
  auto port = daemon.start();
  ASSERT_TRUE(port.ok());

  net::HttpClient admin(port.value());
  admin.set_default_header("X-Admin-Key", "root");

  // Safeguarded low-level control: out-of-bounds rejected.
  auto too_fast = admin.post("/admin/lowlevel/shot_rate",
                             R"({"value": 99999.0})");
  ASSERT_TRUE(too_fast.ok());
  EXPECT_EQ(too_fast.value().status, 400);

  auto ok_rate = admin.post("/admin/lowlevel/shot_rate", R"({"value": 10})");
  ASSERT_TRUE(ok_rate.ok());
  EXPECT_EQ(ok_rate.value().status, 200);
  EXPECT_DOUBLE_EQ(device.shot_rate_hz(), 10.0);

  auto recal = admin.post("/admin/recalibrate", "{}");
  ASSERT_TRUE(recal.ok());
  EXPECT_EQ(recal.value().status, 200);

  auto qa = admin.post("/admin/qa", "{}");
  ASSERT_TRUE(qa.ok());
  ASSERT_EQ(qa.value().status, 200);
  EXPECT_GT(Json::parse(qa.value().body).value().get_double("qa_quality")
                .value(),
            0.9);
}

}  // namespace
}  // namespace qcenv::daemon

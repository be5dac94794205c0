// The explainability surface: GET /v1/jobs/:id/{eta,explain}, the eta
// object embedded in submit 201s, Retry-After on rate-limited 429s, the
// /admin/profile critical-path endpoints and the /admin/events cursor
// semantics. Runs on virtual time (ManualClock auto_advance) so waits and
// retry-after numbers are deterministic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "daemon/daemon.hpp"
#include "daemon/eta.hpp"
#include "net/http_client.hpp"
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

Payload small_payload(std::uint64_t shots = 20) {
  Sequence seq(AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{Waveform::constant(200, 2.0),
                               Waveform::constant(200, 0.0), 0.0});
  return Payload::from_sequence(seq, shots);
}

class EtaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    resource_ = qrmi::LocalEmulatorQrmi::create("emu0", "sv").value();
    DaemonOptions options;
    options.admin_key = "root";
    options.telemetry.observability.scrape_thread = false;
    daemon_ = std::make_unique<MiddlewareDaemon>(options, resource_, nullptr,
                                                 &clock_);
    auto port = daemon_->start();
    ASSERT_TRUE(port.ok());
    admin_ = std::make_unique<net::HttpClient>(port.value());
    admin_->set_default_header("X-Admin-Key", "root");
  }

  net::HttpClient user_client(const std::string& user,
                              JobClass cls = JobClass::kTest) {
    auto session = daemon_->open_session(user, cls).value();
    net::HttpClient client(admin_->port());
    client.set_default_header("X-Session-Token", session.token);
    return client;
  }

  /// Submits over REST and returns the parsed 201 body.
  Json submit(net::HttpClient& client, std::uint64_t shots = 20) {
    Json body = Json::object();
    body["payload"] = small_payload(shots).to_json();
    auto response = client.post("/v1/jobs", body.dump());
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 201) << response.value().body;
    return Json::parse(response.value().body).value();
  }

  Json get_json(net::HttpClient& client, const std::string& path,
                int expected = 200) {
    auto response = client.get(path);
    EXPECT_TRUE(response.ok()) << path;
    EXPECT_EQ(response.value().status, expected) << response.value().body;
    return Json::parse(response.value().body).value();
  }

  // Starts past 0: a job dispatched before any sleep advanced the clock
  // would otherwise record first_dispatch_time 0, the "never dispatched"
  // sentinel.
  ManualClock clock_{common::kSecond, /*auto_advance=*/true};
  std::shared_ptr<qrmi::LocalEmulatorQrmi> resource_;
  std::unique_ptr<MiddlewareDaemon> daemon_;
  std::unique_ptr<net::HttpClient> admin_;
};

TEST_F(EtaFixture, SubmitEmbedsEtaAndEndpointTracksQueuePosition) {
  // Park the lanes so both jobs stay queued and the snapshot is stable.
  daemon_->dispatcher().drain();
  auto alice = user_client("alice");
  const Json first = submit(alice);
  ASSERT_TRUE(first.contains("eta")) << first.dump();
  const Json& eta = first.at_or_null("eta");
  EXPECT_EQ(eta.at_or_null("state").as_string(), "queued");
  // Global drain: no active lane can serve the job -> unbounded window.
  EXPECT_FALSE(eta.at_or_null("bounded").as_bool());
  EXPECT_EQ(eta.at_or_null("active_lanes").as_int(), 0);
  EXPECT_EQ(eta.at_or_null("start").at_or_null("latest_ns").as_int(), -1);
  EXPECT_GE(eta.at_or_null("start").at_or_null("earliest_ns").as_int(), 0);
  // The drain shows up as a live pressure signal.
  bool drained_pressure = false;
  for (const auto& p : eta.at_or_null("pressures").as_array()) {
    if (p.at_or_null("cause").as_string() == "resource_drain") {
      drained_pressure = true;
    }
  }
  EXPECT_TRUE(drained_pressure) << first.dump();

  const auto second_id =
      submit(alice).get_int("job_id").value();
  const Json behind = get_json(
      alice, "/v1/jobs/" + std::to_string(second_id) + "/eta");
  EXPECT_EQ(behind.at_or_null("jobs_ahead").as_int(), 1);
  EXPECT_GE(behind.at_or_null("batches_ahead").as_int(), 1);

  daemon_->dispatcher().resume();
  ASSERT_TRUE(daemon_->dispatcher().wait(second_id).ok());
  // Terminal jobs report actuals at full confidence.
  const Json done = get_json(
      alice, "/v1/jobs/" + std::to_string(second_id) + "/eta");
  EXPECT_EQ(done.at_or_null("state").as_string(), "completed");
  EXPECT_DOUBLE_EQ(done.at_or_null("confidence").as_double(), 1.0);
  const auto start_ns =
      done.at_or_null("start").at_or_null("earliest_ns").as_int();
  const auto finish_ns =
      done.at_or_null("finish").at_or_null("latest_ns").as_int();
  EXPECT_GT(start_ns, 0);
  EXPECT_GE(finish_ns, start_ns);
  EXPECT_EQ(done.at_or_null("start").at_or_null("latest_ns").as_int(),
            start_ns);
}

TEST_F(EtaFixture, QueuedEtaIsBoundedWithLiveLanes) {
  // A queued job with healthy lanes gets a finite window: park the lane by
  // keeping a long-running job in front instead of draining.
  auto alice = user_client("alice");
  const auto front = submit(alice, 200).get_int("job_id").value();
  const auto back_id = submit(alice, 20).get_int("job_id").value();
  const Json eta =
      get_json(alice, "/v1/jobs/" + std::to_string(back_id) + "/eta");
  const std::string state = eta.at_or_null("state").as_string();
  if (state == "queued") {
    EXPECT_TRUE(eta.at_or_null("bounded").as_bool());
    EXPECT_EQ(eta.at_or_null("active_lanes").as_int(), 1);
    const auto now = eta.at_or_null("computed_at_ns").as_int();
    const auto latest =
        eta.at_or_null("start").at_or_null("latest_ns").as_int();
    EXPECT_GT(latest, now);
    EXPECT_GE(eta.at_or_null("finish").at_or_null("latest_ns").as_int(),
              latest);
    EXPECT_GT(eta.at_or_null("batch_latency_ns").as_int(), 0);
  }
  ASSERT_TRUE(daemon_->dispatcher().wait(front).ok());
  ASSERT_TRUE(daemon_->dispatcher().wait(back_id).ok());
}

TEST_F(EtaFixture, RateLimited429CarriesRetryAfterHeader) {
  daemon_->dispatcher().drain();  // no execution sleeps: time stands still
  accounting::RateLimitOptions strict;
  strict.submit_per_sec = 2.0;
  strict.submit_burst = 3.0;
  daemon_->accounting().rate_limiter().set_override("hog", strict);

  auto hog = user_client("hog");
  std::uint64_t queued_id = 0;
  for (int i = 0; i < 3; ++i) {
    queued_id = static_cast<std::uint64_t>(
        submit(hog).get_int("job_id").value());
  }
  Json body = Json::object();
  body["payload"] = small_payload().to_json();
  auto limited = hog.post("/v1/jobs", body.dump());
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited.value().status, 429) << limited.value().body;
  // The token bucket refills at 2/s, so a whole token is 500ms away —
  // rounded up to whole seconds for the header.
  const auto header = limited.value().headers.find("Retry-After");
  ASSERT_NE(header, limited.value().headers.end());
  EXPECT_EQ(header->second, "1");

  // The ETA endpoint reports the same backpressure as a rate_limited
  // pressure carrying the un-rounded refill time.
  const Json eta =
      get_json(hog, "/v1/jobs/" + std::to_string(queued_id) + "/eta");
  bool saw_rate_pressure = false;
  for (const auto& p : eta.at_or_null("pressures").as_array()) {
    if (p.at_or_null("cause").as_string() != "rate_limited") continue;
    saw_rate_pressure = true;
    const auto ns = p.at_or_null("duration_ns").as_int();
    EXPECT_GT(ns, 0);
    EXPECT_LE(ns, 1 * kSecond);  // consistent with the rounded-up header
  }
  EXPECT_TRUE(saw_rate_pressure) << eta.dump();
  // ...and explain files it as a zero-duration informational cause (the
  // limiter charged none of THIS job's wait — it was admitted).
  const Json report =
      get_json(hog, "/v1/jobs/" + std::to_string(queued_id) + "/explain");
  bool saw_rate_cause = false;
  for (const auto& cause : report.at_or_null("causes").as_array()) {
    if (cause.at_or_null("cause").as_string() != "rate_limited") continue;
    saw_rate_cause = true;
    EXPECT_EQ(cause.at_or_null("duration_ns").as_int(), 0);
  }
  EXPECT_TRUE(saw_rate_cause) << report.dump();
  daemon_->dispatcher().resume();
}

TEST_F(EtaFixture, ExplainPartitionsWaitIntoCauses) {
  daemon_->dispatcher().drain();
  auto alice = user_client("alice");
  const auto id = submit(alice).get_int("job_id").value();
  clock_.advance(5 * kSecond);

  const std::string path = "/v1/jobs/" + std::to_string(id) + "/explain";
  const Json open = get_json(alice, path);
  EXPECT_EQ(open.at_or_null("state").as_string(), "queued");
  EXPECT_FALSE(open.at_or_null("wait_closed").as_bool());
  // The partition property: causes sum to the observed wait exactly.
  EXPECT_EQ(open.at_or_null("causes_total_ns").as_int(),
            open.at_or_null("observed_wait_ns").as_int());
  EXPECT_GE(open.at_or_null("observed_wait_ns").as_int(), 5 * kSecond);
  // The whole wait so far happened under a global drain.
  bool outage_charged = false;
  for (const auto& cause : open.at_or_null("causes").as_array()) {
    if (cause.at_or_null("cause").as_string() == "resource_drain") {
      outage_charged = cause.at_or_null("duration_ns").as_int() > 0;
    }
  }
  EXPECT_TRUE(outage_charged) << open.dump();

  daemon_->dispatcher().resume();
  ASSERT_TRUE(daemon_->dispatcher().wait(id).ok());
  const Json closed = get_json(alice, path);
  EXPECT_TRUE(closed.at_or_null("wait_closed").as_bool());
  EXPECT_EQ(closed.at_or_null("causes_total_ns").as_int(),
            closed.at_or_null("observed_wait_ns").as_int());
  EXPECT_GE(closed.at_or_null("observed_wait_ns").as_int(), 5 * kSecond);
}

TEST_F(EtaFixture, EtaAndExplainEnforceOwnership) {
  daemon_->dispatcher().drain();
  auto alice = user_client("alice");
  const auto id = submit(alice).get_int("job_id").value();
  auto mallory = user_client("mallory");
  for (const char* suffix : {"/eta", "/explain"}) {
    const std::string path =
        "/v1/jobs/" + std::to_string(id) + suffix;
    // Cross-user access answers 401, same as every other job endpoint.
    EXPECT_EQ(mallory.get(path).value().status, 401) << path;
    EXPECT_EQ(alice.get(path).value().status, 200) << path;
    // Unknown jobs are a 404, not a leak.
    EXPECT_EQ(alice.get("/v1/jobs/999999" + std::string(suffix))
                  .value()
                  .status,
              404);
  }
  // Anonymous callers bounce at authentication.
  net::HttpClient anon(admin_->port());
  EXPECT_EQ(anon.get("/v1/jobs/" + std::to_string(id) + "/eta")
                .value()
                .status,
            401);
  daemon_->dispatcher().resume();
}

TEST_F(EtaFixture, ProfileEndpointsServeStacksAndBaseline) {
  net::HttpClient anon(admin_->port());
  EXPECT_EQ(anon.get("/admin/profile").value().status, 401);

  // Queue both jobs under a drain, then let them run: the queued stretch
  // gives every trace nonzero queue_wait self-time even on virtual time.
  // The latency hook does the same for qrmi_execute — without it an
  // execution can take 0 virtual ns and the zero-self stack would be
  // absent from the collapsed profile.
  qrmi::EmulatorFaultHooks hooks;
  hooks.latency = [](std::uint64_t) -> common::DurationNs {
    return common::kMillisecond;
  };
  resource_->set_fault_hooks(std::move(hooks), &clock_);
  daemon_->dispatcher().drain();
  auto alice = user_client("alice");
  const auto first = submit(alice).get_int("job_id").value();
  const auto second = submit(alice).get_int("job_id").value();
  clock_.advance(2 * kSecond);
  daemon_->dispatcher().resume();
  ASSERT_TRUE(daemon_->dispatcher().wait(first).ok());
  ASSERT_TRUE(daemon_->dispatcher().wait(second).ok());
  const Json profile = get_json(*admin_, "/admin/profile");
  EXPECT_GE(profile.at_or_null("jobs").as_int(), 2);
  EXPECT_FALSE(profile.at_or_null("baseline").as_bool());
  const std::string collapsed =
      profile.at_or_null("profile").get_string("collapsed").value();
  // Collapsed stacks name the pipeline stages, one "path value" per line.
  EXPECT_NE(collapsed.find("qrmi_execute"), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("queue_wait"), std::string::npos);
  EXPECT_GT(profile.at_or_null("profile").at_or_null("total_ns").as_int(), 0);
  // Per-tenant and per-resource splits carry the same format.
  EXPECT_TRUE(profile.at_or_null("by_user").contains("alice"));
  EXPECT_TRUE(profile.at_or_null("by_resource").contains("emu0"));

  auto recorded = admin_->post("/admin/profile/baseline", "");
  ASSERT_TRUE(recorded.ok());
  ASSERT_EQ(recorded.value().status, 200);
  const Json baseline = Json::parse(recorded.value().body).value();
  EXPECT_TRUE(baseline.at_or_null("recorded").as_bool());
  EXPECT_GE(baseline.at_or_null("jobs").as_int(), 2);

  // With a baseline recorded over the same jobs nothing regresses yet.
  const Json again = get_json(*admin_, "/admin/profile?threshold=0.05");
  EXPECT_TRUE(again.at_or_null("baseline").as_bool());
  EXPECT_TRUE(again.at_or_null("regressions").is_array());
  EXPECT_TRUE(again.at_or_null("regressions").as_array().empty());
}

TEST_F(EtaFixture, TsdbRateAggregationOnTheQueryRoute) {
  auto* pipeline = daemon_->observability();
  ASSERT_NE(pipeline, nullptr);
  common::TimeNs deadline = 0;
  for (int i = 0; i < 4; ++i) {
    deadline += kSecond;
    clock_.advance_to(deadline);
    pipeline->tick_at(deadline);
  }
  const Json out = get_json(
      *admin_,
      "/admin/tsdb/query?series=broker_resource_healthy,resource=emu0"
      "&window=" + std::to_string(2 * kSecond) + "&agg=rate");
  ASSERT_TRUE(out.at_or_null("windows").is_array());
  EXPECT_FALSE(out.at_or_null("windows").as_array().empty());
  // A constant gauge has zero per-second increase.
  for (const auto& window : out.at_or_null("windows").as_array()) {
    EXPECT_DOUBLE_EQ(window.at_or_null("value").as_double(), 0.0);
  }
  // The agg whitelist advertises rate.
  auto bad = admin_->get("/admin/tsdb/query?series=m&window=1000&agg=med");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, 400);
  EXPECT_NE(bad.value().body.find("rate"), std::string::npos);
}

TEST_F(EtaFixture, EventsSinceBeyondHeadReturnsEmptyWithCursor) {
  const Json tail = get_json(*admin_, "/admin/events");
  const auto head = tail.at_or_null("last_seq").as_int();
  // A cursor past the head is a valid "nothing new yet" poll, not an
  // error; the response still carries the head cursor to resume from.
  const Json beyond = get_json(
      *admin_, "/admin/events?since=" + std::to_string(head + 1000));
  EXPECT_TRUE(beyond.at_or_null("events").as_array().empty());
  EXPECT_EQ(beyond.at_or_null("last_seq").as_int(), head);
}

// ---- exactness: the one-pass jobs-ahead aggregates vs the sorted queue ----
//
// estimate() and explain() aggregate over the jobs ahead in one unsorted
// pass (Dispatcher::for_each_ahead). The reference recomputes the same
// numbers from the full, sorted pending_snapshot(): a job's position is
// its index there, and everything before it is "ahead".

struct EtaCase {
  std::uint64_t seed;
  std::size_t shards;
  bool shortest_first;
};

class EtaExactness : public ::testing::TestWithParam<EtaCase> {};

TEST_P(EtaExactness, AggregatesMatchSortedSnapshot) {
  const EtaCase param = GetParam();
  common::Rng rng(param.seed);
  ManualClock clock(0);
  auto broker = std::make_shared<broker::ResourceBroker>(
      broker::BrokerOptions{}, &clock, nullptr);
  for (const char* name : {"emu0", "emu1"}) {
    ASSERT_TRUE(
        broker->add(name, qrmi::LocalEmulatorQrmi::create(name, "sv").value())
            .ok());
  }
  accounting::AccountingManager accounting(accounting::AccountingOptions{},
                                           &clock, nullptr);
  QueuePolicy policy;
  policy.submit_shards = param.shards;
  policy.shortest_first_within_class = param.shortest_first;
  policy.non_production_batch_shots = 25;
  policy.age_to_boost = 10 * kSecond;
  Dispatcher dispatcher(broker, policy, &clock, nullptr, nullptr,
                        &accounting);
  dispatcher.drain();  // everything stays queued: the queue is the input
  EtaEngine eta({.dispatcher = &dispatcher,
                 .broker = broker.get(),
                 .accounting = &accounting,
                 .tsdb = nullptr,
                 .events = nullptr,
                 .clock = &clock,
                 .policy = policy},
                EtaOptions{});

  // Six tenants: u0-u2 carry distinct usage (untied fair-share factors),
  // u3-u5 none at all (tied factors, so order falls through to
  // shortest-first and seq).
  for (int u = 0; u < 3; ++u) {
    accounting.charge_batch("u" + std::to_string(u),
                            static_cast<std::uint64_t>(100 * (u + 1)),
                            (u + 1) * common::kMillisecond, 0);
  }
  std::vector<std::uint64_t> ids;
  const int count = static_cast<int>(rng.uniform_int(25, 70));
  for (int i = 0; i < count; ++i) {
    clock.advance(rng.uniform_int(0, 4) * kSecond / 2);
    Dispatcher::SubmitOptions options;
    if (rng.bernoulli(0.3)) {
      options.resource = rng.bernoulli(0.5) ? "emu0" : "emu1";
    }
    const std::string user = "u" + std::to_string(rng.uniform_int(0, 5));
    const auto cls = static_cast<JobClass>(rng.uniform_int(0, 2));
    const auto shots = static_cast<std::uint64_t>(25 * rng.uniform_int(1, 4));
    auto id = dispatcher.submit(
        common::SessionId{static_cast<std::uint64_t>(i + 1)}, user, cls,
        std::make_shared<const Payload>(small_payload(shots)), options);
    ASSERT_TRUE(id.ok()) << id.error().to_string();
    ids.push_back(id.value());
  }

  const auto batches_of = [&](JobClass cls, std::uint64_t shots) {
    if (cls == JobClass::kProduction) return std::uint64_t{1};
    return (shots + 24) / 25;
  };
  // Probe before and after aging moves jobs across class boundaries.
  for (const common::TimeNs later : {common::TimeNs{0}, 7 * kSecond,
                                     policy.age_to_boost}) {
    clock.advance(later);
    const auto snap = dispatcher.pending_snapshot();
    ASSERT_EQ(snap.entries.size(), ids.size());
    std::size_t fair_demoted_jobs = 0;
    for (std::size_t index = 0; index < snap.entries.size(); ++index) {
      const auto& me = snap.entries[index];
      std::uint64_t batches_ahead = 0;
      std::size_t better_ranked = 0;
      std::map<std::string, double> outranking;
      for (std::size_t i = 0; i < index; ++i) {
        const auto& entry = snap.entries[i];
        batches_ahead += batches_of(entry.cls, entry.remaining_shots);
        if (entry.user != me.user && entry.hook > me.hook + 1e-9) {
          ++better_ranked;
          auto [it, inserted] = outranking.try_emplace(entry.user, entry.hook);
          if (!inserted) it->second = std::max(it->second, entry.hook);
        }
      }
      if (better_ranked > 0) ++fair_demoted_jobs;

      auto estimate = eta.estimate(me.job_id);
      ASSERT_TRUE(estimate.ok());
      EXPECT_EQ(estimate.value().jobs_ahead, index) << "job " << me.job_id;
      EXPECT_EQ(estimate.value().batches_ahead, batches_ahead);
      std::string demotion;
      for (const auto& pressure : estimate.value().pressures) {
        if (pressure.name == "fair_share_demotion") demotion = pressure.detail;
      }
      EXPECT_EQ(demotion,
                better_ranked > 0
                    ? common::format(
                          "%zu job(s) ahead hold better fair-share rank",
                          better_ranked)
                    : std::string());

      // The explain partition from the same position: no outage (no event
      // log), the fair-share slice proportional to outranked positions,
      // and the rest queue depth.
      auto report = eta.explain(me.job_id);
      ASSERT_TRUE(report.ok());
      const common::DurationNs observed = snap.now - me.submit_time;
      common::DurationNs fair = 0;
      if (better_ranked > 0 && index > 0) {
        fair = std::min<common::DurationNs>(
            static_cast<common::DurationNs>(
                static_cast<double>(observed) *
                static_cast<double>(better_ranked) /
                static_cast<double>(index)),
            observed);
      }
      std::vector<telemetry::WaitCause> expected;
      if (fair > 0) {
        std::string detail = "outranked by ";
        std::size_t listed = 0;
        for (const auto& [user, hook] : outranking) {
          if (listed == 3) break;
          if (listed > 0) detail += ", ";
          detail += user;
          if (me.hook > 0.0) {
            detail += common::format(" (x%.2f)", hook / me.hook);
          }
          ++listed;
        }
        expected.push_back({"fair_share_demotion", fair, detail});
      }
      expected.push_back(
          {"queue_depth", observed - fair,
           common::format("%zu job(s) ahead in dispatch order", index)});
      ASSERT_EQ(report.value().causes.size(), expected.size())
          << report.value().to_json().dump();
      for (std::size_t c = 0; c < expected.size(); ++c) {
        EXPECT_EQ(report.value().causes[c].name, expected[c].name);
        EXPECT_EQ(report.value().causes[c].duration, expected[c].duration);
        EXPECT_EQ(report.value().causes[c].detail, expected[c].detail);
      }
    }
    // The workload must exercise the fair-share branch it checks.
    EXPECT_GT(fair_demoted_jobs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededQueues, EtaExactness,
    ::testing::Values(EtaCase{1, 1, false}, EtaCase{1, 8, false},
                      EtaCase{2, 1, true}, EtaCase{2, 8, true},
                      EtaCase{3, 8, false}, EtaCase{4, 1, true}));

TEST(EventCursorTest, CursorSurvivesRingEviction) {
  ManualClock clock(0, /*auto_advance=*/true);
  auto resource = qrmi::LocalEmulatorQrmi::create("emu0", "sv").value();
  DaemonOptions options;
  options.admin_key = "root";
  options.telemetry.event_capacity = 8;
  options.telemetry.observability.scrape_thread = false;
  MiddlewareDaemon daemon(options, resource, nullptr, &clock);
  const auto port = daemon.start().value();
  net::HttpClient admin(port);
  admin.set_default_header("X-Admin-Key", "root");

  // Each drain/resume cycle logs drain_all + resume_all: 12 events into
  // an 8-slot ring evicts the oldest four.
  for (int i = 0; i < 6; ++i) {
    daemon.dispatcher().drain();
    daemon.dispatcher().resume();
  }
  auto response = admin.get("/admin/events?since=0");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  const Json all = Json::parse(response.value().body).value();
  const auto& events = all.at_or_null("events").as_array();
  ASSERT_FALSE(events.empty());
  ASSERT_LE(events.size(), 8u);
  const auto oldest = events.front().at_or_null("seq").as_int();
  const auto head = all.at_or_null("last_seq").as_int();
  ASSERT_GT(oldest, 1);  // the ring really evicted

  // A stale cursor pointing at an evicted sequence resumes from the
  // oldest retained event instead of erroring or duplicating.
  const auto stale = admin.get("/admin/events?since=1");
  ASSERT_EQ(stale.value().status, 200);
  const Json resumed = Json::parse(stale.value().body).value();
  EXPECT_EQ(resumed.at_or_null("events").as_array().front()
                .at_or_null("seq").as_int(),
            oldest);
  EXPECT_EQ(resumed.at_or_null("last_seq").as_int(), head);

  // And a cursor at (or past) the head after the wrap reads empty.
  for (const auto since : {head, head + 50}) {
    const auto empty =
        admin.get("/admin/events?since=" + std::to_string(since));
    ASSERT_EQ(empty.value().status, 200);
    EXPECT_TRUE(Json::parse(empty.value().body)
                    .value()
                    .at_or_null("events")
                    .as_array()
                    .empty());
  }
}

}  // namespace
}  // namespace qcenv::daemon

// ResourceBroker: policies, health/backoff, drain, and multi-resource
// dispatch with failover through the Dispatcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "broker/broker.hpp"
#include "daemon/dispatcher.hpp"
#include "qrmi/local_emulator.hpp"

namespace qcenv::broker {
namespace {

using common::ManualClock;
using common::WallClock;
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

/// Minimal controllable resource for broker unit tests: settable health and
/// device spec, no real execution.
class FakeQrmi final : public qrmi::Qrmi {
 public:
  FakeQrmi(std::string id, quantum::DeviceSpec spec)
      : id_(std::move(id)), spec_(std::move(spec)) {}

  std::string resource_id() const override { return id_; }
  qrmi::ResourceType type() const override {
    return qrmi::ResourceType::kLocalEmulator;
  }
  common::Result<bool> is_accessible() override {
    ++probes;
    return accessible.load();
  }
  common::Result<std::string> acquire() override { return std::string("t"); }
  common::Status release(const std::string&) override {
    return common::Status::ok_status();
  }
  common::Result<std::string> task_start(const quantum::Payload&) override {
    return start_error;
  }
  common::Result<qrmi::TaskStatus> task_status(const std::string&) override {
    return common::err::not_found("no tasks");
  }
  common::Result<quantum::Samples> task_result(const std::string&) override {
    return common::err::not_found("no tasks");
  }
  common::Status task_stop(const std::string&) override {
    return common::err::not_found("no tasks");
  }
  common::Result<quantum::DeviceSpec> target() override { return spec_; }
  common::Json metadata() override { return common::Json::object(); }

  std::atomic<bool> accessible{true};
  std::atomic<int> probes{0};
  /// What task_start returns (fakes never execute).
  common::Error start_error =
      common::err::unavailable("fake resource does not execute");

 private:
  std::string id_;
  quantum::DeviceSpec spec_;
};

std::shared_ptr<FakeQrmi> fake(const std::string& id,
                               quantum::DeviceSpec spec =
                                   quantum::DeviceSpec::emulator_default()) {
  return std::make_shared<FakeQrmi>(id, std::move(spec));
}

TEST(PolicyTest, StringsRoundTrip) {
  const SchedulingPolicy policies[] = {SchedulingPolicy::kRoundRobin,
                                       SchedulingPolicy::kLeastLoaded,
                                       SchedulingPolicy::kCalibrationAware};
  for (const auto policy : policies) {
    auto back = policy_from_string(to_string(policy));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), policy);
  }
  auto bad = policy_from_string("random");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message().find("least_loaded"), std::string::npos);
}

TEST(PolicyTest, CalibrationScoreRanksDegradedSpecsLower) {
  auto pristine = quantum::DeviceSpec::emulator_default();
  auto degraded = pristine;
  degraded.calibration.readout_p10 = 0.3;
  degraded.calibration.dephasing_rate = 0.2;
  EXPECT_GT(calibration_score(pristine), calibration_score(degraded));

  auto big = pristine;
  big.max_qubits = 64;
  auto small = pristine;
  small.max_qubits = 8;
  EXPECT_GT(calibration_score(big), calibration_score(small));
}

TEST(BrokerTest, RoundRobinCyclesInRegistrationOrder) {
  ManualClock clock;
  ResourceBroker broker({.default_policy = SchedulingPolicy::kRoundRobin},
                        &clock, nullptr);
  ASSERT_TRUE(broker.add("a", fake("a")).ok());
  ASSERT_TRUE(broker.add("b", fake("b")).ok());
  ASSERT_TRUE(broker.add("c", fake("c")).ok());
  std::vector<std::string> picked;
  for (int i = 0; i < 6; ++i) picked.push_back(broker.pick().value());
  EXPECT_EQ(picked,
            (std::vector<std::string>{"a", "b", "c", "a", "b", "c"}));
}

TEST(BrokerTest, LeastLoadedFollowsBoundJobs) {
  ManualClock clock;
  ResourceBroker broker({.default_policy = SchedulingPolicy::kLeastLoaded},
                        &clock, nullptr);
  ASSERT_TRUE(broker.add("a", fake("a")).ok());
  ASSERT_TRUE(broker.add("b", fake("b")).ok());
  // Bound counts break ties in registration order, then track load.
  EXPECT_EQ(broker.pick().value(), "a");
  EXPECT_EQ(broker.pick().value(), "b");
  EXPECT_EQ(broker.pick().value(), "a");
  broker.unbind("a");
  broker.unbind("a");  // a: 0 bound, b: 1 bound
  EXPECT_EQ(broker.pick().value(), "a");
}

TEST(BrokerTest, CalibrationAwarePrefersBestScore) {
  ManualClock clock;
  auto good_spec = quantum::DeviceSpec::emulator_default();
  auto bad_spec = good_spec;
  bad_spec.calibration.readout_p10 = 0.4;
  ResourceBroker broker(
      {.default_policy = SchedulingPolicy::kCalibrationAware}, &clock,
      nullptr);
  ASSERT_TRUE(broker.add("noisy", fake("noisy", bad_spec)).ok());
  ASSERT_TRUE(broker.add("clean", fake("clean", good_spec)).ok());
  EXPECT_EQ(broker.pick().value(), "clean");
  EXPECT_EQ(broker.pick().value(), "clean");
}

TEST(BrokerTest, ResourceHintPinsPlacement) {
  ManualClock clock;
  ResourceBroker broker({}, &clock, nullptr);
  ASSERT_TRUE(broker.add("a", fake("a")).ok());
  ASSERT_TRUE(broker.add("b", fake("b")).ok());
  ResourceBroker::PlacementRequest pin_b;
  pin_b.resource_hint = "b";
  EXPECT_EQ(broker.pick(pin_b).value(), "b");

  ResourceBroker::PlacementRequest pin_z;
  pin_z.resource_hint = "z";
  auto unknown = broker.pick(pin_z);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code(), common::ErrorCode::kNotFound);
  // User-centric diagnostics: the error lists what IS available.
  EXPECT_NE(unknown.error().message().find("a, b"), std::string::npos);

  ASSERT_TRUE(broker.drain("b").ok());
  auto draining = broker.pick(pin_b);
  ASSERT_FALSE(draining.ok());
  EXPECT_EQ(draining.error().code(), common::ErrorCode::kUnavailable);
}

TEST(BrokerTest, DrainExcludesAndResumeRestores) {
  ManualClock clock;
  ResourceBroker broker({.default_policy = SchedulingPolicy::kRoundRobin},
                        &clock, nullptr);
  ASSERT_TRUE(broker.add("a", fake("a")).ok());
  ASSERT_TRUE(broker.add("b", fake("b")).ok());
  ASSERT_TRUE(broker.drain("a").ok());
  EXPECT_TRUE(broker.draining("a"));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(broker.pick().value(), "b");
  ASSERT_TRUE(broker.resume("a").ok());
  std::vector<std::string> picked;
  for (int i = 0; i < 2; ++i) picked.push_back(broker.pick().value());
  EXPECT_NE(std::find(picked.begin(), picked.end(), "a"), picked.end());
  EXPECT_FALSE(broker.drain("nope").ok());
}

TEST(BrokerTest, FailureArmsBackoffAndRecoveryProbes) {
  ManualClock clock;
  BrokerOptions options;
  options.initial_backoff = 100 * common::kMillisecond;
  options.max_backoff = common::kSecond;
  ResourceBroker broker(options, &clock, nullptr);
  auto resource = fake("a");
  ASSERT_TRUE(broker.add("a", resource).ok());
  EXPECT_TRUE(broker.healthy("a"));

  broker.on_failure("a", common::err::unavailable("node lost"));
  EXPECT_FALSE(broker.healthy("a"));
  const int probes_before = resource->probes.load();
  // Within the backoff window no probe happens even if the node is back.
  EXPECT_FALSE(broker.check_health("a"));
  EXPECT_EQ(resource->probes.load(), probes_before);
  // After the backoff elapses the probe runs and the resource recovers.
  clock.advance(150 * common::kMillisecond);
  EXPECT_TRUE(broker.check_health("a"));
  EXPECT_TRUE(broker.healthy("a"));
}

TEST(BrokerTest, NoHealthyResourceErrorNamesFleetState) {
  ManualClock clock;
  ResourceBroker broker({}, &clock, nullptr);
  auto down = fake("a");
  down->accessible = false;
  ASSERT_TRUE(broker.add("a", down).ok());
  ASSERT_TRUE(broker.add("b", fake("b")).ok());
  ASSERT_TRUE(broker.drain("b").ok());
  auto pick = broker.pick();
  ASSERT_FALSE(pick.ok());
  EXPECT_EQ(pick.error().code(), common::ErrorCode::kUnavailable);
  EXPECT_NE(pick.error().message().find("a=down"), std::string::npos);
  EXPECT_NE(pick.error().message().find("b=draining"), std::string::npos);

  ResourceBroker empty({}, &clock, nullptr);
  EXPECT_EQ(empty.pick().error().code(),
            common::ErrorCode::kFailedPrecondition);
}

TEST(BrokerTest, SnapshotTracksAccounting) {
  ManualClock clock;
  ResourceBroker broker({}, &clock, nullptr);
  ASSERT_TRUE(broker.add("a", fake("a")).ok());
  EXPECT_FALSE(broker.add("a", fake("a")).ok());  // duplicate name
  broker.on_dispatch("a", 30);
  auto mid = broker.snapshot();
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].inflight_batches, 1u);
  broker.on_success("a", 30);
  auto done = broker.snapshot();
  EXPECT_EQ(done[0].inflight_batches, 0u);
  EXPECT_EQ(done[0].batches_done, 1u);
  EXPECT_EQ(done[0].shots_done, 30u);
  EXPECT_GT(done[0].score, 0.0);
}

// ---- Multi-resource dispatch through the Dispatcher -----------------------

TEST(BrokerDispatchTest, JobsExecuteConcurrentlyAcrossResources) {
  WallClock clock;
  BrokerOptions options;
  options.default_policy = SchedulingPolicy::kRoundRobin;
  auto broker = std::make_shared<ResourceBroker>(options, &clock, nullptr);
  ASSERT_TRUE(
      broker->add("emu0",
                  qrmi::LocalEmulatorQrmi::create("emu0", "sv").value())
          .ok());
  ASSERT_TRUE(
      broker->add("emu1",
                  qrmi::LocalEmulatorQrmi::create("emu1", "sv").value())
          .ok());
  daemon::QueuePolicy queue_policy;
  queue_policy.non_production_batch_shots = 0;
  daemon::Dispatcher dispatcher(broker, queue_policy, &clock, nullptr);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(dispatcher.submit(common::SessionId{1}, "u",
                                    daemon::JobClass::kDevelopment,
                                    small_payload(30)));
  }
  for (const auto id : ids) {
    auto samples = dispatcher.wait(id, 30 * common::kSecond);
    ASSERT_TRUE(samples.ok()) << samples.error().to_string();
    EXPECT_EQ(samples.value().total_shots(), 30u);
  }
  // Round-robin placement: both fleet members did real work.
  for (const auto& status : broker->snapshot()) {
    EXPECT_GT(status.batches_done, 0u) << status.name;
  }
}

TEST(BrokerDispatchTest, FailoverCompletesJobOnSurvivorWithAllShots) {
  WallClock clock;
  BrokerOptions options;
  options.initial_backoff = 50 * common::kMillisecond;
  auto broker = std::make_shared<ResourceBroker>(options, &clock, nullptr);
  auto doomed = qrmi::LocalEmulatorQrmi::create("doomed", "sv").value();
  auto survivor = qrmi::LocalEmulatorQrmi::create("survivor", "sv").value();
  // Each batch takes 5 ms on the doomed resource, so the 20-batch job is
  // still mid-flight when the loop below sees its first shots done.
  qrmi::EmulatorFaultHooks slow;
  slow.latency = [](std::uint64_t) { return 5 * common::kMillisecond; };
  doomed->set_fault_hooks(std::move(slow), &clock);
  ASSERT_TRUE(broker->add("doomed", doomed).ok());
  ASSERT_TRUE(broker->add("survivor", survivor).ok());
  daemon::QueuePolicy queue_policy;
  queue_policy.non_production_batch_shots = 20;  // 400 shots -> 20 batches
  daemon::Dispatcher dispatcher(broker, queue_policy, &clock, nullptr);

  daemon::Dispatcher::SubmitOptions pin;
  pin.resource = "doomed";
  auto id = dispatcher.submit(common::SessionId{1}, "u",
                              daemon::JobClass::kDevelopment,
                              small_payload(400), pin);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(dispatcher.query(id.value()).value().resource, "doomed");

  // Kill the resource once the job is demonstrably mid-flight.
  for (int i = 0; i < 1000; ++i) {
    if (dispatcher.query(id.value()).value().shots_done > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(dispatcher.query(id.value()).value().shots_done, 0u);
  doomed->set_offline(true);

  auto samples = dispatcher.wait(id.value(), 60 * common::kSecond);
  ASSERT_TRUE(samples.ok()) << samples.error().to_string();
  // Zero lost shots: every one of the 400 shots was executed somewhere.
  EXPECT_EQ(samples.value().total_shots(), 400u);
  const auto job = dispatcher.query(id.value()).value();
  EXPECT_EQ(job.state, daemon::DaemonJobState::kCompleted);
  EXPECT_EQ(job.resource, "survivor");
  EXPECT_FALSE(broker->healthy("doomed"));
}

TEST(BrokerDispatchTest, UnplacedJobRunsOnceFleetRecovers) {
  WallClock clock;
  BrokerOptions options;
  options.initial_backoff = 20 * common::kMillisecond;
  auto broker = std::make_shared<ResourceBroker>(options, &clock, nullptr);
  auto flaky = qrmi::LocalEmulatorQrmi::create("flaky", "sv").value();
  flaky->set_offline(true);  // fleet is down at submit time
  ASSERT_TRUE(broker->add("flaky", flaky).ok());
  daemon::Dispatcher dispatcher(broker, {}, &clock, nullptr);

  const auto id = dispatcher.submit(common::SessionId{1}, "u",
                                    daemon::JobClass::kDevelopment,
                                    small_payload(20));
  EXPECT_TRUE(dispatcher.query(id).value().resource.empty());
  flaky->set_offline(false);
  auto samples = dispatcher.wait(id, 30 * common::kSecond);
  ASSERT_TRUE(samples.ok()) << samples.error().to_string();
  EXPECT_EQ(dispatcher.query(id).value().resource, "flaky");
}

TEST(BrokerDispatchTest, DrainResourceMovesQueuedJobs) {
  WallClock clock;
  BrokerOptions options;
  options.default_policy = SchedulingPolicy::kRoundRobin;
  auto broker = std::make_shared<ResourceBroker>(options, &clock, nullptr);
  ASSERT_TRUE(
      broker->add("emu0",
                  qrmi::LocalEmulatorQrmi::create("emu0", "sv").value())
          .ok());
  ASSERT_TRUE(
      broker->add("emu1",
                  qrmi::LocalEmulatorQrmi::create("emu1", "sv").value())
          .ok());
  daemon::Dispatcher dispatcher(broker, {}, &clock, nullptr);
  dispatcher.drain();  // hold dispatch while we stage the queue

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(dispatcher.submit(common::SessionId{1}, "u",
                                    daemon::JobClass::kDevelopment,
                                    small_payload(10)));
  }
  ASSERT_TRUE(dispatcher.drain_resource("emu0").ok());
  for (const auto id : ids) {
    EXPECT_EQ(dispatcher.query(id).value().resource, "emu1");
  }
  dispatcher.resume();
  for (const auto id : ids) {
    ASSERT_TRUE(dispatcher.wait(id, 30 * common::kSecond).ok());
  }
  for (const auto& status : broker->snapshot()) {
    if (status.name == "emu0") {
      EXPECT_EQ(status.batches_done, 0u);
    } else {
      EXPECT_GT(status.batches_done, 0u);
    }
  }
}

TEST(BrokerDispatchTest, RejectedUnpinnedJobRePlacesInsteadOfFailing) {
  // A spec rejection in a heterogeneous fleet is a placement problem, not a
  // job problem: the broker retries the job on another resource.
  WallClock clock;
  BrokerOptions options;
  options.default_policy = SchedulingPolicy::kRoundRobin;
  auto broker = std::make_shared<ResourceBroker>(options, &clock, nullptr);
  auto picky = fake("picky");
  picky->start_error = common::err::invalid_argument("unsupported payload");
  ASSERT_TRUE(broker->add("picky", picky).ok());
  ASSERT_TRUE(
      broker->add("capable",
                  qrmi::LocalEmulatorQrmi::create("capable", "sv").value())
          .ok());
  daemon::Dispatcher dispatcher(broker, {}, &clock, nullptr);

  // Freeze dispatch while asserting the initial placement: otherwise the
  // lane can reject and re-place the job before the query runs.
  dispatcher.drain();
  const auto id = dispatcher.submit(common::SessionId{1}, "u",
                                    daemon::JobClass::kDevelopment,
                                    small_payload(20));
  ASSERT_EQ(dispatcher.query(id).value().resource, "picky");
  dispatcher.resume();
  auto samples = dispatcher.wait(id, 30 * common::kSecond);
  ASSERT_TRUE(samples.ok()) << samples.error().to_string();
  EXPECT_EQ(samples.value().total_shots(), 20u);
  EXPECT_EQ(dispatcher.query(id).value().resource, "capable");
  // The rejection did not indict the resource's health.
  EXPECT_TRUE(broker->healthy("picky"));
}

TEST(BrokerDispatchTest, RejectedPinnedJobFailsImmediately) {
  WallClock clock;
  auto broker = std::make_shared<ResourceBroker>(BrokerOptions{}, &clock,
                                                 nullptr);
  auto picky = fake("picky");
  picky->start_error = common::err::invalid_argument("unsupported payload");
  ASSERT_TRUE(broker->add("picky", picky).ok());
  ASSERT_TRUE(
      broker->add("capable",
                  qrmi::LocalEmulatorQrmi::create("capable", "sv").value())
          .ok());
  daemon::Dispatcher dispatcher(broker, {}, &clock, nullptr);

  daemon::Dispatcher::SubmitOptions pin;
  pin.resource = "picky";
  auto id = dispatcher.submit(common::SessionId{1}, "u",
                              daemon::JobClass::kDevelopment,
                              small_payload(20), pin);
  ASSERT_TRUE(id.ok());
  auto samples = dispatcher.wait(id.value(), 30 * common::kSecond);
  ASSERT_FALSE(samples.ok());
  EXPECT_NE(samples.error().message().find("unsupported payload"),
            std::string::npos);
  EXPECT_EQ(dispatcher.query(id.value()).value().state,
            daemon::DaemonJobState::kFailed);
}

TEST(BrokerDispatchTest, WaitTimesOutInsteadOfBlockingForever) {
  WallClock clock;
  auto resource = qrmi::LocalEmulatorQrmi::create("emu", "sv").value();
  daemon::Dispatcher dispatcher(resource, {}, &clock, nullptr);
  dispatcher.drain();  // wedge the queue
  const auto id = dispatcher.submit(common::SessionId{1}, "u",
                                    daemon::JobClass::kDevelopment,
                                    small_payload(10));
  auto timed_out = dispatcher.wait(id, 50 * common::kMillisecond);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.error().code(), common::ErrorCode::kTimeout);
  EXPECT_NE(timed_out.error().message().find("queued"), std::string::npos);
  dispatcher.resume();
  EXPECT_TRUE(dispatcher.wait(id, 30 * common::kSecond).ok());
  EXPECT_FALSE(dispatcher.wait(424242, common::kSecond).ok());
}

}  // namespace
}  // namespace qcenv::broker

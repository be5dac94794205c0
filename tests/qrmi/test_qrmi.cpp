// QRMI resources: local emulator, direct QPU, registry, and the cloud
// client against a live CloudService.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cloud/cloud_service.hpp"
#include "qrmi/cloud_client.hpp"
#include "qrmi/direct_qpu.hpp"
#include "qrmi/local_emulator.hpp"
#include "qrmi/registry.hpp"

namespace qcenv::qrmi {
namespace {

using quantum::AtomRegister;
using quantum::Payload;
using quantum::Sequence;
using quantum::Waveform;

Payload small_payload(std::uint64_t shots = 50) {
  Sequence seq(AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{Waveform::constant(200, 2.0),
                               Waveform::constant(200, 0.0), 0.0});
  return Payload::from_sequence(seq, shots);
}

TEST(LocalEmulatorQrmiTest, FullTaskLifecycle) {
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  Qrmi& qrmi = *resource.value();
  EXPECT_EQ(qrmi.type(), ResourceType::kLocalEmulator);
  EXPECT_TRUE(qrmi.is_accessible().value());

  auto token = qrmi.acquire();
  ASSERT_TRUE(token.ok());
  auto task = qrmi.task_start(small_payload());
  ASSERT_TRUE(task.ok());
  auto samples = qrmi.task_result(task.value());  // waits for completion
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 50u);
  // A fetched task is forgotten.
  auto status = qrmi.task_status(task.value());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), common::ErrorCode::kNotFound);
  auto again = qrmi.task_result(task.value());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), common::ErrorCode::kNotFound);
  EXPECT_TRUE(qrmi.release(token.value()).ok());
}

TEST(LocalEmulatorQrmiTest, UnfetchedTaskStaysQueryable) {
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  Qrmi& qrmi = *resource.value();
  auto task = qrmi.task_start(small_payload());
  ASSERT_TRUE(task.ok());
  auto waited = qrmi.task_wait(task.value(), common::kMillisecond, nullptr,
                               nullptr);
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(waited.value(), TaskStatus::kCompleted);
  EXPECT_EQ(qrmi.task_status(task.value()).value(), TaskStatus::kCompleted);
  EXPECT_EQ(qrmi.task_status(task.value()).value(), TaskStatus::kCompleted);
  auto samples = qrmi.task_result(task.value());
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 50u);
}

TEST(LocalEmulatorQrmiTest, RunSyncWaitsWithOneCheck) {
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  Qrmi::RunStats stats;
  auto samples = resource.value()->run_sync(
      small_payload(40), common::kMillisecond, nullptr, &stats);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 40u);
  EXPECT_EQ(stats.polls, 1u);
  EXPECT_LE(stats.poll_start, stats.poll_end);
  EXPECT_LE(stats.poll_end, stats.result_end);
}

TEST(LocalEmulatorQrmiTest, WaitHoldsTheVirtualCompletionGate) {
  constexpr common::DurationNs kLatency = 5 * common::kMillisecond;
  common::ManualClock clock(0, /*auto_advance=*/false);
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  EmulatorFaultHooks hooks;
  hooks.latency = [](std::uint64_t) { return kLatency; };
  resource.value()->set_fault_hooks(std::move(hooks), &clock);
  auto task = resource.value()->task_start(small_payload());
  ASSERT_TRUE(task.ok());

  std::atomic<bool> returned{false};
  common::Result<TaskStatus> waited = TaskStatus::kQueued;
  std::thread waiter([&] {
    waited = resource.value()->task_wait(task.value(), common::kMillisecond,
                                         &clock, nullptr);
    returned.store(true);
  });
  // Ample real time for the emulator job; only virtual time is missing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  clock.advance(kLatency - 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(resource.value()->task_status(task.value()).value(),
            TaskStatus::kRunning);
  clock.advance(1);
  waiter.join();
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(waited.value(), TaskStatus::kCompleted);
  EXPECT_EQ(clock.now(), kLatency);
}

TEST(LocalEmulatorQrmiTest, WaitAdvancesVirtualTimeByTheModelledLatency) {
  constexpr common::TimeNs kStart = 3 * common::kSecond;
  constexpr common::DurationNs kLatency = 7'300 * common::kMicrosecond;
  common::ManualClock clock(kStart);  // auto-advancing
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  EmulatorFaultHooks hooks;
  hooks.latency = [](std::uint64_t) { return kLatency; };
  resource.value()->set_fault_hooks(std::move(hooks), &clock);
  Qrmi::RunStats stats;
  auto samples = resource.value()->run_sync(
      small_payload(), common::kMillisecond, &clock, &stats);
  ASSERT_TRUE(samples.ok());
  // Polling would have moved the clock in whole 1 ms steps past the gate.
  EXPECT_EQ(clock.now(), kStart + kLatency);
  EXPECT_EQ(stats.poll_end - stats.poll_start, kLatency);
  EXPECT_EQ(stats.polls, 1u);
}

TEST(LocalEmulatorQrmiTest, WaitReportsFailureAndUnknownTasks) {
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  Qrmi& qrmi = *resource.value();
  // 30 atoms exceed the dense state-vector limit: the backend fails.
  Sequence seq(AtomRegister::linear_chain(30, 6.0));
  seq.add_pulse(quantum::Pulse{Waveform::constant(200, 2.0),
                               Waveform::constant(200, 0.0), 0.0});
  auto task = qrmi.task_start(Payload::from_sequence(seq, 10));
  ASSERT_TRUE(task.ok());
  auto waited =
      qrmi.task_wait(task.value(), common::kMillisecond, nullptr, nullptr);
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(waited.value(), TaskStatus::kFailed);
  auto failed = qrmi.task_result(task.value());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code(), common::ErrorCode::kResourceExhausted);

  std::uint64_t polls = 0;
  auto unknown =
      qrmi.task_wait("local-999", common::kMillisecond, nullptr, &polls);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code(), common::ErrorCode::kNotFound);
  EXPECT_EQ(polls, 1u);
}

TEST(LocalEmulatorQrmiTest, RunSyncConvenience) {
  auto resource = LocalEmulatorQrmi::create("emu", "mps:8");
  ASSERT_TRUE(resource.ok());
  auto samples = resource.value()->run_sync(small_payload(30));
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 30u);
}

TEST(LocalEmulatorQrmiTest, UnknownTaskAndBackend) {
  EXPECT_FALSE(LocalEmulatorQrmi::create("x", "quantum-annealer").ok());
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  EXPECT_FALSE(resource.value()->task_status("local-999").ok());
  EXPECT_FALSE(resource.value()->task_result("local-999").ok());
}

TEST(LocalEmulatorQrmiTest, TargetReportsEmulatorSpec) {
  auto resource = LocalEmulatorQrmi::create("emu", "sv");
  ASSERT_TRUE(resource.ok());
  auto spec = resource.value()->target();
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec.value().supports_digital);
  EXPECT_EQ(resource.value()->metadata().at_or_null("engine").as_string(),
            "sv");
}

TEST(DirectQpuQrmiTest, ExclusiveLease) {
  common::ManualClock clock;
  qpu::QpuOptions options;
  options.time_scale = 1e9;
  qpu::QpuDevice device(options, &clock);
  qpu::QpuController controller(&device, &clock);
  DirectQpuQrmi qrmi("fresnel", &device, &controller);

  auto lease = qrmi.acquire();
  ASSERT_TRUE(lease.ok());
  auto second = qrmi.acquire();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), common::ErrorCode::kResourceExhausted);
  EXPECT_FALSE(qrmi.release("wrong-token").ok());
  EXPECT_TRUE(qrmi.release(lease.value()).ok());
  EXPECT_TRUE(qrmi.acquire().ok());
}

TEST(DirectQpuQrmiTest, ExecutesThroughController) {
  common::ManualClock clock;
  qpu::QpuOptions options;
  options.time_scale = 1e9;
  qpu::QpuDevice device(options, &clock);
  qpu::QpuController controller(&device, &clock);
  DirectQpuQrmi qrmi("fresnel", &device, &controller);

  Qrmi::RunStats stats;
  auto samples =
      qrmi.run_sync(small_payload(20), common::kMillisecond, &clock, &stats);
  ASSERT_TRUE(samples.ok()) << samples.error().to_string();
  EXPECT_EQ(samples.value().total_shots(), 20u);
  EXPECT_EQ(stats.polls, 1u);  // one wait on the controller, no polling
  auto spec = qrmi.target();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().name, "sim-analog");
  EXPECT_FALSE(qrmi.task_status("not-a-number").ok());
}

TEST(DirectQpuQrmiTest, WaitBlocksOnTheController) {
  common::ManualClock clock;
  qpu::QpuOptions options;
  options.time_scale = 1e9;
  qpu::QpuDevice device(options, &clock);
  qpu::QpuController controller(&device, &clock);
  DirectQpuQrmi qrmi("fresnel", &device, &controller);

  auto task = qrmi.task_start(small_payload(20));
  ASSERT_TRUE(task.ok());
  std::uint64_t polls = 0;
  auto waited = qrmi.task_wait(task.value(), common::kMillisecond, nullptr,
                               &polls);
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(waited.value(), TaskStatus::kCompleted);
  EXPECT_EQ(polls, 1u);
  EXPECT_EQ(qrmi.task_result(task.value()).value().total_shots(), 20u);
  EXPECT_FALSE(
      qrmi.task_wait("not-a-number", common::kMillisecond, nullptr, nullptr)
          .ok());
  auto unknown = qrmi.task_wait("424242", common::kMillisecond, nullptr,
                                nullptr);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code(), common::ErrorCode::kNotFound);
}

/// A resource that cannot signal completion: it reports kRunning for a
/// fixed number of status checks, then kCompleted.
class PolledQrmi final : public Qrmi {
 public:
  explicit PolledQrmi(std::uint64_t running_checks)
      : running_checks_(running_checks) {}

  std::string resource_id() const override { return "polled"; }
  ResourceType type() const override { return ResourceType::kCloudQpu; }
  common::Result<bool> is_accessible() override { return true; }
  common::Result<std::string> acquire() override { return std::string("t"); }
  common::Status release(const std::string&) override {
    return common::Status::ok_status();
  }
  common::Result<std::string> task_start(const Payload& payload) override {
    shots_ = payload.shots();
    return std::string("task-1");
  }
  common::Result<TaskStatus> task_status(const std::string&) override {
    ++checks_;
    return checks_ > running_checks_ ? TaskStatus::kCompleted
                                     : TaskStatus::kRunning;
  }
  common::Result<quantum::Samples> task_result(const std::string&) override {
    quantum::Samples samples(2);
    samples.record("00", shots_);
    return samples;
  }
  common::Status task_stop(const std::string&) override {
    return common::Status::ok_status();
  }
  common::Result<quantum::DeviceSpec> target() override {
    return quantum::DeviceSpec::analog_default();
  }
  common::Json metadata() override { return common::Json::object(); }

  std::uint64_t checks() const { return checks_; }

 private:
  std::uint64_t running_checks_;
  std::uint64_t checks_ = 0;
  std::uint64_t shots_ = 0;
};

TEST(QrmiDefaultWaitTest, PollsUntilTerminal) {
  PolledQrmi qrmi(3);
  common::ManualClock clock(0);  // auto-advancing: paced, no real sleep
  Qrmi::RunStats stats;
  auto samples =
      qrmi.run_sync(small_payload(12), common::kMillisecond, &clock, &stats);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 12u);
  EXPECT_EQ(stats.polls, 4u);
  EXPECT_EQ(qrmi.checks(), 4u);
  EXPECT_EQ(clock.now(), 3 * common::kMillisecond);
}

TEST(RegistryTest, LookupAndNames) {
  ResourceRegistry registry;
  registry.add("emu", LocalEmulatorQrmi::create("emu", "sv").value());
  registry.add("mock", LocalEmulatorQrmi::create("mock", "mps-mock").value());
  EXPECT_TRUE(registry.contains("emu"));
  EXPECT_FALSE(registry.contains("qpu"));
  EXPECT_EQ(registry.names().size(), 2u);
  auto missing = registry.lookup("qpu");
  ASSERT_FALSE(missing.ok());
  // Error message lists available resources to help users.
  EXPECT_NE(missing.error().message().find("emu"), std::string::npos);
}

TEST(RegistryTest, NamesPreserveRegistrationOrder) {
  // Fleet consumers treat the first declared resource as the primary, so
  // names() must not be alphabetised.
  ResourceRegistry registry;
  registry.add("zeta", LocalEmulatorQrmi::create("zeta", "sv").value());
  registry.add("alpha", LocalEmulatorQrmi::create("alpha", "sv").value());
  registry.add("zeta", LocalEmulatorQrmi::create("zeta2", "sv").value());
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"zeta", "alpha"}));
  EXPECT_EQ(registry.lookup("zeta").value()->resource_id(), "zeta2");
}

TEST(RegistryTest, LoadFromConfig) {
  common::Config config;
  ASSERT_TRUE(config
                  .load_string(
                      "QRMI_RESOURCES=dev-emu, big-mps\n"
                      "QRMI_DEV_EMU_TYPE=local-emulator\n"
                      "QRMI_DEV_EMU_ENGINE=sv\n"
                      "QRMI_BIG_MPS_TYPE=local-emulator\n"
                      "QRMI_BIG_MPS_ENGINE=mps:32\n")
                  .ok());
  ResourceRegistry registry;
  ASSERT_TRUE(registry.load_from_config(config).ok());
  EXPECT_TRUE(registry.contains("dev-emu"));
  EXPECT_TRUE(registry.contains("big-mps"));
  EXPECT_EQ(registry.lookup("big-mps").value()->metadata()
                .at_or_null("engine").as_string(),
            "mps:32");
}

TEST(RegistryTest, ConfigErrors) {
  // Every config error must name the offending resource and config key so
  // users can fix their environment without reading the loader code.
  ResourceRegistry registry;
  common::Config missing_type;
  ASSERT_TRUE(missing_type.load_string("QRMI_RESOURCES=x\n").ok());
  auto status = registry.load_from_config(missing_type);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("resource 'x'"), std::string::npos);
  EXPECT_NE(status.error().message().find("QRMI_X_TYPE"), std::string::npos);

  common::Config bad_type;
  ASSERT_TRUE(bad_type
                  .load_string("QRMI_RESOURCES=x\nQRMI_X_TYPE=teleport\n")
                  .ok());
  status = registry.load_from_config(bad_type);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("QRMI_X_TYPE=teleport"),
            std::string::npos);

  common::Config bad_engine;
  ASSERT_TRUE(bad_engine
                  .load_string("QRMI_RESOURCES=x\n"
                               "QRMI_X_TYPE=local-emulator\n"
                               "QRMI_X_ENGINE=quantum-annealer\n")
                  .ok());
  status = registry.load_from_config(bad_engine);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("resource 'x'"), std::string::npos);
  EXPECT_NE(status.error().message().find("QRMI_X_ENGINE=quantum-annealer"),
            std::string::npos);

  common::Config direct;
  ASSERT_TRUE(direct
                  .load_string("QRMI_RESOURCES=x\nQRMI_X_TYPE=direct-access\n")
                  .ok());
  status = registry.load_from_config(direct);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("resource 'x'"), std::string::npos);

  common::Config cloud_no_port;
  ASSERT_TRUE(cloud_no_port
                  .load_string("QRMI_RESOURCES=x\nQRMI_X_TYPE=cloud-qpu\n")
                  .ok());
  status = registry.load_from_config(cloud_no_port);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("resource 'x'"), std::string::npos);
  EXPECT_NE(status.error().message().find("QRMI_X_PORT"), std::string::npos);

  common::Config bad_port;
  ASSERT_TRUE(bad_port
                  .load_string("QRMI_RESOURCES=x\nQRMI_X_TYPE=cloud-qpu\n"
                               "QRMI_X_PORT=99999\n")
                  .ok());
  status = registry.load_from_config(bad_port);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("99999"), std::string::npos);
}

TEST(RegistryTest, EmptyRegistryLookupPointsAtConfiguration) {
  ResourceRegistry registry;
  auto missing = registry.lookup("anything");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().message().find("QRMI_RESOURCES"),
            std::string::npos);
}

TEST(RegistryTest, ConfigKeyNameMangling) {
  EXPECT_EQ(config_key_name("dev-emu"), "DEV_EMU");
  EXPECT_EQ(config_key_name("Fresnel2"), "FRESNEL2");
}

// ---- Cloud client against a live service ---------------------------------

class CloudFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto backend = LocalEmulatorQrmi::create("cloud-backend", "sv");
    ASSERT_TRUE(backend.ok());
    cloud::CloudServiceOptions options;
    options.api_key = "secret";
    options.latency.base = 0;  // keep tests fast
    options.latency.jitter = 0;
    service_ = std::make_unique<cloud::CloudService>(backend.value(), options);
    auto port = service_->start();
    ASSERT_TRUE(port.ok());
    port_ = port.value();
  }

  std::unique_ptr<cloud::CloudService> service_;
  std::uint16_t port_ = 0;
};

TEST_F(CloudFixture, EndToEndJob) {
  CloudQrmi qrmi("cloud-emu", ResourceType::kCloudEmulator, port_, "secret");
  EXPECT_TRUE(qrmi.is_accessible().value());
  auto samples = qrmi.run_sync(small_payload(25), common::kMillisecond);
  ASSERT_TRUE(samples.ok()) << samples.error().to_string();
  EXPECT_EQ(samples.value().total_shots(), 25u);
}

TEST_F(CloudFixture, DeviceSpecFetch) {
  CloudQrmi qrmi("cloud-emu", ResourceType::kCloudEmulator, port_, "secret");
  auto spec = qrmi.target();
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec.value().supports_digital);
}

TEST_F(CloudFixture, WrongApiKeyRejected) {
  CloudQrmi qrmi("cloud-emu", ResourceType::kCloudEmulator, port_, "wrong");
  auto task = qrmi.task_start(small_payload());
  ASSERT_FALSE(task.ok());
  EXPECT_EQ(task.error().code(), common::ErrorCode::kPermissionDenied);
}

TEST_F(CloudFixture, UnknownJobIs404) {
  CloudQrmi qrmi("cloud-emu", ResourceType::kCloudEmulator, port_, "secret");
  auto status = qrmi.task_status("local-424242");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), common::ErrorCode::kNotFound);
}

TEST_F(CloudFixture, MalformedPayloadIs400) {
  net::HttpClient client(port_);
  client.set_default_header("Authorization", "Bearer secret");
  auto response = client.post("/api/v1/jobs", "{\"not\":\"a payload\"}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400);
}

TEST_F(CloudFixture, UnreachableEndpointIsUnavailable) {
  service_->stop();
  CloudQrmi qrmi("cloud-emu", ResourceType::kCloudEmulator, port_, "secret");
  auto task = qrmi.task_start(small_payload());
  ASSERT_FALSE(task.ok());
  EXPECT_EQ(task.error().code(), common::ErrorCode::kUnavailable);
}

TEST(ResourceTypeNames, RoundTrip) {
  const ResourceType types[] = {
      ResourceType::kLocalEmulator, ResourceType::kDirectAccess,
      ResourceType::kCloudQpu, ResourceType::kCloudEmulator};
  for (const auto type : types) {
    auto back = resource_type_from_string(to_string(type));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), type);
  }
  EXPECT_FALSE(resource_type_from_string("fpga").ok());
}

}  // namespace
}  // namespace qcenv::qrmi

// Calibration drift, QPU device pacing/cancellation, controller queue.
#include <chrono>
#include <numbers>
#include <thread>

#include <gtest/gtest.h>

#include "qpu/calibration.hpp"
#include "qpu/controller.hpp"
#include "qpu/qpu_device.hpp"

namespace qcenv::qpu {
namespace {

using common::kSecond;
using common::ManualClock;
using quantum::AtomRegister;
using quantum::Payload;
using quantum::Sequence;
using quantum::Waveform;

Payload small_payload(std::uint64_t shots, std::size_t atoms = 2) {
  Sequence seq(AtomRegister::linear_chain(atoms, 6.0));
  seq.add_pulse(quantum::Pulse{Waveform::constant(200, 2.0),
                               Waveform::constant(200, 0.0), 0.0});
  return Payload::from_sequence(seq, shots);
}

QpuOptions fast_options() {
  QpuOptions options;
  options.time_scale = 1e9;  // compress device time away for tests
  options.setup_seconds = 2.0;
  return options;
}

TEST(CalibrationModel, StartsNominal) {
  CalibrationModel model(quantum::CalibrationSnapshot{}, DriftParams{}, 1);
  EXPECT_DOUBLE_EQ(model.current().rabi_scale, 1.0);
}

TEST(CalibrationModel, DriftMovesParameters) {
  CalibrationModel model(quantum::CalibrationSnapshot{}, DriftParams{}, 7);
  model.advance_to(4LL * 3600 * kSecond);  // 4 hours
  const auto& cal = model.current();
  const bool anything_moved = cal.rabi_scale != 1.0 ||
                              cal.detuning_offset != 0.0 ||
                              cal.dephasing_rate != 0.008;
  EXPECT_TRUE(anything_moved);
  EXPECT_EQ(cal.timestamp_ns, 4LL * 3600 * kSecond);
}

TEST(CalibrationModel, DephasingDegradesSecularly) {
  DriftParams params;
  params.dephasing_sigma = 0.0;  // isolate the secular term
  params.rabi_scale_sigma = 0.0;
  params.detuning_offset_sigma = 0.0;
  params.dephasing_degradation_per_hour = 0.01;
  CalibrationModel model(quantum::CalibrationSnapshot{}, params, 3);
  // Advance in steps so the OU mean reversion tracks the degrading mean.
  for (int h = 1; h <= 10; ++h) {
    model.advance_to(h * 3600LL * kSecond);
  }
  EXPECT_GT(model.current().dephasing_rate, 0.05);
}

TEST(CalibrationModel, RecalibrateResets) {
  CalibrationModel model(quantum::CalibrationSnapshot{}, DriftParams{}, 7);
  model.advance_to(10LL * 3600 * kSecond);
  model.recalibrate(11LL * 3600 * kSecond);
  EXPECT_DOUBLE_EQ(model.current().rabi_scale, 1.0);
  EXPECT_DOUBLE_EQ(model.current().dephasing_rate, 0.008);
  EXPECT_EQ(model.last_recalibration_ns(), 11LL * 3600 * kSecond);
}

TEST(CalibrationModel, DeterministicUnderSeed) {
  CalibrationModel a(quantum::CalibrationSnapshot{}, DriftParams{}, 42);
  CalibrationModel b(quantum::CalibrationSnapshot{}, DriftParams{}, 42);
  a.advance_to(3600LL * kSecond);
  b.advance_to(3600LL * kSecond);
  EXPECT_EQ(a.current(), b.current());
}

TEST(QpuDeviceTest, ExecutePacesDeviceTime) {
  ManualClock clock;
  QpuOptions options;
  options.setup_seconds = 2.0;
  options.time_scale = 1.0;  // ManualClock auto-advances: no real waiting
  QpuDevice device(options, &clock);
  const auto start = clock.now();
  auto samples = device.execute(small_payload(10));
  ASSERT_TRUE(samples.ok()) << samples.error().to_string();
  // 2 s setup + 10 shots at 1 Hz = 12 s of device time.
  EXPECT_NEAR(common::to_seconds(clock.now() - start), 12.0, 0.01);
  EXPECT_EQ(device.counters().jobs_executed, 1u);
  EXPECT_EQ(device.counters().shots_executed, 10u);
}

TEST(QpuDeviceTest, ShotRateScalesDuration) {
  ManualClock clock;
  QpuOptions options;
  options.spec.shot_rate_hz = 100.0;  // roadmap rate
  options.setup_seconds = 1.0;
  QpuDevice device(options, &clock);
  const auto start = clock.now();
  ASSERT_TRUE(device.execute(small_payload(500)).ok());
  EXPECT_NEAR(common::to_seconds(clock.now() - start), 1.0 + 5.0, 0.01);
}

TEST(QpuDeviceTest, EstimatedDurationMatchesModel) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  EXPECT_NEAR(device.estimated_duration_seconds(small_payload(100)), 102.0,
              1e-9);
}

TEST(QpuDeviceTest, RejectsDigitalPayloads) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  quantum::Circuit c(2);
  c.h(0);
  auto result = device.execute(Payload::from_circuit(c, 10));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), common::ErrorCode::kFailedPrecondition);
}

TEST(QpuDeviceTest, ValidatesAgainstSpec) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  auto result = device.execute(small_payload(10, 30));  // exceeds radius
  EXPECT_FALSE(result.ok());
}

TEST(QpuDeviceTest, CancellationBetweenBatches) {
  ManualClock clock;
  QpuOptions options;
  options.shot_batch = 5;
  QpuDevice device(options, &clock);
  std::atomic<bool> cancel{true};  // cancel immediately
  auto result = device.execute(small_payload(100), &cancel);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), common::ErrorCode::kCancelled);
  EXPECT_EQ(device.counters().jobs_cancelled, 1u);
}

TEST(QpuDeviceTest, ResultsCarryCalibrationMetadata) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  auto samples = device.execute(small_payload(20));
  ASSERT_TRUE(samples.ok());
  const auto& meta = samples.value().metadata();
  EXPECT_TRUE(meta.contains("calibration"));
  EXPECT_EQ(meta.at_or_null("backend").as_string(), "qpu:sim-analog");
  EXPECT_NEAR(meta.at_or_null("device_seconds").as_double(), 22.0, 1e-9);
}

TEST(QpuDeviceTest, QaCheckNearOneWhenCalibrated) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  device.recalibrate();
  auto quality = device.run_qa_check();
  ASSERT_TRUE(quality.ok());
  EXPECT_GT(quality.value(), 0.9);
}

TEST(QpuDeviceTest, SetShotRateGuardsPositive) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  EXPECT_FALSE(device.set_shot_rate(0.0).ok());
  EXPECT_TRUE(device.set_shot_rate(50.0).ok());
  EXPECT_DOUBLE_EQ(device.spec().shot_rate_hz, 50.0);
}

// ---- Controller -------------------------------------------------------------

TEST(QpuControllerTest, ExecutesFifo) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  QpuController controller(&device, &clock);
  const auto a = controller.submit(small_payload(5));
  const auto b = controller.submit(small_payload(5));
  auto result_a = controller.wait(a);
  auto result_b = controller.wait(b);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  const auto info_a = controller.info(a).value();
  const auto info_b = controller.info(b).value();
  EXPECT_LE(info_a.finished_ns, info_b.started_ns);
}

TEST(QpuControllerTest, StatusTransitions) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  QpuController controller(&device, &clock);
  const auto id = controller.submit(small_payload(5));
  auto samples = controller.wait(id);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(controller.status(id).value(), TaskState::kDone);
  EXPECT_EQ(samples.value().total_shots(), 5u);
}

TEST(QpuControllerTest, CancelQueuedTask) {
  // Time stands still until the test advances it, so the first task holds
  // the device and the victim is still queued when it is cancelled.
  ManualClock clock(0, /*auto_advance=*/false);
  QpuDevice device(fast_options(), &clock);
  QpuController controller(&device, &clock);
  const auto running = controller.submit(small_payload(50));
  const auto victim = controller.submit(small_payload(50));
  EXPECT_TRUE(controller.cancel(victim).ok());
  const auto state = controller.wait_terminal(victim);
  EXPECT_EQ(state.value(), TaskState::kCancelled);
  auto result = controller.result(victim);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), common::ErrorCode::kCancelled);
  // No fatal assertion above: the controller cannot be destroyed while
  // its worker sleeps on the stopped clock.
  while (controller.status(running).value() != TaskState::kDone) {
    clock.advance(common::kSecond);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(controller.wait(running).ok());
}

TEST(QpuControllerTest, UnknownTaskErrors) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  QpuController controller(&device, &clock);
  EXPECT_FALSE(controller.status(common::TaskId{999}).ok());
  EXPECT_FALSE(controller.result(common::TaskId{999}).ok());
  EXPECT_FALSE(controller.cancel(common::TaskId{999}).ok());
}

TEST(QpuControllerTest, FailedJobReportsError) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  QpuController controller(&device, &clock);
  const auto id = controller.submit(small_payload(5, 30));  // invalid radius
  auto result = controller.wait(id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(controller.status(id).value(), TaskState::kFailed);
  EXPECT_FALSE(controller.info(id).value().error.empty());
}

TEST(QpuControllerTest, ListTasksReflectsHistory) {
  ManualClock clock;
  QpuDevice device(fast_options(), &clock);
  QpuController controller(&device, &clock);
  const auto a = controller.submit(small_payload(2));
  ASSERT_TRUE(controller.wait(a).ok());
  const auto tasks = controller.list_tasks();
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].id, a);
  EXPECT_EQ(tasks[0].shots, 2u);
}

}  // namespace
}  // namespace qcenv::qpu

// TimedQrmi: a timing decorator over one fleet member's Qrmi interface.
// The traced pass registers these in the daemon's fleet instead of the bare
// emulators, so the QRMI layer's calls (task starts, status polls, result
// fetches, device-spec reads) are counted and timed where they happen,
// without touching the daemon. Only calls made while recording count.
#pragma once

#include <algorithm>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "qrmi/qrmi.hpp"

namespace qcenv::bench_e2e {

class TimedQrmi final : public qrmi::Qrmi {
 public:
  /// `latency_per_shot` is the execution time the wrapped emulator models
  /// per shot (0 when it models none); a task is due to complete that long
  /// after its start, and the poll that notices later is completion lag.
  TimedQrmi(qrmi::QrmiPtr inner, common::Clock* clock,
            common::DurationNs latency_per_shot)
      : inner_(std::move(inner)),
        clock_(clock),
        latency_per_shot_(latency_per_shot) {}

  struct Stats {
    std::uint64_t tasks = 0;         // tasks whose result was fetched
    std::uint64_t polls = 0;         // task_status calls
    std::uint64_t target_calls = 0;  // device-spec reads
    /// Sum of task_start -> result fetched, clipped to the recording.
    common::DurationNs inflight = 0;
    std::vector<double> completion_lag_ms;
    std::vector<double> idle_gap_ms;
  };

  void set_recording(bool on) {
    std::scoped_lock lock(mutex_);
    recording_ = on;
    if (on) recording_since_ = clock_->now();
  }
  Stats stats() const {
    std::scoped_lock lock(mutex_);
    return stats_;
  }

  std::string resource_id() const override { return inner_->resource_id(); }
  qrmi::ResourceType type() const override { return inner_->type(); }
  common::Result<bool> is_accessible() override {
    return inner_->is_accessible();
  }
  common::Result<std::string> acquire() override { return inner_->acquire(); }
  common::Status release(const std::string& token) override {
    return inner_->release(token);
  }

  common::Result<std::string> task_start(
      const quantum::Payload& payload) override {
    const common::TimeNs called = clock_->now();
    auto id = inner_->task_start(payload);
    const common::TimeNs started = clock_->now();
    std::scoped_lock lock(mutex_);
    if (recording_ && last_result_ > 0) {
      stats_.idle_gap_ms.push_back(
          static_cast<double>(called - last_result_) / 1e6);
    }
    if (id.ok()) {
      tasks_[id.value()] =
          Task{started,
               started + latency_per_shot_ *
                             static_cast<common::DurationNs>(payload.shots()),
               -1};
    }
    return id;
  }

  common::Result<qrmi::TaskStatus> task_status(
      const std::string& task_id) override {
    auto status = inner_->task_status(task_id);
    const common::TimeNs seen = clock_->now();
    std::scoped_lock lock(mutex_);
    if (recording_) ++stats_.polls;
    if (status.ok() && qrmi::is_terminal(status.value())) {
      const auto it = tasks_.find(task_id);
      if (it != tasks_.end() && it->second.seen_done < 0) {
        it->second.seen_done = seen;
      }
    }
    return status;
  }

  common::Result<quantum::Samples> task_result(
      const std::string& task_id) override {
    auto result = inner_->task_result(task_id);
    const common::TimeNs fetched = clock_->now();
    std::scoped_lock lock(mutex_);
    last_result_ = fetched;
    const auto it = tasks_.find(task_id);
    if (it == tasks_.end()) return result;
    if (recording_) {
      ++stats_.tasks;
      stats_.inflight +=
          fetched - std::max(it->second.start, recording_since_);
      if (it->second.seen_done >= 0) {
        stats_.completion_lag_ms.push_back(
            static_cast<double>(it->second.seen_done - it->second.due) /
            1e6);
      }
    }
    tasks_.erase(it);
    return result;
  }

  common::Status task_stop(const std::string& task_id) override {
    return inner_->task_stop(task_id);
  }

  common::Result<quantum::DeviceSpec> target() override {
    {
      std::scoped_lock lock(mutex_);
      if (recording_) ++stats_.target_calls;
    }
    return inner_->target();
  }
  common::Json metadata() override { return inner_->metadata(); }

 private:
  struct Task {
    common::TimeNs start = 0;      // task_start returned
    common::TimeNs due = 0;        // start + modelled execution time
    common::TimeNs seen_done = -1;  // first poll that saw it terminal
  };

  qrmi::QrmiPtr inner_;
  common::Clock* clock_;
  common::DurationNs latency_per_shot_;
  mutable std::mutex mutex_;
  bool recording_ = false;
  common::TimeNs recording_since_ = 0;
  Stats stats_;
  std::unordered_map<std::string, Task> tasks_;
  common::TimeNs last_result_ = 0;
};

}  // namespace qcenv::bench_e2e

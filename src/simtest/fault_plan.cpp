#include "simtest/fault_plan.hpp"

#include <algorithm>
#include <limits>

namespace qcenv::simtest {

using common::DurationNs;

const char* to_string(FaultOp op) noexcept {
  switch (op) {
    case FaultOp::kQpuOffline: return "qpu_offline";
    case FaultOp::kQpuOnline: return "qpu_online";
    case FaultOp::kDrainResource: return "drain_resource";
    case FaultOp::kResumeResource: return "resume_resource";
    case FaultOp::kDrainAll: return "drain_all";
    case FaultOp::kResumeAll: return "resume_all";
    case FaultOp::kCancelJob: return "cancel_job";
    case FaultOp::kCloseSession: return "close_session";
    case FaultOp::kKillRestart: return "kill_restart";
    case FaultOp::kJournalFailStop: return "journal_fail_stop";
    case FaultOp::kTornTail: return "torn_tail";
    case FaultOp::kCompact: return "compact";
    case FaultOp::kCompactCrash: return "compact_crash";
    case FaultOp::kSubmitStorm: return "submit_storm";
    case FaultOp::kCalibrationDrift: return "calibration_drift";
    case FaultOp::kScrapeStall: return "scrape_stall";
    case FaultOp::kEtaProbe: return "eta_probe";
    case FaultOp::kPeerPartition: return "peer_partition";
    case FaultOp::kTornSegment: return "torn_segment";
    case FaultOp::kLeaderKill: return "leader_kill";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::string out = "t=+";
  out += std::to_string(at / common::kMillisecond);
  out += "ms ";
  out += simtest::to_string(op);
  switch (op) {
    case FaultOp::kQpuOffline:
    case FaultOp::kQpuOnline:
    case FaultOp::kDrainResource:
    case FaultOp::kResumeResource:
      out += " emu" + std::to_string(target);
      break;
    case FaultOp::kCloseSession:
    case FaultOp::kSubmitStorm:
      out += " user" + std::to_string(target);
      if (op == FaultOp::kSubmitStorm) {
        out += " burst=" + std::to_string(param);
      }
      break;
    case FaultOp::kJournalFailStop:
      out += " after+" + std::to_string(param) + " writes";
      break;
    case FaultOp::kTornTail:
      out += " keep=" + std::to_string(param) + "B";
      break;
    case FaultOp::kCancelJob:
    case FaultOp::kEtaProbe:
      out += " pick=" + std::to_string(param);
      break;
    case FaultOp::kCompactCrash:
      out += " atomic_write=" + std::to_string(param);
      break;
    case FaultOp::kCalibrationDrift:
      out += " emu" + std::to_string(target) + " rate=" +
             std::to_string(param) + "/1000 per s";
      break;
    case FaultOp::kScrapeStall:
    case FaultOp::kPeerPartition:
      out += " for=" + std::to_string(param) + "ms";
      break;
    case FaultOp::kLeaderKill:
      if (param == 1) out += " crash_mid_promotion";
      break;
    default:
      break;
  }
  return out;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& event : events) {
    out += "  ";
    out += event.to_string();
    out += '\n';
  }
  if (out.empty()) out = "  (no faults)\n";
  return out;
}

FaultPlan make_fault_plan(common::Rng& rng,
                          const FaultPlanOptions& options) {
  FaultPlan plan;
  const double horizon = static_cast<double>(options.horizon);
  // Virtual timestamp at `frac` of the horizon.
  const auto at = [&](double lo, double hi) {
    return static_cast<DurationNs>(horizon * rng.uniform(lo, hi));
  };
  const auto pick_resource = [&] {
    return static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(options.fleet_size) - 1));
  };
  const auto pick_user = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.users) - 1));
  };

  for (std::size_t i = 0; i < options.flaps; ++i) {
    const std::size_t target = pick_resource();
    const DurationNs start = at(0.05, 0.65);
    // Outage length: usually short, occasionally a large fraction of the
    // run, never past 90% of the horizon (the fleet must heal to drain
    // the queue before quiescence).
    DurationNs down = static_cast<DurationNs>(
        horizon * std::min(rng.exponential_mean(0.08), 0.25));
    plan.events.push_back({start, FaultOp::kQpuOffline, target, 0});
    plan.events.push_back({start + down, FaultOp::kQpuOnline, target, 0});
  }
  // Rolling maintenance only makes sense with a peer to take the load.
  if (options.fleet_size > 1) {
    for (std::size_t i = 0; i < options.drains; ++i) {
      const std::size_t target = pick_resource();
      const DurationNs start = at(0.1, 0.6);
      const DurationNs window =
          static_cast<DurationNs>(horizon * rng.uniform(0.05, 0.2));
      plan.events.push_back({start, FaultOp::kDrainResource, target, 0});
      plan.events.push_back(
          {start + window, FaultOp::kResumeResource, target, 0});
    }
  }
  if (options.global_drain) {
    const DurationNs start = at(0.2, 0.5);
    const DurationNs window =
        static_cast<DurationNs>(horizon * rng.uniform(0.03, 0.12));
    plan.events.push_back({start, FaultOp::kDrainAll, 0, 0});
    plan.events.push_back({start + window, FaultOp::kResumeAll, 0, 0});
  }
  for (std::size_t i = 0; i < options.cancels; ++i) {
    plan.events.push_back({at(0.1, 0.85), FaultOp::kCancelJob, 0,
                           static_cast<std::uint64_t>(rng.uniform_int(
                               0, std::numeric_limits<std::int64_t>::max()))});
  }
  for (std::size_t i = 0; i < options.session_churns; ++i) {
    plan.events.push_back({at(0.15, 0.7), FaultOp::kCloseSession,
                           pick_user(), 0});
  }
  for (std::size_t i = 0; i < options.storms; ++i) {
    plan.events.push_back(
        {at(0.1, 0.75), FaultOp::kSubmitStorm, pick_user(),
         static_cast<std::uint64_t>(rng.uniform_int(8, 20))});
  }
  for (std::size_t i = 0; i < options.calib_drifts; ++i) {
    // Onset at 30-50% of the horizon: the drift detectors' warmup window
    // (~20 scrapes at the sweep's grid) completes on the stable baseline
    // first, and plenty of post-onset scrapes remain to alarm on.
    plan.events.push_back(
        {at(0.3, 0.5), FaultOp::kCalibrationDrift, pick_resource(),
         static_cast<std::uint64_t>(rng.uniform_int(25, 80))});
  }
  for (std::size_t i = 0; i < options.scrape_stalls; ++i) {
    plan.events.push_back(
        {at(0.2, 0.6), FaultOp::kScrapeStall, 0,
         static_cast<std::uint64_t>(rng.uniform_int(500, 3000))});
  }
  for (std::size_t i = 0; i < options.compactions; ++i) {
    plan.events.push_back({at(0.3, 0.9), FaultOp::kCompact, 0, 0});
  }
  for (std::size_t i = 0; i < options.compact_crashes; ++i) {
    // param picks WHICH atomic rewrite of the compaction dies: 0 is the
    // snapshot, 1 the journal rewrite. The guaranteed restart checks the
    // pre-crash image.
    const DurationNs when = at(0.25, 0.7);
    plan.events.push_back(
        {when, FaultOp::kCompactCrash, 0,
         static_cast<std::uint64_t>(rng.uniform_int(0, 1))});
    plan.events.push_back(
        {when + static_cast<DurationNs>(horizon * rng.uniform(0.02, 0.08)),
         FaultOp::kKillRestart, 0, 0});
  }
  for (std::size_t i = 0; i < options.restarts; ++i) {
    plan.events.push_back({at(0.2, 0.85), FaultOp::kKillRestart, 0, 0});
  }
  if (options.disk_fault) {
    // The disk dies at an arbitrary journal offset (a small delta past
    // wherever the journal happens to be when the event fires), sometimes
    // tearing the line it was mid-way through; a restart must follow —
    // only a new life reopens the journal.
    const DurationNs when = at(0.3, 0.7);
    if (rng.bernoulli(0.5)) {
      plan.events.push_back(
          {when, FaultOp::kJournalFailStop, 0,
           static_cast<std::uint64_t>(rng.uniform_int(0, 6))});
    } else {
      plan.events.push_back(
          {when, FaultOp::kTornTail, 0,
           static_cast<std::uint64_t>(rng.uniform_int(1, 40))});
    }
    plan.events.push_back(
        {when + static_cast<DurationNs>(horizon * rng.uniform(0.03, 0.1)),
         FaultOp::kKillRestart, 0, 0});
  }

  // Drawn LAST so every schedule above is byte-identical to plans built
  // before eta probes existed (seed stability across sweep generations).
  for (std::size_t i = 0; i < options.eta_probes; ++i) {
    plan.events.push_back({at(0.1, 0.8), FaultOp::kEtaProbe, 0,
                           static_cast<std::uint64_t>(rng.uniform_int(
                               0, std::numeric_limits<std::int64_t>::max()))});
  }
  // HA ops, also appended after everything older (same stability rule).
  for (std::size_t i = 0; i < options.peer_partitions; ++i) {
    plan.events.push_back(
        {at(0.15, 0.6), FaultOp::kPeerPartition, 0,
         static_cast<std::uint64_t>(rng.uniform_int(300, 3000))});
  }
  for (std::size_t i = 0; i < options.torn_segments; ++i) {
    plan.events.push_back({at(0.2, 0.7), FaultOp::kTornSegment, 0, 0});
  }
  for (std::size_t i = 0; i < options.leader_kills; ++i) {
    // Late enough that real state exists to fail over; param==1 crashes
    // the standby between the epoch fence and the daemon build, and the
    // harness retries promotion (epochs must strictly increase).
    plan.events.push_back({at(0.35, 0.7), FaultOp::kLeaderKill, 0,
                           rng.bernoulli(0.5) ? std::uint64_t{1}
                                              : std::uint64_t{0}});
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace qcenv::simtest

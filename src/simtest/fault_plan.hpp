// FaultPlan: a seeded, virtual-time schedule of adversities for the
// deterministic simulation harness (see scenario.hpp). One seed expands to
// one plan — QPU flaps, rolling drains, daemon kill-and-restarts, disk
// deaths at arbitrary journal offsets, torn journal tails, compaction
// cycles, tenant submit storms, cancels and session churn — so a failing
// sweep seed replays the exact same schedule from the command line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace qcenv::simtest {

enum class FaultOp {
  kQpuOffline,       // target resource's node goes down (health + starts)
  kQpuOnline,        // target resource recovers
  kDrainResource,    // rolling maintenance: admin-drain target resource
  kResumeResource,
  kDrainAll,         // global dispatch pause (maintenance window)
  kResumeAll,
  kCancelJob,        // cancel a live job (param picks deterministically)
  kCloseSession,     // close target user's session (cancels queued jobs)
  kKillRestart,      // daemon process dies; restarts on the same data dir
  kJournalFailStop,  // the disk under the journal dies after `param` more
                     // writes (journal fail-stops; acked state stays)
  kTornTail,         // next journal write tears after `param` bytes, then
                     // the disk is dead (the classic crash-mid-append)
  kCompact,          // force a snapshot + journal-truncation cycle
  kCompactCrash,     // a compaction whose `param`-th atomic rewrite dies
                     // (0 = the snapshot, 1 = the journal rewrite); a
                     // kKillRestart always follows
  kSubmitStorm,      // target user bursts `param` submissions at once
  kCalibrationDrift,  // target resource's calibration starts degrading as
                      // a pure function of virtual time (`param` = drift
                      // rate in 1/1000 per virtual second); the alerting
                      // pipeline's drift detectors must catch it
  kScrapeStall,       // the scrape loop loses every grid deadline for the
                      // next `param` virtual milliseconds (samples lost,
                      // not late)
  kEtaProbe,          // query a live tracked job's eta + explain surface
                      // mid-fault (`param` picks deterministically); the
                      // answers are interleaving-dependent, so this only
                      // asserts the engine survives every queue state
  kPeerPartition,     // the replication link between leader and standby
                      // drops for `param` virtual milliseconds (every pull
                      // fails; the standby must catch up afterwards)
  kTornSegment,       // the next shipped WAL segment arrives torn (short
                      // read + flipped byte); the standby must reject it
                      // and re-request instead of corrupting the mirror
  kLeaderKill,        // the leader dies for good; the hot standby fences
                      // (epoch bump) and promotes on the mirrored dir
                      // (`param` = 1 injects a crash between the fence and
                      // the daemon build, then retries promotion)
};

const char* to_string(FaultOp op) noexcept;

struct FaultEvent {
  common::DurationNs at = 0;  // virtual time from scenario start
  FaultOp op = FaultOp::kQpuOffline;
  /// Resource index (QPU/drain ops) or user index (storm/session ops).
  std::size_t target = 0;
  /// Op-specific parameter (burst size, journal-offset delta, tear bytes,
  /// deterministic cancel pick).
  std::uint64_t param = 0;

  std::string to_string() const;
};

struct FaultPlanOptions {
  std::size_t fleet_size = 2;
  std::size_t users = 3;
  /// Virtual span faults are scheduled across (recoveries land well
  /// before the end so every scenario can quiesce).
  common::DurationNs horizon = 30 * common::kSecond;
  std::size_t flaps = 2;        // offline/online pairs
  std::size_t drains = 1;       // per-resource drain/resume pairs
  bool global_drain = false;    // one full maintenance window
  std::size_t cancels = 3;
  std::size_t session_churns = 1;
  std::size_t restarts = 1;     // clean kill-and-restart cycles
  bool disk_fault = false;      // one fail-stop OR torn tail + restart
  std::size_t compactions = 1;
  /// Compactions that die on one of their atomic rewrites (snapshot or
  /// journal). Each is followed by a kKillRestart: the next life must find
  /// the pre-crash journal intact and replay it identically.
  std::size_t compact_crashes = 0;
  std::size_t storms = 1;
  /// Probability that any one task_start transiently fails with an I/O
  /// error (exercises mid-dispatch failover, distinct from flaps). Applied
  /// by the scenario's emulator hooks, not as discrete events.
  double brownout_prob = 0.0;
  /// Calibration-drift onsets (at 30-50% of the horizon, so the drift
  /// detectors have a warmed-up baseline before the shift).
  std::size_t calib_drifts = 0;
  /// Scrape-stall windows (the metrics pipeline's own fault mode).
  std::size_t scrape_stalls = 0;
  /// Mid-run eta/explain queries against random live jobs.
  std::size_t eta_probes = 0;
  /// Replication-link partitions between leader and hot standby (ignored
  /// when the scenario runs without federation).
  std::size_t peer_partitions = 0;
  /// Shipped WAL segments delivered torn (short + corrupt).
  std::size_t torn_segments = 0;
  /// Permanent leader deaths followed by standby promotion (a fresh
  /// standby starts mirroring each promoted leader).
  std::size_t leader_kills = 0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;  // sorted by `at`, stable
  /// Human-readable, replay-friendly schedule (one event per line).
  std::string to_string() const;
};

/// Expands `rng` into a concrete schedule. Guarantees: every kQpuOffline /
/// kDrainResource / kDrainAll has its matching recovery before `horizon`,
/// at most one disk fault per plan, and a disk fault is always followed by
/// a kKillRestart (the journal is dead — only a new life can heal it).
FaultPlan make_fault_plan(common::Rng& rng, const FaultPlanOptions& options);

}  // namespace qcenv::simtest

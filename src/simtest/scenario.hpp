// Deterministic full-stack simulation scenario: the real MiddlewareDaemon
// (sessions, admission, accounting, broker, dispatcher, durable store) is
// driven through its programmatic surface under a ManualClock, while a
// seeded FaultPlan injects QPU flaps, drains, kill-and-restarts, journal
// disk deaths, torn tails, compactions, cancels, session churn and tenant
// submit storms at scheduled virtual times. All time-dependent behaviour —
// probe backoff, rate-limiter refill, ledger decay, execution latency —
// runs in virtual time (a dispatch lane waiting out an emulator's modelled
// latency nudges the clock through Clock::sleep_for by exactly that
// latency instead of sleeping for real), so a scenario spanning a virtual
// minute completes in milliseconds of wall time. After the plan plays out
// the scenario quiesces and the global invariants (invariants.hpp) are
// checked: zero lost or double-executed shots, exactly one terminal state
// per job, no cancel resurrections, a balanced ledger, drained
// reservations, an empty queue and bounded records under GC.
//
// Determinism note, honestly: the fault schedule, workload and every
// scheduling *decision* (ordering, backoff, decay, limits) are exact
// functions of the seed and virtual time. Thread interleaving of the
// dispatch lanes is the host's — replaying a seed replays the same
// schedule against the same code, not the same instruction interleaving.
// The invariants are therefore written to hold under EVERY interleaving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "simtest/fault_plan.hpp"
#include "simtest/invariants.hpp"

namespace qcenv::simtest {

struct ScenarioOptions {
  std::uint64_t seed = 1;
  std::size_t fleet_size = 2;
  std::size_t users = 3;
  std::size_t jobs = 20;
  std::uint64_t min_shots = 20;
  std::uint64_t max_shots = 120;
  /// Non-production dispatch slice (small batches catch more interleavings
  /// per job: every batch boundary is a crash/cancel/failover point).
  std::uint64_t batch_shots = 16;
  /// Durable store under the daemon (journal sync kAlways so every ack is
  /// a real durability promise the invariants can hold the stack to).
  /// Restarts, disk faults and compactions require this.
  bool durable = true;
  /// Exercise the terminal-job GC (records_ bound instead of exact ledger
  /// balancing — eviction outlives the records the balance would need).
  bool gc = false;
  /// Virtual execution latency jitter on every batch.
  bool latency = false;
  /// Per-user submit token buckets tight enough that storms draw 429s.
  bool rate_limits = true;
  /// Virtual span submissions are spread across (faults share it).
  common::DurationNs horizon = 30 * common::kSecond;
  /// Dispatcher submit shards (0 = the production default of 8). The
  /// sweep varies this per seed (1/2/4/8) so the invariants are checked
  /// against every shard topology, including the unsharded one.
  std::size_t submit_shards = 0;
  FaultPlanOptions faults;
  /// Deliberate bug plant: the emulator silently drops a slice of every
  /// result. Exists solely to prove the sweep catches invariant
  /// violations with a replayable seed.
  bool plant_shot_loss = false;
  /// Collect the final daemon life's structured-event log and every
  /// job's trace into ScenarioResult::trace_dump (JSON) — the sweep's
  /// `--trace` flag, for debugging a failing seed stage by stage.
  bool trace_dump = false;
  /// Live metrics pipeline under test: the harness drives the scrape loop
  /// on its own deterministic grid (tick_at, never the clock-driven
  /// thread) so the alert timeline is a pure function of the seed.
  bool observability = true;
  /// Scrape grid interval; 0 derives ~horizon/128 (min 1 ms).
  common::DurationNs scrape_interval = 0;
  /// Hot-standby replication under test: a StandbyDaemon mirrors the
  /// leader's journal over a FileReplicationSource (polled on the scrape
  /// grid, virtual time only). Enables kPeerPartition / kTornSegment /
  /// kLeaderKill fault ops, an end-of-run mirror-equivalence check, and —
  /// on kLeaderKill — fenced promotion whose recovered sessions, ledger
  /// and fair-share inputs must match what a restart of the dead leader
  /// would have recovered. Requires `durable`.
  bool federation = false;
};

struct ScenarioStats {
  std::size_t submitted = 0;
  std::size_t rejected = 0;   // admission/rate-limit/disk rejections
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t restarts = 0;
  std::size_t flaps = 0;
  std::size_t storms = 0;
  std::size_t disk_faults = 0;
  std::size_t compactions = 0;
  std::size_t compact_crashes = 0;
  std::size_t calib_drifts = 0;
  std::size_t scrape_stalls = 0;
  std::size_t alerts_fired = 0;
  std::size_t peer_partitions = 0;
  std::size_t torn_segments = 0;
  std::size_t leader_kills = 0;
  std::size_t promotions = 0;
  common::TimeNs virtual_end = 0;
};

struct ScenarioResult {
  std::uint64_t seed = 0;
  /// The expanded fault schedule — printed verbatim on failure so the
  /// seed is replayable AND readable without re-running.
  std::string plan;
  ScenarioStats stats;
  std::vector<std::string> violations;
  /// JSON {events, traces} when ScenarioOptions::trace_dump was set.
  std::string trace_dump;
  /// The flight recorder's forensics JSON, when any daemon life dumped one
  /// (a journal fail-stop mid-scenario). The sweep ships it with the
  /// failure artifact; `simtest_sweep --dump-check` validates its shape.
  std::string flight_dump;
  /// Every alert record across all daemon lives, in fired order — the
  /// sweep's double-run determinism check compares these between replays.
  std::vector<telemetry::AlertRecord> alerts;
  /// Deterministic post-scenario eta/explain probe responses (one string
  /// per probe job, verbatim JSON). Produced by a fresh, drained,
  /// non-durable daemon at a pinned virtual time whose inputs are pure
  /// functions of the seed — the sweep's double-run check compares these
  /// byte for byte between replays.
  std::vector<std::string> eta_probe;
  bool ok() const { return violations.empty(); }
};

/// Runs one scenario to quiescence and checks every invariant.
ScenarioResult run_scenario(const ScenarioOptions& options);

/// Expands one sweep seed into a full scenario configuration (fleet size,
/// tenant count, workload shape, fault mix — everything derives from the
/// seed). `quick` caps the workload for CI; the nightly sweep runs bigger.
ScenarioOptions scenario_for_seed(std::uint64_t seed, bool quick);

}  // namespace qcenv::simtest

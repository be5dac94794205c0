// Second-level scheduling core (§3.3 "User sessions and job priorities").
//
// Deterministic state machine — no threads, no clocks of its own — so the
// exact same policy code runs inside the live daemon (driven by worker
// threads and a wall clock) and inside the virtual-time benches (driven by
// simkit events).
//
// Policy, as described in the paper:
//  - Three job classes: production > test > development.
//  - The scheduler always serves the highest class first (FIFO within a
//    class, with optional aging so development jobs cannot starve forever).
//  - Non-production jobs are dispatched in small shot batches "without
//    batched submission", bounding the delay a newly arrived production job
//    experiences to one small batch instead of a whole job.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"

namespace qcenv::daemon {

enum class JobClass { kProduction = 0, kTest = 1, kDevelopment = 2 };

const char* to_string(JobClass cls) noexcept;
/// Parses "production" / "test" / "development" (or "dev").
common::Result<JobClass> job_class_from_string(const std::string& text);
/// Smaller = more important.
constexpr int class_rank(JobClass cls) noexcept {
  return static_cast<int>(cls);
}

struct QueuePolicy {
  /// Serve higher classes first (false = plain FIFO, the baseline).
  bool class_priority = true;
  /// Chop non-production jobs into batches of at most this many shots
  /// (0 = dispatch whole jobs, i.e. "batched submission" for everyone).
  std::uint64_t non_production_batch_shots = 100;
  /// Anti-starvation: after each `age_to_boost` of pending time a job's
  /// effective rank improves by one class (0 = disabled).
  common::DurationNs age_to_boost = 600 * common::kSecond;
  /// Pattern-aware ordering (§3.5 future work, implemented here): within a
  /// class, serve the job with the least remaining QPU work first. Uses the
  /// "expected time running on the QC hardware" hint the paper proposes;
  /// remaining shots are the proxy.
  bool shortest_first_within_class = false;
  /// Submit-path sharding: tenants hash onto this many independent queue
  /// shards, each with its own lock, so concurrent submitters stop
  /// contending on one mutex. Dispatch order is unchanged — lanes run a
  /// tournament over the shard heads with the exact global comparator.
  /// 0 = default (8). 1 = one shared queue (the pre-sharding layout; the
  /// submit bench uses it as its hardware-normalizing baseline). The
  /// default is a fixed number, NOT hardware-derived, so seeded
  /// simulations replay identically on any machine.
  std::size_t submit_shards = 0;
};

/// One dispatchable slice of a job.
struct Batch {
  std::uint64_t job_id = 0;
  JobClass cls = JobClass::kDevelopment;
  std::uint64_t shots = 0;
  /// True when this batch completes the job.
  bool final_batch = true;
};

class PriorityQueueCore {
 public:
  explicit PriorityQueueCore(QueuePolicy policy = {}) : policy_(policy) {}

  const QueuePolicy& policy() const noexcept { return policy_; }

  /// Pluggable per-job priority within an effective-rank tier: jobs whose
  /// hook value is HIGHER dispatch first (ties fall through to
  /// shortest-first, then FIFO seq). The fair-share scheduler hands the
  /// under-served user's jobs forward through this. The hook must be a
  /// deterministic function of (job_id, now), evaluated under the caller's
  /// lock: at most once per eligible entry per head scan (peek_head,
  /// next_batch, for_each_before skip entries whose class rank already
  /// loses) and once per entry per full-order pass (snapshot_heads) — so
  /// virtual-time benches replay identically. Unset = pure FIFO tiers.
  using PriorityHook =
      std::function<double(std::uint64_t job_id, common::TimeNs now)>;
  void set_priority_hook(PriorityHook hook) {
    priority_hook_ = std::move(hook);
  }

  /// Adds a job with `total_shots` still to execute.
  void enqueue(std::uint64_t job_id, JobClass cls, std::uint64_t total_shots,
               common::TimeNs now);

  /// Same, with a caller-supplied FIFO sequence number. The sharded
  /// dispatcher allocates seqs from ONE global counter so a tournament
  /// over per-shard heads (peek_head + head_before) reproduces exactly
  /// the dispatch order a single shared queue would have produced.
  void enqueue(std::uint64_t job_id, JobClass cls, std::uint64_t total_shots,
               common::TimeNs now, std::uint64_t seq);

  /// Jobs a dispatch lane may serve (multi-resource dispatch: each lane
  /// passes the jobs placed on — or placeable on — its resource).
  using EligibleFn = std::function<bool(std::uint64_t job_id)>;

  /// Pops the next batch to dispatch, honouring class priority, aging and
  /// the small-batch policy. The job leaves the pending set until
  /// batch_done() re-queues any remainder.
  std::optional<Batch> next_batch(common::TimeNs now);
  /// Same, restricted to the highest-priority job satisfying `eligible` —
  /// lower-priority eligible jobs may overtake ineligible ones, which is
  /// what lets several resource lanes drain one queue concurrently.
  std::optional<Batch> next_batch(common::TimeNs now,
                                  const EligibleFn& eligible);

  /// True when at least one pending job satisfies `eligible`.
  bool any_pending(const EligibleFn& eligible) const;

  /// The ordering keys of the job next_batch would serve right now — the
  /// per-shard half of the sharded dispatcher's tournament: peek every
  /// shard's head, pick the globally best via head_before, then take()
  /// it from the winning shard.
  struct Head {
    std::uint64_t job_id = 0;
    JobClass cls = JobClass::kDevelopment;
    int rank = 0;            // effective class rank after aging
    bool has_hook = false;   // hook value below is meaningful
    double hook = 0.0;       // pluggable priority (higher first)
    std::uint64_t remaining_shots = 0;
    std::uint64_t seq = 0;   // global FIFO tie-break
  };
  /// One pass over the pending set, no sort: the minimum under head_before
  /// among eligible entries (seqs are unique, so that is exactly the first
  /// eligible entry of the full dispatch order).
  std::optional<Head> peek_head(common::TimeNs now,
                                const EligibleFn& eligible) const;
  /// The Head of one pending job at `now`; nullopt if not pending.
  std::optional<Head> head_of(std::uint64_t job_id, common::TimeNs now) const;
  /// Visits, in no particular order, every pending entry that dispatches
  /// before `pivot` (head_before(entry, pivot)) — the jobs ahead of a job
  /// whose Head `pivot` is, possibly from another shard. One pass, no sort.
  void for_each_before(const Head& pivot, common::TimeNs now,
                       const std::function<void(const Head&)>& visit) const;
  /// Every pending job's Head, in this core's dispatch order (global
  /// views k-way-merge several shards' lists with head_before). Only the
  /// full-order views (queue listings, snapshots) pay for this sort.
  std::vector<Head> snapshot_heads(common::TimeNs now) const;

  /// The dispatch order over Heads: (effective rank asc, hook priority
  /// desc, optional shortest-first, seq asc). A total order because seqs
  /// are unique, so tournament selection across shards equals
  /// single-queue dispatch.
  static bool head_before(const Head& a, const Head& b,
                          bool shortest_first) noexcept;

  /// Dispatches a specific pending job (the tournament winner), applying
  /// the same batching policy next_batch would. nullopt if not pending.
  std::optional<Batch> take(std::uint64_t job_id);

  /// Reports a dispatched batch finished; re-queues the remainder (if any)
  /// at its original queue position so a job's batches stay contiguous
  /// unless something more important arrived.
  void batch_done(const Batch& batch);

  /// Reports a dispatched batch as NOT executed (resource failure): the
  /// batch's shots return to the job's remaining count and the job re-joins
  /// the pending set at its original position, so failover loses no shots.
  void batch_failed(const Batch& batch);

  /// Removes a pending job (cancellation). False if not pending here.
  bool remove(std::uint64_t job_id);

  bool pending(std::uint64_t job_id) const;
  std::size_t depth() const { return entries_.size(); }
  std::size_t depth_of(JobClass cls) const;
  /// Pending job ids in dispatch order (for the /v1/queue endpoint).
  std::vector<std::uint64_t> snapshot(common::TimeNs now) const;

 private:
  struct Entry {
    std::uint64_t job_id;
    JobClass cls;
    std::uint64_t remaining_shots;
    std::uint64_t total_shots;
    common::TimeNs enqueue_time;
    std::uint64_t seq;  // stable FIFO order within a class
  };

  int effective_rank(const Entry& entry, common::TimeNs now) const;
  /// `entry`'s ordering keys at `now` (evaluates the hook).
  Head head_of(const Entry& entry, int rank, common::TimeNs now) const;

  QueuePolicy policy_;
  PriorityHook priority_hook_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Entry> entries_;           // job_id -> entry
  std::map<std::uint64_t, Entry> in_flight_;         // dispatched, awaiting done
};

}  // namespace qcenv::daemon

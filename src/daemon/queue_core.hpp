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

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
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

/// Batches a job of `cls` with `shots` left still owes under `policy`:
/// production jobs dispatch whole, the rest in slices of at most
/// `non_production_batch_shots` (the rule take() applies).
std::uint64_t batches_needed(const QueuePolicy& policy, JobClass cls,
                             std::uint64_t shots) noexcept;

/// Pending jobs live in FIFO buckets, one per (key, class), each ordered
/// by seq. A key groups jobs the caller treats alike: the priority hook
/// and the eligibility test are functions of the key, never of the job,
/// so every entry of a bucket shares its hook value and its eligibility
/// (the dispatcher's key is (user, placement); the default is the job id,
/// one job per bucket). Only non-empty buckets are kept.
///
/// Bucket invariant: when shortest-first is off and enqueue times are
/// non-decreasing in seq across a bucket, its entries are already in
/// dispatch order — the oldest entry has the best aged rank and the
/// lowest seq — so the first entry is the bucket's head and the entries
/// before any pivot form a prefix. Live submits meet this (one user's
/// submits serialize on a steady clock). Any other bucket — every bucket
/// in shortest-first mode, restored jobs whose clock restarted, callers
/// with arbitrary times — is scanned entry by entry instead. A head
/// selection thus costs O(non-empty buckets), not O(pending jobs).
class PriorityQueueCore {
 public:
  explicit PriorityQueueCore(QueuePolicy policy = {}) : policy_(policy) {}
  // Buckets point into the core's own tables: a copy would point into the
  // source, while a move carries every node along.
  PriorityQueueCore(const PriorityQueueCore&) = delete;
  PriorityQueueCore& operator=(const PriorityQueueCore&) = delete;
  PriorityQueueCore(PriorityQueueCore&&) = default;
  PriorityQueueCore& operator=(PriorityQueueCore&&) = default;

  const QueuePolicy& policy() const noexcept { return policy_; }

  /// Pluggable per-key priority within an effective-rank tier: jobs whose
  /// hook value is HIGHER dispatch first (ties fall through to
  /// shortest-first, then FIFO seq). The fair-share scheduler hands the
  /// under-served user's jobs forward through this. The hook must be a
  /// deterministic function of (key, now), evaluated under the caller's
  /// lock: at most once per bucket per pass (head scans skip buckets whose
  /// class rank already loses) — so virtual-time benches replay
  /// identically. Unset = pure FIFO tiers.
  using PriorityHook =
      std::function<double(std::uint64_t key, common::TimeNs now)>;
  void set_priority_hook(PriorityHook hook) {
    priority_hook_ = std::move(hook);
  }

  /// Adds a job with `total_shots` still to execute.
  void enqueue(std::uint64_t job_id, JobClass cls, std::uint64_t total_shots,
               common::TimeNs now);

  /// Same, with a caller-supplied FIFO sequence number and bucket key
  /// (default: the job id). The sharded dispatcher allocates seqs from ONE
  /// global counter so a tournament over per-shard heads (peek_head +
  /// head_before) reproduces exactly the dispatch order a single shared
  /// queue would have produced.
  void enqueue(std::uint64_t job_id, JobClass cls, std::uint64_t total_shots,
               common::TimeNs now, std::uint64_t seq,
               std::optional<std::uint64_t> key = std::nullopt);

  /// Moves a pending or in-flight job to bucket `key` (its placement
  /// changed); an in-flight job re-joins the new bucket when its batch
  /// returns. False if the job is neither.
  bool rekey(std::uint64_t job_id, std::uint64_t key);

  /// Keys whose jobs a dispatch lane may serve (multi-resource dispatch:
  /// each lane passes the keys placed on — or placeable on — its resource).
  using EligibleFn = std::function<bool(std::uint64_t key)>;

  /// Pops the next batch to dispatch, honouring class priority, aging and
  /// the small-batch policy. The job leaves the pending set until
  /// batch_done() re-queues any remainder.
  std::optional<Batch> next_batch(common::TimeNs now);
  /// Same, restricted to the highest-priority job satisfying `eligible` —
  /// lower-priority eligible jobs may overtake ineligible ones, which is
  /// what lets several resource lanes drain one queue concurrently.
  std::optional<Batch> next_batch(common::TimeNs now,
                                  const EligibleFn& eligible);

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
  /// The minimum under head_before among eligible entries — exactly the
  /// first eligible entry of the full dispatch order — from one look at
  /// each eligible bucket's head.
  std::optional<Head> peek_head(common::TimeNs now,
                                const EligibleFn& eligible) const;
  /// The Head of one pending job at `now`; nullopt if not pending.
  std::optional<Head> head_of(std::uint64_t job_id, common::TimeNs now) const;

  /// One bucket's share of the entries that dispatch before a pivot.
  struct BucketAhead {
    std::uint64_t key = 0;
    JobClass cls = JobClass::kDevelopment;
    bool has_hook = false;
    double hook = 0.0;           // the bucket's (shared) hook value
    std::size_t jobs = 0;        // entries before the pivot
    std::uint64_t batches = 0;   // batches_needed summed over them
  };
  /// Visits, in no particular order, every bucket holding entries that
  /// dispatch before `pivot` (head_before(entry, pivot)) — the jobs ahead
  /// of a job whose Head `pivot` is, possibly from another shard. Whole
  /// buckets are counted from their running totals; entries are walked
  /// only in a bucket the pivot splits, and then from its shorter side.
  void count_before(const Head& pivot, common::TimeNs now,
                    const std::function<void(const BucketAhead&)>& visit)
      const;
  /// The same entries one by one, in no particular order.
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
  /// O(1): the core keeps a pending count per class.
  std::size_t depth_of(JobClass cls) const {
    return class_depth_[static_cast<std::size_t>(class_rank(cls))];
  }
  /// Pending job ids in dispatch order (for the /v1/queue endpoint).
  std::vector<std::uint64_t> snapshot(common::TimeNs now) const;

 private:
  struct Entry {
    std::uint64_t job_id;
    std::uint64_t key;
    JobClass cls;
    std::uint64_t remaining_shots;
    std::uint64_t total_shots;
    common::TimeNs enqueue_time;
    std::uint64_t seq;  // stable FIFO order within a bucket
  };
  struct Bucket {
    std::uint64_t key = 0;
    JobClass cls = JobClass::kDevelopment;
    std::deque<const Entry*> fifo;  // ascending seq
    std::uint64_t batches = 0;      // batches_needed over fifo
    /// Adjacent pairs whose enqueue time decreases along fifo; 0 = the
    /// bucket invariant holds.
    std::size_t inversions = 0;
    std::size_t slot = 0;  // index in live_
  };
  /// A pivot's cut through one bucket: the bucket's hook value and, when
  /// the entries before the pivot are a prefix, its length.
  struct Cut {
    bool has_hook = false;
    double hook = 0.0;
    std::optional<std::size_t> prefix;  // nullopt: test every entry
  };

  int effective_rank(const Entry& entry, common::TimeNs now) const;
  Head head_of(const Entry& entry, common::TimeNs now, bool has_hook,
               double hook) const;
  /// True when `bucket`'s first entry is its head (the bucket invariant).
  bool ordered(const Bucket& bucket) const;
  /// The bucket's best entry at `now` (its first one when ordered).
  const Entry& bucket_head(const Bucket& bucket, common::TimeNs now) const;
  /// Calls visit(bucket, cut) for every bucket that may hold entries
  /// before `pivot` — the one walk count_before and for_each_before share.
  void walk_before(
      const Head& pivot, common::TimeNs now,
      const std::function<void(const Bucket&, const Cut&)>& visit) const;
  void insert_pending(const Entry& entry);
  void erase_pending(const Entry& entry);

  QueuePolicy policy_;
  PriorityHook priority_hook_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, Entry> entries_;    // pending, by job id
  std::unordered_map<std::uint64_t, Entry> in_flight_;  // awaiting done
  /// Non-empty buckets per class, by key (nodes never move), and the same
  /// buckets as one flat list for head scans.
  std::array<std::unordered_map<std::uint64_t, Bucket>, 3> buckets_;
  std::vector<Bucket*> live_;
  std::array<std::size_t, 3> class_depth_{};
};

}  // namespace qcenv::daemon

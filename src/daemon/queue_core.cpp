#include "daemon/queue_core.hpp"

#include <algorithm>
#include <cassert>

namespace qcenv::daemon {

const char* to_string(JobClass cls) noexcept {
  switch (cls) {
    case JobClass::kProduction: return "production";
    case JobClass::kTest: return "test";
    case JobClass::kDevelopment: return "development";
  }
  return "?";
}

common::Result<JobClass> job_class_from_string(const std::string& text) {
  if (text == "production") return JobClass::kProduction;
  if (text == "test") return JobClass::kTest;
  if (text == "development" || text == "dev") return JobClass::kDevelopment;
  return common::err::invalid_argument("unknown job class: " + text);
}

std::uint64_t batches_needed(const QueuePolicy& policy, JobClass cls,
                             std::uint64_t shots) noexcept {
  if (shots == 0) return 0;
  const std::uint64_t slice = policy.non_production_batch_shots;
  if (slice == 0 || cls == JobClass::kProduction) return 1;
  return shots / slice + (shots % slice != 0 ? 1 : 0);
}

namespace {

std::size_t class_index(JobClass cls) {
  return static_cast<std::size_t>(class_rank(cls));
}

/// The first position in `fifo` whose seq is not below `seq`. The ends are
/// checked first: arrivals append, takes leave from the front and returning
/// batches re-enter there, so the search is the rare case.
template <typename Fifo>
auto seq_position(Fifo& fifo, std::uint64_t seq) {
  if (fifo.empty() || fifo.front()->seq >= seq) return fifo.begin();
  if (fifo.back()->seq < seq) return fifo.end();
  return std::lower_bound(
      fifo.begin(), fifo.end(), seq,
      [](const auto* entry, std::uint64_t value) {
        return entry->seq < value;
      });
}

/// True when both entries exist and `a`, though first in seq order, was
/// enqueued after `b`.
template <typename Entry>
bool descends(const Entry* a, const Entry* b) {
  return a != nullptr && b != nullptr && a->enqueue_time > b->enqueue_time;
}

}  // namespace

void PriorityQueueCore::enqueue(std::uint64_t job_id, JobClass cls,
                                std::uint64_t total_shots,
                                common::TimeNs now) {
  enqueue(job_id, cls, total_shots, now, next_seq_);
}

void PriorityQueueCore::enqueue(std::uint64_t job_id, JobClass cls,
                                std::uint64_t total_shots, common::TimeNs now,
                                std::uint64_t seq,
                                std::optional<std::uint64_t> key) {
  assert(entries_.count(job_id) == 0 && in_flight_.count(job_id) == 0 &&
         "job already queued");
  Entry entry;
  entry.job_id = job_id;
  entry.key = key.value_or(job_id);
  entry.cls = cls;
  entry.remaining_shots = total_shots;
  entry.total_shots = total_shots;
  entry.enqueue_time = now;
  entry.seq = seq;
  if (next_seq_ <= seq) next_seq_ = seq + 1;
  const auto [it, added] = entries_.emplace(job_id, entry);
  if (added) insert_pending(it->second);
}

void PriorityQueueCore::insert_pending(const Entry& entry) {
  const std::size_t cls = class_index(entry.cls);
  auto [it, created] = buckets_[cls].try_emplace(entry.key);
  Bucket& bucket = it->second;
  if (created) {
    bucket.key = entry.key;
    bucket.cls = entry.cls;
    bucket.slot = live_.size();
    live_.push_back(&bucket);
  }
  auto& fifo = bucket.fifo;
  const auto pos = seq_position(fifo, entry.seq);
  const Entry* prev = pos == fifo.begin() ? nullptr : *(pos - 1);
  const Entry* next = pos == fifo.end() ? nullptr : *pos;
  if (descends(prev, next)) --bucket.inversions;
  if (descends(prev, &entry)) ++bucket.inversions;
  if (descends(&entry, next)) ++bucket.inversions;
  fifo.insert(pos, &entry);
  bucket.batches += batches_needed(policy_, entry.cls, entry.remaining_shots);
  ++class_depth_[cls];
}

void PriorityQueueCore::erase_pending(const Entry& entry) {
  const std::size_t cls = class_index(entry.cls);
  const auto it = buckets_[cls].find(entry.key);
  assert(it != buckets_[cls].end() && "pending entry without a bucket");
  Bucket& bucket = it->second;
  auto& fifo = bucket.fifo;
  const auto pos = seq_position(fifo, entry.seq);
  assert(pos != fifo.end() && *pos == &entry);
  const Entry* prev = pos == fifo.begin() ? nullptr : *(pos - 1);
  const Entry* next = pos + 1 == fifo.end() ? nullptr : *(pos + 1);
  if (descends(prev, &entry)) --bucket.inversions;
  if (descends(&entry, next)) --bucket.inversions;
  if (descends(prev, next)) ++bucket.inversions;
  fifo.erase(pos);
  bucket.batches -= batches_needed(policy_, entry.cls, entry.remaining_shots);
  --class_depth_[cls];
  if (fifo.empty()) {
    Bucket* moved = live_.back();
    live_[bucket.slot] = moved;
    moved->slot = bucket.slot;
    live_.pop_back();
    buckets_[cls].erase(it);
  }
}

bool PriorityQueueCore::rekey(std::uint64_t job_id, std::uint64_t key) {
  if (const auto it = entries_.find(job_id); it != entries_.end()) {
    if (it->second.key != key) {
      erase_pending(it->second);
      it->second.key = key;
      insert_pending(it->second);
    }
    return true;
  }
  if (const auto it = in_flight_.find(job_id); it != in_flight_.end()) {
    it->second.key = key;  // batch_done/batch_failed re-insert it there
    return true;
  }
  return false;
}

int PriorityQueueCore::effective_rank(const Entry& entry,
                                      common::TimeNs now) const {
  if (!policy_.class_priority) return 0;  // FIFO baseline: one class
  int rank = class_rank(entry.cls);
  if (policy_.age_to_boost > 0) {
    const auto boosts = static_cast<int>((now - entry.enqueue_time) /
                                         policy_.age_to_boost);
    rank = std::max(0, rank - boosts);
  }
  return rank;
}

PriorityQueueCore::Head PriorityQueueCore::head_of(const Entry& entry,
                                                   common::TimeNs now,
                                                   bool has_hook,
                                                   double hook) const {
  Head head;
  head.job_id = entry.job_id;
  head.cls = entry.cls;
  head.rank = effective_rank(entry, now);
  head.has_hook = has_hook;
  head.hook = hook;
  head.remaining_shots = entry.remaining_shots;
  head.seq = entry.seq;
  return head;
}

bool PriorityQueueCore::ordered(const Bucket& bucket) const {
  return !policy_.shortest_first_within_class && bucket.inversions == 0;
}

const PriorityQueueCore::Entry& PriorityQueueCore::bucket_head(
    const Bucket& bucket, common::TimeNs now) const {
  const Entry* best = bucket.fifo.front();
  if (ordered(bucket)) return *best;
  // Every entry shares the bucket's hook value, so it drops out of the
  // comparison.
  Head best_head = head_of(*best, now, false, 0.0);
  for (const Entry* entry : bucket.fifo) {
    const Head head = head_of(*entry, now, false, 0.0);
    if (head_before(head, best_head, policy_.shortest_first_within_class)) {
      best = entry;
      best_head = head;
    }
  }
  return *best;
}

std::optional<Batch> PriorityQueueCore::next_batch(common::TimeNs now) {
  return next_batch(now, [](std::uint64_t) { return true; });
}

std::optional<Batch> PriorityQueueCore::next_batch(
    common::TimeNs now, const EligibleFn& eligible) {
  const auto head = peek_head(now, eligible);
  if (!head.has_value()) return std::nullopt;
  return take(head->job_id);
}

std::optional<PriorityQueueCore::Head> PriorityQueueCore::peek_head(
    common::TimeNs now, const EligibleFn& eligible) const {
  // The winner is some eligible bucket's head. Seqs are unique, so
  // head_before is a total order and the minimum is exactly the first
  // eligible entry of the full dispatch order. A head ranked worse than
  // the best so far can never win, so its hook is not evaluated.
  std::optional<Head> best;
  for (const Bucket* bucket : live_) {
    if (!eligible(bucket->key)) continue;
    const Entry& entry = bucket_head(*bucket, now);
    if (best.has_value() && effective_rank(entry, now) > best->rank) {
      continue;
    }
    const bool has_hook = static_cast<bool>(priority_hook_);
    const Head head = head_of(entry, now, has_hook,
                              has_hook ? priority_hook_(bucket->key, now) : 0);
    if (!best.has_value() ||
        head_before(head, *best, policy_.shortest_first_within_class)) {
      best = head;
    }
  }
  return best;
}

void PriorityQueueCore::walk_before(
    const Head& pivot, common::TimeNs now,
    const std::function<void(const Bucket&, const Cut&)>& visit) const {
  const bool shortest_first = policy_.shortest_first_within_class;
  for (const Bucket* bucket : live_) {
    const auto& fifo = bucket->fifo;
    const bool is_ordered = ordered(*bucket);
    // In an ordered bucket the first entry ranks best: if even it ranks
    // worse than the pivot, nothing here precedes it.
    if (is_ordered && effective_rank(*fifo.front(), now) > pivot.rank) {
      continue;
    }
    Cut cut;
    cut.has_hook = static_cast<bool>(priority_hook_);
    if (cut.has_hook) cut.hook = priority_hook_(bucket->key, now);
    if (is_ordered) {
      // The entries before the pivot are a prefix: find where it ends.
      const auto before = [&](const Entry* entry) {
        return head_before(head_of(*entry, now, cut.has_hook, cut.hook),
                           pivot, shortest_first);
      };
      if (!before(fifo.front())) continue;
      cut.prefix = before(fifo.back())
                       ? fifo.size()
                       : static_cast<std::size_t>(
                             std::partition_point(fifo.begin() + 1,
                                                  fifo.end() - 1, before) -
                             fifo.begin());
    }
    visit(*bucket, cut);
  }
}

void PriorityQueueCore::count_before(
    const Head& pivot, common::TimeNs now,
    const std::function<void(const BucketAhead&)>& visit) const {
  walk_before(pivot, now, [&](const Bucket& bucket, const Cut& cut) {
    BucketAhead ahead;
    ahead.key = bucket.key;
    ahead.cls = bucket.cls;
    ahead.has_hook = cut.has_hook;
    ahead.hook = cut.hook;
    const auto& fifo = bucket.fifo;
    const auto batches = [&](const Entry* entry) {
      return batches_needed(policy_, entry->cls, entry->remaining_shots);
    };
    if (cut.prefix.has_value()) {
      // Sum the shorter side: the pivot's own bucket usually ends at it.
      const std::size_t prefix = *cut.prefix;
      ahead.jobs = prefix;
      if (prefix <= fifo.size() - prefix) {
        for (std::size_t i = 0; i < prefix; ++i) {
          ahead.batches += batches(fifo[i]);
        }
      } else {
        ahead.batches = bucket.batches;
        for (std::size_t i = prefix; i < fifo.size(); ++i) {
          ahead.batches -= batches(fifo[i]);
        }
      }
    } else {
      for (const Entry* entry : fifo) {
        if (head_before(head_of(*entry, now, cut.has_hook, cut.hook), pivot,
                        policy_.shortest_first_within_class)) {
          ++ahead.jobs;
          ahead.batches += batches(entry);
        }
      }
    }
    if (ahead.jobs > 0) visit(ahead);
  });
}

void PriorityQueueCore::for_each_before(
    const Head& pivot, common::TimeNs now,
    const std::function<void(const Head&)>& visit) const {
  walk_before(pivot, now, [&](const Bucket& bucket, const Cut& cut) {
    const std::size_t end = cut.prefix.value_or(bucket.fifo.size());
    for (std::size_t i = 0; i < end; ++i) {
      const Head head =
          head_of(*bucket.fifo[i], now, cut.has_hook, cut.hook);
      if (cut.prefix.has_value() ||
          head_before(head, pivot, policy_.shortest_first_within_class)) {
        visit(head);
      }
    }
  });
}

std::optional<PriorityQueueCore::Head> PriorityQueueCore::head_of(
    std::uint64_t job_id, common::TimeNs now) const {
  const auto it = entries_.find(job_id);
  if (it == entries_.end()) return std::nullopt;
  const bool has_hook = static_cast<bool>(priority_hook_);
  return head_of(it->second, now, has_hook,
                 has_hook ? priority_hook_(it->second.key, now) : 0);
}

std::vector<PriorityQueueCore::Head> PriorityQueueCore::snapshot_heads(
    common::TimeNs now) const {
  // The hook is evaluated once per bucket, not once per comparison: it
  // may consult the accounting subsystem, and the sort must see one
  // consistent priority per key for the whole pass.
  std::vector<Head> heads;
  heads.reserve(entries_.size());
  const bool has_hook = static_cast<bool>(priority_hook_);
  for (const Bucket* bucket : live_) {
    const double hook = has_hook ? priority_hook_(bucket->key, now) : 0;
    for (const Entry* entry : bucket->fifo) {
      heads.push_back(head_of(*entry, now, has_hook, hook));
    }
  }
  std::sort(heads.begin(), heads.end(), [&](const Head& a, const Head& b) {
    return head_before(a, b, policy_.shortest_first_within_class);
  });
  return heads;
}

bool PriorityQueueCore::head_before(const Head& a, const Head& b,
                                    bool shortest_first) noexcept {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.has_hook && b.has_hook && a.hook != b.hook) {
    return a.hook > b.hook;  // under-served first
  }
  if (shortest_first && a.remaining_shots != b.remaining_shots) {
    return a.remaining_shots < b.remaining_shots;
  }
  return a.seq < b.seq;
}

std::optional<Batch> PriorityQueueCore::take(std::uint64_t job_id) {
  auto node = entries_.extract(job_id);
  if (node.empty()) return std::nullopt;
  const Entry& head = node.mapped();
  erase_pending(head);
  Batch batch;
  batch.job_id = head.job_id;
  batch.cls = head.cls;
  const bool small_batches = policy_.non_production_batch_shots > 0 &&
                             head.cls != JobClass::kProduction;
  batch.shots = small_batches
                    ? std::min(head.remaining_shots,
                               policy_.non_production_batch_shots)
                    : head.remaining_shots;
  batch.final_batch = batch.shots >= head.remaining_shots;
  in_flight_.insert(std::move(node));
  return batch;
}

void PriorityQueueCore::batch_done(const Batch& batch) {
  auto node = in_flight_.extract(batch.job_id);
  assert(!node.empty() && "batch_done for unknown dispatch");
  Entry& entry = node.mapped();
  assert(batch.shots <= entry.remaining_shots);
  entry.remaining_shots -= batch.shots;
  if (entry.remaining_shots > 0) {
    // Keep the original seq: the job resumes its place within its bucket.
    insert_pending(entries_.insert(std::move(node)).position->second);
  }
}

void PriorityQueueCore::batch_failed(const Batch& batch) {
  auto node = in_flight_.extract(batch.job_id);
  assert(!node.empty() && "batch_failed for unknown dispatch");
  // The shots were never executed: the entry returns untouched, keeping its
  // seq so the job resumes its place once a healthy resource claims it.
  insert_pending(entries_.insert(std::move(node)).position->second);
}

bool PriorityQueueCore::remove(std::uint64_t job_id) {
  auto node = entries_.extract(job_id);
  if (node.empty()) return false;
  erase_pending(node.mapped());
  return true;
}

bool PriorityQueueCore::pending(std::uint64_t job_id) const {
  return entries_.count(job_id) > 0;
}

std::vector<std::uint64_t> PriorityQueueCore::snapshot(
    common::TimeNs now) const {
  std::vector<std::uint64_t> out;
  for (const Head& head : snapshot_heads(now)) out.push_back(head.job_id);
  return out;
}

}  // namespace qcenv::daemon

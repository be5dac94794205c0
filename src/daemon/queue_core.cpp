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

void PriorityQueueCore::enqueue(std::uint64_t job_id, JobClass cls,
                                std::uint64_t total_shots,
                                common::TimeNs now) {
  enqueue(job_id, cls, total_shots, now, next_seq_);
}

void PriorityQueueCore::enqueue(std::uint64_t job_id, JobClass cls,
                                std::uint64_t total_shots, common::TimeNs now,
                                std::uint64_t seq) {
  assert(entries_.count(job_id) == 0 && in_flight_.count(job_id) == 0 &&
         "job already queued");
  Entry entry;
  entry.job_id = job_id;
  entry.cls = cls;
  entry.remaining_shots = total_shots;
  entry.total_shots = total_shots;
  entry.enqueue_time = now;
  entry.seq = seq;
  if (next_seq_ <= seq) next_seq_ = seq + 1;
  entries_.emplace(job_id, entry);
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
                                                   int rank,
                                                   common::TimeNs now) const {
  Head head;
  head.job_id = entry.job_id;
  head.cls = entry.cls;
  head.rank = rank;
  if (priority_hook_) {
    head.has_hook = true;
    head.hook = priority_hook_(entry.job_id, now);
  }
  head.remaining_shots = entry.remaining_shots;
  head.seq = entry.seq;
  return head;
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
  // One min-scan: seqs are unique, so head_before is a total order and
  // the minimum eligible entry is exactly the first eligible entry of the
  // full dispatch order. An entry ranked worse than the best so far can
  // never win, so its hook is not evaluated.
  std::optional<Head> best;
  for (const auto& [job_id, entry] : entries_) {
    if (!eligible(job_id)) continue;
    const int rank = effective_rank(entry, now);
    if (best.has_value() && rank > best->rank) continue;
    const Head head = head_of(entry, rank, now);
    if (!best.has_value() ||
        head_before(head, *best, policy_.shortest_first_within_class)) {
      best = head;
    }
  }
  return best;
}

void PriorityQueueCore::for_each_before(
    const Head& pivot, common::TimeNs now,
    const std::function<void(const Head&)>& visit) const {
  for (const auto& [_, entry] : entries_) {
    const int rank = effective_rank(entry, now);
    if (rank > pivot.rank) continue;  // cannot precede the pivot
    const Head head = head_of(entry, rank, now);
    if (head_before(head, pivot, policy_.shortest_first_within_class)) {
      visit(head);
    }
  }
}

std::optional<PriorityQueueCore::Head> PriorityQueueCore::head_of(
    std::uint64_t job_id, common::TimeNs now) const {
  const auto it = entries_.find(job_id);
  if (it == entries_.end()) return std::nullopt;
  return head_of(it->second, effective_rank(it->second, now), now);
}

std::vector<PriorityQueueCore::Head> PriorityQueueCore::snapshot_heads(
    common::TimeNs now) const {
  // The hook is evaluated once per entry, not once per comparison: it may
  // consult the accounting subsystem, and the sort must see one
  // consistent priority per job for the whole pass.
  std::vector<Head> heads;
  heads.reserve(entries_.size());
  for (const auto& [_, entry] : entries_) {
    heads.push_back(head_of(entry, effective_rank(entry, now), now));
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
  const auto it = entries_.find(job_id);
  if (it == entries_.end()) return std::nullopt;
  const Entry& head = it->second;
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

  // Move the entry to the in-flight set.
  in_flight_.emplace(it->first, it->second);
  entries_.erase(it);
  return batch;
}

void PriorityQueueCore::batch_done(const Batch& batch) {
  const auto it = in_flight_.find(batch.job_id);
  assert(it != in_flight_.end() && "batch_done for unknown dispatch");
  Entry entry = it->second;
  in_flight_.erase(it);
  assert(batch.shots <= entry.remaining_shots);
  entry.remaining_shots -= batch.shots;
  if (entry.remaining_shots > 0) {
    // Keep the original seq: the job resumes its place within its class.
    entries_.emplace(entry.job_id, entry);
  }
}

bool PriorityQueueCore::any_pending(const EligibleFn& eligible) const {
  for (const auto& [job_id, _] : entries_) {
    if (eligible(job_id)) return true;
  }
  return false;
}

void PriorityQueueCore::batch_failed(const Batch& batch) {
  const auto it = in_flight_.find(batch.job_id);
  assert(it != in_flight_.end() && "batch_failed for unknown dispatch");
  Entry entry = it->second;
  in_flight_.erase(it);
  // The shots were never executed: the entry returns untouched, keeping its
  // seq so the job resumes its place once a healthy resource claims it.
  entries_.emplace(entry.job_id, entry);
}

bool PriorityQueueCore::remove(std::uint64_t job_id) {
  return entries_.erase(job_id) > 0;
}

bool PriorityQueueCore::pending(std::uint64_t job_id) const {
  return entries_.count(job_id) > 0;
}

std::size_t PriorityQueueCore::depth_of(JobClass cls) const {
  std::size_t count = 0;
  for (const auto& [_, entry] : entries_) {
    if (entry.cls == cls) ++count;
  }
  return count;
}

std::vector<std::uint64_t> PriorityQueueCore::snapshot(
    common::TimeNs now) const {
  std::vector<std::uint64_t> out;
  for (const Head& head : snapshot_heads(now)) out.push_back(head.job_id);
  return out;
}

}  // namespace qcenv::daemon

// PriorityQueueCore: the deterministic second-level scheduling policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "daemon/queue_core.hpp"

namespace qcenv::daemon {
namespace {

using common::kSecond;

QueuePolicy batched_policy(std::uint64_t batch = 100) {
  QueuePolicy policy;
  policy.class_priority = true;
  policy.non_production_batch_shots = batch;
  policy.age_to_boost = 0;
  return policy;
}

TEST(QueueCore, FifoWithinClass) {
  PriorityQueueCore core(batched_policy(0));
  core.enqueue(1, JobClass::kProduction, 10, 0);
  core.enqueue(2, JobClass::kProduction, 10, 1);
  core.enqueue(3, JobClass::kProduction, 10, 2);
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);
  EXPECT_EQ(core.next_batch(3)->job_id, 2u);
  EXPECT_EQ(core.next_batch(3)->job_id, 3u);
}

TEST(QueueCore, ClassPriorityOrdersAcrossClasses) {
  PriorityQueueCore core(batched_policy(0));
  core.enqueue(1, JobClass::kDevelopment, 10, 0);
  core.enqueue(2, JobClass::kTest, 10, 1);
  core.enqueue(3, JobClass::kProduction, 10, 2);
  EXPECT_EQ(core.next_batch(3)->job_id, 3u);  // production first
  EXPECT_EQ(core.next_batch(3)->job_id, 2u);  // then test
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);  // then development
}

TEST(QueueCore, FifoBaselineIgnoresClasses) {
  QueuePolicy policy = batched_policy(0);
  policy.class_priority = false;
  PriorityQueueCore core(policy);
  core.enqueue(1, JobClass::kDevelopment, 10, 0);
  core.enqueue(2, JobClass::kProduction, 10, 1);
  EXPECT_EQ(core.next_batch(2)->job_id, 1u);  // strict arrival order
}

TEST(QueueCore, ProductionJobsDispatchWholeShots) {
  PriorityQueueCore core(batched_policy(50));
  core.enqueue(1, JobClass::kProduction, 1000, 0);
  const auto batch = core.next_batch(0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->shots, 1000u);
  EXPECT_TRUE(batch->final_batch);
}

TEST(QueueCore, NonProductionJobsAreChopped) {
  PriorityQueueCore core(batched_policy(50));
  core.enqueue(1, JobClass::kDevelopment, 120, 0);
  auto batch1 = core.next_batch(0);
  ASSERT_TRUE(batch1.has_value());
  EXPECT_EQ(batch1->shots, 50u);
  EXPECT_FALSE(batch1->final_batch);
  core.batch_done(*batch1);
  auto batch2 = core.next_batch(1);
  EXPECT_EQ(batch2->shots, 50u);
  core.batch_done(*batch2);
  auto batch3 = core.next_batch(2);
  EXPECT_EQ(batch3->shots, 20u);
  EXPECT_TRUE(batch3->final_batch);
  core.batch_done(*batch3);
  EXPECT_EQ(core.depth(), 0u);
}

TEST(QueueCore, ProductionArrivalWaitsAtMostOneBatch) {
  // The paper's key property: a production job arriving mid-development-job
  // preempts at the batch boundary, not at job completion.
  PriorityQueueCore core(batched_policy(10));
  core.enqueue(1, JobClass::kDevelopment, 100, 0);
  auto dev_batch = core.next_batch(0);
  ASSERT_EQ(dev_batch->shots, 10u);
  // Production arrives while the dev batch is in flight.
  core.enqueue(2, JobClass::kProduction, 500, 1);
  core.batch_done(*dev_batch);
  // Next dispatch must be the production job, not the dev remainder.
  auto next = core.next_batch(2);
  EXPECT_EQ(next->job_id, 2u);
  EXPECT_EQ(next->shots, 500u);
  core.batch_done(*next);
  // Dev job resumes afterwards.
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);
}

TEST(QueueCore, RemainderKeepsPositionWithinClass) {
  PriorityQueueCore core(batched_policy(10));
  core.enqueue(1, JobClass::kDevelopment, 30, 0);
  core.enqueue(2, JobClass::kDevelopment, 30, 1);
  auto batch = core.next_batch(2);
  EXPECT_EQ(batch->job_id, 1u);
  core.batch_done(*batch);
  // Job 1's remainder still precedes job 2 (contiguous batches).
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);
}

TEST(QueueCore, AgingPromotesStarvedJobs) {
  QueuePolicy policy = batched_policy(0);
  policy.age_to_boost = 60 * kSecond;
  PriorityQueueCore core(policy);
  core.enqueue(1, JobClass::kDevelopment, 10, 0);
  core.enqueue(2, JobClass::kProduction, 10, 100 * kSecond);
  // At t=130s the dev job has waited 130s > 2 boosts worth: rank 2-2=0,
  // equal to production; FIFO seq then favours the dev job.
  EXPECT_EQ(core.next_batch(130 * kSecond)->job_id, 1u);
}

TEST(QueueCore, RemoveCancelsPending) {
  PriorityQueueCore core(batched_policy(0));
  core.enqueue(1, JobClass::kTest, 10, 0);
  EXPECT_TRUE(core.pending(1));
  EXPECT_TRUE(core.remove(1));
  EXPECT_FALSE(core.remove(1));
  EXPECT_FALSE(core.next_batch(1).has_value());
}

TEST(QueueCore, DepthAccounting) {
  PriorityQueueCore core(batched_policy(10));
  core.enqueue(1, JobClass::kProduction, 10, 0);
  core.enqueue(2, JobClass::kDevelopment, 10, 0);
  core.enqueue(3, JobClass::kDevelopment, 10, 0);
  EXPECT_EQ(core.depth(), 3u);
  EXPECT_EQ(core.depth_of(JobClass::kDevelopment), 2u);
  EXPECT_EQ(core.depth_of(JobClass::kProduction), 1u);
  EXPECT_EQ(core.depth_of(JobClass::kTest), 0u);
  const auto order = core.snapshot(0);
  EXPECT_EQ(order.front(), 1u);
}

TEST(QueueCore, EmptyQueueReturnsNothing) {
  PriorityQueueCore core(batched_policy());
  EXPECT_FALSE(core.next_batch(0).has_value());
}


TEST(QueueCore, ShortestFirstWithinClass) {
  // Pattern-aware ordering (the paper's §3.5 "expected time running on
  // the QC hardware" hint): within a class, less remaining work first.
  QueuePolicy policy = batched_policy(0);
  policy.shortest_first_within_class = true;
  PriorityQueueCore core(policy);
  core.enqueue(1, JobClass::kTest, 500, 0);
  core.enqueue(2, JobClass::kTest, 50, 1);
  core.enqueue(3, JobClass::kProduction, 900, 2);
  core.enqueue(4, JobClass::kTest, 200, 3);
  // Production still first (class priority beats SJF) ...
  EXPECT_EQ(core.next_batch(4)->job_id, 3u);
  // ... then tests by ascending remaining shots.
  EXPECT_EQ(core.next_batch(4)->job_id, 2u);
  EXPECT_EQ(core.next_batch(4)->job_id, 4u);
  EXPECT_EQ(core.next_batch(4)->job_id, 1u);
}

TEST(QueueCore, RandomizedShotConservation) {
  // Property: across any interleaving of enqueue/next_batch/batch_done,
  // dispatched shots per job sum exactly to the enqueued total.
  common::Rng rng(77);
  PriorityQueueCore core(batched_policy(17));
  std::map<std::uint64_t, std::uint64_t> requested, dispatched;
  std::vector<Batch> in_flight;
  std::uint64_t next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.3) {
      const auto shots =
          static_cast<std::uint64_t>(rng.uniform_int(1, 300));
      const auto cls = static_cast<JobClass>(rng.uniform_int(0, 2));
      requested[next_id] = shots;
      core.enqueue(next_id, cls, shots, step);
      ++next_id;
    } else if (roll < 0.7) {
      auto batch = core.next_batch(step);
      if (batch.has_value()) in_flight.push_back(*batch);
    } else if (!in_flight.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
      const Batch batch = in_flight[pick];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      dispatched[batch.job_id] += batch.shots;
      core.batch_done(batch);
    }
  }
  // Drain everything still queued or in flight.
  while (true) {
    auto batch = core.next_batch(100000);
    if (!batch.has_value()) break;
    dispatched[batch->job_id] += batch->shots;
    core.batch_done(*batch);
  }
  for (const Batch& batch : in_flight) {
    dispatched[batch.job_id] += batch.shots;
    core.batch_done(batch);
  }
  while (true) {
    auto batch = core.next_batch(200000);
    if (!batch.has_value()) break;
    dispatched[batch->job_id] += batch->shots;
    core.batch_done(*batch);
  }
  EXPECT_EQ(core.depth(), 0u);
  for (const auto& [job, shots] : requested) {
    EXPECT_EQ(dispatched[job], shots) << "job " << job;
  }
}

// ---- single-pass head selection vs a reference full sort ------------------
//
// peek_head, next_batch and for_each_before answer in one unsorted pass;
// the claim is that they give exactly what a full sort of the queue would:
// the head is the first eligible entry of the sorted order, and the jobs
// "before" a pivot are exactly its prefix. The reference below recomputes
// the order from the test's own bookkeeping with its own comparator.

struct RefJob {
  std::uint64_t id = 0;
  JobClass cls = JobClass::kDevelopment;
  std::uint64_t remaining = 0;
  common::TimeNs enqueued = 0;
  std::size_t shard = 0;
  int lane = -1;  // -1 = unplaced: every lane may serve it
  double hook = 0.0;
};

enum class HookMode { kNone, kTied, kUntied };

struct PropertyCase {
  std::uint64_t seed;
  std::size_t shards;
  bool shortest_first;
  HookMode hooks;
};

class QueueCoreProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(QueueCoreProperty, SinglePassMatchesReferenceSort) {
  const PropertyCase param = GetParam();
  common::Rng rng(param.seed);
  QueuePolicy policy;
  policy.class_priority = true;
  policy.non_production_batch_shots = 25;
  policy.age_to_boost = 10 * kSecond;
  policy.shortest_first_within_class = param.shortest_first;

  std::map<std::uint64_t, RefJob> jobs;
  std::vector<std::unique_ptr<PriorityQueueCore>> cores;
  for (std::size_t i = 0; i < param.shards; ++i) {
    cores.push_back(std::make_unique<PriorityQueueCore>(policy));
    if (param.hooks != HookMode::kNone) {
      cores.back()->set_priority_hook(
          [&jobs](std::uint64_t id, common::TimeNs) {
            return jobs.at(id).hook;
          });
    }
  }
  const std::uint64_t job_count =
      static_cast<std::uint64_t>(rng.uniform_int(20, 120));
  for (std::uint64_t id = 1; id <= job_count; ++id) {
    RefJob job;
    job.id = id;
    job.cls = static_cast<JobClass>(rng.uniform_int(0, 2));
    // Few distinct sizes, so shortest-first meets ties that fall to seq.
    job.remaining = static_cast<std::uint64_t>(25 * rng.uniform_int(1, 4));
    job.enqueued = rng.uniform_int(0, 40) * kSecond / 2;
    job.shard = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(param.shards) - 1));
    job.lane = static_cast<int>(rng.uniform_int(-1, 2));
    job.hook = param.hooks == HookMode::kTied
                   ? 0.5 * static_cast<double>(rng.uniform_int(0, 2))
                   : rng.uniform(0.1, 3.0);
    jobs[id] = job;
    cores[job.shard]->enqueue(id, job.cls, job.remaining, job.enqueued, id);
  }

  const auto reference = [&](common::TimeNs now) {
    const auto rank = [&](const RefJob& job) {
      const int boosts = static_cast<int>((now - job.enqueued) /
                                          policy.age_to_boost);
      return std::max(0, class_rank(job.cls) - boosts);
    };
    std::vector<const RefJob*> order;
    for (const auto& [_, job] : jobs) order.push_back(&job);
    std::sort(order.begin(), order.end(),
              [&](const RefJob* a, const RefJob* b) {
                if (rank(*a) != rank(*b)) return rank(*a) < rank(*b);
                if (param.hooks != HookMode::kNone && a->hook != b->hook) {
                  return a->hook > b->hook;
                }
                if (param.shortest_first && a->remaining != b->remaining) {
                  return a->remaining < b->remaining;
                }
                return a->id < b->id;
              });
    return order;
  };

  // Start where every job is young enough to sit at its class rank and
  // step across several age_to_boost boundaries, including exact ones.
  common::TimeNs now = 20 * kSecond;
  for (int step = 0; step < 60 && !jobs.empty(); ++step) {
    now += step % 7 == 0 ? policy.age_to_boost - now % policy.age_to_boost
                         : rng.uniform_int(0, 3) * kSecond / 2;
    const auto order = reference(now);

    // Every entry before a pivot, across all shards, is exactly the
    // pivot's prefix in the reference order.
    const std::size_t pivot_at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(order.size()) - 1));
    const RefJob& pivot_job = *order[pivot_at];
    const auto pivot = cores[pivot_job.shard]->head_of(pivot_job.id, now);
    ASSERT_TRUE(pivot.has_value());
    std::set<std::uint64_t> before;
    for (const auto& core : cores) {
      core->for_each_before(*pivot, now,
                            [&](const PriorityQueueCore::Head& head) {
                              EXPECT_TRUE(before.insert(head.job_id).second);
                            });
    }
    std::set<std::uint64_t> expected_before;
    for (std::size_t i = 0; i < pivot_at; ++i) {
      expected_before.insert(order[i]->id);
    }
    ASSERT_EQ(before, expected_before) << "pivot job " << pivot_job.id;

    // Tournament over per-shard single-pass heads == first eligible entry
    // of the reference order, for the lane that dispatches next.
    const int lane = static_cast<int>(rng.uniform_int(0, 2));
    const auto eligible = [&](std::uint64_t id) {
      const int placed = jobs.at(id).lane;
      return placed == lane || placed < 0;
    };
    const RefJob* expected = nullptr;
    for (const RefJob* job : order) {
      if (eligible(job->id)) {
        expected = job;
        break;
      }
    }
    std::optional<PriorityQueueCore::Head> best;
    std::size_t best_shard = 0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const auto head = cores[i]->peek_head(now, eligible);
      if (head.has_value() &&
          (!best.has_value() || PriorityQueueCore::head_before(
                                    *head, *best, param.shortest_first))) {
        best = head;
        best_shard = i;
      }
    }
    if (expected == nullptr) {
      EXPECT_FALSE(best.has_value());
      continue;
    }
    ASSERT_TRUE(best.has_value());
    ASSERT_EQ(best->job_id, expected->id) << "step " << step;

    // Dispatch it (next_batch on the winning shard runs the same scan
    // restricted to that shard) and mirror the batch in the reference.
    const auto batch = cores[best_shard]->next_batch(now, eligible);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->job_id, expected->id);
    cores[best_shard]->batch_done(*batch);
    RefJob& served = jobs.at(batch->job_id);
    served.remaining -= batch->shots;
    if (served.remaining == 0) jobs.erase(batch->job_id);
  }
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      for (const bool shortest_first : {false, true}) {
        for (const HookMode hooks :
             {HookMode::kNone, HookMode::kTied, HookMode::kUntied}) {
          cases.push_back({seed, shards, shortest_first, hooks});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SeededQueues, QueueCoreProperty,
                         ::testing::ValuesIn(property_cases()));

// ---- shared buckets vs a reference full sort --------------------------------
//
// QueueCoreProperty gives every job its own key, so every bucket holds one
// entry. Here 8-64 keys share hundreds of jobs, each key with its own lane
// and hook value, while jobs arrive, finish, fail, are cancelled and change
// key mid-run: the head must still be the first eligible entry of a full
// sort, and the per-bucket aggregates before a pivot must add up to the
// sorted prefix. kMonotone keeps enqueue times non-decreasing in seq (the
// first-entry fast path); kShuffled draws them at random and
// kShortestFirst adds shortest-first on top (both scan the bucket).

enum class TimeMode { kMonotone, kShuffled, kShortestFirst };

struct BucketCase {
  std::uint64_t seed;
  TimeMode mode;
};

class BucketedQueueProperty : public ::testing::TestWithParam<BucketCase> {};

TEST_P(BucketedQueueProperty, BucketHeadsAndAggregatesMatchReferenceSort) {
  const BucketCase param = GetParam();
  common::Rng rng(param.seed);
  QueuePolicy policy;
  policy.class_priority = true;
  policy.non_production_batch_shots = 25;
  policy.age_to_boost = 10 * kSecond;
  policy.shortest_first_within_class = param.mode == TimeMode::kShortestFirst;
  const bool monotone = param.mode == TimeMode::kMonotone;

  struct Key {
    int lane = -1;  // -1 = unplaced: every lane may serve it
    double hook = 0.0;
  };
  struct Job {
    std::uint64_t key = 0;
    JobClass cls = JobClass::kDevelopment;
    std::uint64_t remaining = 0;
    common::TimeNs enqueued = 0;
    bool in_flight = false;
  };
  constexpr std::size_t kShards = 2;  // a key always lives in one shard
  const auto key_count = static_cast<std::uint64_t>(rng.uniform_int(8, 64));
  std::vector<Key> keys(key_count);
  const auto draw_key = [&](Key& key) {
    key.lane = static_cast<int>(rng.uniform_int(-1, 2));
    // Few distinct values, so hook ties fall through to seq.
    key.hook = 0.5 * static_cast<double>(rng.uniform_int(0, 3));
  };
  for (Key& key : keys) draw_key(key);

  std::map<std::uint64_t, Job> jobs;
  std::vector<std::unique_ptr<PriorityQueueCore>> cores;
  for (std::size_t i = 0; i < kShards; ++i) {
    cores.push_back(std::make_unique<PriorityQueueCore>(policy));
    cores.back()->set_priority_hook(
        [&keys](std::uint64_t key, common::TimeNs) {
          return keys.at(key).hook;
        });
  }
  const auto core_of = [&](std::uint64_t key) -> PriorityQueueCore& {
    return *cores[key % kShards];
  };

  common::TimeNs now = 20 * kSecond;
  std::uint64_t next_id = 1;
  const auto submit = [&](common::TimeNs at) {
    Job job;
    job.key = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(key_count) - 1));
    job.cls = static_cast<JobClass>(rng.uniform_int(0, 2));
    job.remaining = static_cast<std::uint64_t>(25 * rng.uniform_int(1, 4));
    job.enqueued = at;
    const std::uint64_t id = next_id++;
    jobs[id] = job;
    core_of(job.key).enqueue(id, job.cls, job.remaining, at, id, job.key);
  };
  const auto initial = rng.uniform_int(100, 300);
  common::TimeNs clock = 0;
  for (std::int64_t i = 0; i < initial; ++i) {
    if (monotone) {
      clock += rng.uniform_int(0, 2) * kSecond / 10;
      submit(clock);
    } else {
      submit(rng.uniform_int(0, 40) * kSecond / 2);
    }
  }

  const auto rank_of = [&](const Job& job) {
    const int boosts =
        static_cast<int>((now - job.enqueued) / policy.age_to_boost);
    return std::max(0, class_rank(job.cls) - boosts);
  };
  const auto reference = [&] {
    std::vector<std::uint64_t> order;
    for (const auto& [id, job] : jobs) {
      if (!job.in_flight) order.push_back(id);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                const Job& x = jobs.at(a);
                const Job& y = jobs.at(b);
                if (rank_of(x) != rank_of(y)) return rank_of(x) < rank_of(y);
                const double hx = keys[x.key].hook;
                const double hy = keys[y.key].hook;
                if (hx != hy) return hx > hy;
                if (policy.shortest_first_within_class &&
                    x.remaining != y.remaining) {
                  return x.remaining < y.remaining;
                }
                return a < b;
              });
    return order;
  };

  std::vector<Batch> in_flight;
  const auto finish = [&](std::size_t index, bool failed) {
    const Batch batch = in_flight[index];
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(index));
    Job& job = jobs.at(batch.job_id);
    PriorityQueueCore& core = core_of(job.key);
    job.in_flight = false;
    if (failed) {
      core.batch_failed(batch);
      return;
    }
    core.batch_done(batch);
    job.remaining -= batch.shots;
    if (job.remaining == 0) jobs.erase(batch.job_id);
  };

  for (int step = 0; step < 150; ++step) {
    now += step % 9 == 0 ? policy.age_to_boost - now % policy.age_to_boost
                         : rng.uniform_int(0, 3) * kSecond / 2;
    // Mid-run churn: arrivals, returning batches, cancels, re-placements
    // and hook changes.
    const double roll = rng.uniform();
    if (roll < 0.2) {
      submit(monotone ? now : rng.uniform_int(0, 80) * kSecond / 2);
    } else if (roll < 0.4 && !in_flight.empty()) {
      finish(static_cast<std::size_t>(rng.uniform_int(
                 0, static_cast<std::int64_t>(in_flight.size()) - 1)),
             rng.bernoulli(0.4));
    } else if (roll < 0.55 && !jobs.empty()) {
      // rekey a pending or in-flight job within its shard.
      auto it = jobs.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(jobs.size()) - 1));
      const std::uint64_t shard = it->second.key % kShards;
      std::uint64_t key = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(key_count) - 1));
      key = key - key % kShards + shard;
      if (key >= key_count) key = shard;
      ASSERT_TRUE(core_of(it->second.key).rekey(it->first, key));
      it->second.key = key;
    } else if (roll < 0.65 && !jobs.empty()) {
      auto it = jobs.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(jobs.size()) - 1));
      const bool was_pending = !it->second.in_flight;
      ASSERT_EQ(core_of(it->second.key).remove(it->first), was_pending);
      if (was_pending) jobs.erase(it);
    } else if (roll < 0.7) {
      draw_key(keys[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(key_count) - 1))]);
    }

    const auto order = reference();
    std::size_t depth = 0;
    for (const auto& core : cores) depth += core->depth();
    ASSERT_EQ(depth, order.size());
    if (order.empty()) continue;

    // Aggregates before a pivot, per key, equal the reference prefix.
    const std::size_t pivot_at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(order.size()) - 1));
    const std::uint64_t pivot_id = order[pivot_at];
    const auto pivot = core_of(jobs.at(pivot_id).key).head_of(pivot_id, now);
    ASSERT_TRUE(pivot.has_value());
    struct Ahead {
      std::size_t jobs = 0;
      std::uint64_t batches = 0;
      double hook = -1.0;
      bool operator==(const Ahead&) const = default;
    };
    std::map<std::uint64_t, Ahead> expected_ahead;
    for (std::size_t i = 0; i < pivot_at; ++i) {
      const Job& job = jobs.at(order[i]);
      Ahead& ahead = expected_ahead[job.key];
      ++ahead.jobs;
      ahead.batches += batches_needed(policy, job.cls, job.remaining);
      ahead.hook = std::max(ahead.hook, keys[job.key].hook);
    }
    std::map<std::uint64_t, Ahead> ahead_by_key;
    std::size_t walked = 0;
    for (const auto& core : cores) {
      core->count_before(*pivot, now,
                         [&](const PriorityQueueCore::BucketAhead& bucket) {
                           ASSERT_TRUE(bucket.has_hook);
                           Ahead& ahead = ahead_by_key[bucket.key];
                           ahead.jobs += bucket.jobs;
                           ahead.batches += bucket.batches;
                           ahead.hook = std::max(ahead.hook, bucket.hook);
                         });
      core->for_each_before(*pivot, now,
                            [&](const PriorityQueueCore::Head&) { ++walked; });
    }
    ASSERT_EQ(ahead_by_key, expected_ahead)
        << "pivot job " << pivot_id << " step " << step;
    ASSERT_EQ(walked, pivot_at);

    // Tournament over the shards' bucket heads == first eligible entry.
    const int lane = static_cast<int>(rng.uniform_int(0, 2));
    const auto eligible = [&](std::uint64_t key) {
      return keys.at(key).lane == lane || keys.at(key).lane < 0;
    };
    std::optional<std::uint64_t> expected;
    for (const std::uint64_t id : order) {
      if (eligible(jobs.at(id).key)) {
        expected = id;
        break;
      }
    }
    std::optional<PriorityQueueCore::Head> best;
    for (const auto& core : cores) {
      const auto head = core->peek_head(now, eligible);
      if (head.has_value() &&
          (!best.has_value() ||
           PriorityQueueCore::head_before(
               *head, *best, policy.shortest_first_within_class))) {
        best = head;
      }
    }
    ASSERT_EQ(best.has_value(), expected.has_value());
    if (!expected.has_value()) continue;
    ASSERT_EQ(best->job_id, *expected) << "step " << step;

    // Dispatch it; the batch returns at a later step.
    const auto batch = core_of(jobs.at(*expected).key).take(*expected);
    ASSERT_TRUE(batch.has_value());
    jobs.at(*expected).in_flight = true;
    in_flight.push_back(*batch);
  }
  for (const auto& core : cores) {
    for (const JobClass cls :
         {JobClass::kProduction, JobClass::kTest, JobClass::kDevelopment}) {
      std::size_t expected = 0;
      for (const auto& [_, job] : jobs) {
        if (!job.in_flight && job.cls == cls &&
            &core_of(job.key) == core.get()) {
          ++expected;
        }
      }
      EXPECT_EQ(core->depth_of(cls), expected);
    }
  }
}

std::vector<BucketCase> bucket_cases() {
  std::vector<BucketCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const TimeMode mode : {TimeMode::kMonotone, TimeMode::kShuffled,
                                TimeMode::kShortestFirst}) {
      cases.push_back({seed, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SeededQueues, BucketedQueueProperty,
                         ::testing::ValuesIn(bucket_cases()));

TEST(QueueCore, ClassNames) {
  EXPECT_STREQ(to_string(JobClass::kProduction), "production");
  EXPECT_STREQ(to_string(JobClass::kTest), "test");
  EXPECT_STREQ(to_string(JobClass::kDevelopment), "development");
  EXPECT_LT(class_rank(JobClass::kProduction),
            class_rank(JobClass::kDevelopment));
}

}  // namespace
}  // namespace qcenv::daemon

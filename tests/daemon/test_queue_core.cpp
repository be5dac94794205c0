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

TEST(QueueCore, ClassNames) {
  EXPECT_STREQ(to_string(JobClass::kProduction), "production");
  EXPECT_STREQ(to_string(JobClass::kTest), "test");
  EXPECT_STREQ(to_string(JobClass::kDevelopment), "development");
  EXPECT_LT(class_rank(JobClass::kProduction),
            class_rank(JobClass::kDevelopment));
}

}  // namespace
}  // namespace qcenv::daemon

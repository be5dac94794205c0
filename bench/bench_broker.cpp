// Experiment B1 — the multi-QPU resource broker.
// Quantifies what fleet dispatch buys and what failover costs:
//   (a) throughput: one shared priority queue drained by 1 vs 3 emulator
//       resources at an equal shot budget (acceptance: fleet > 1.5x single),
//   (b) failover: a resource dies mid-run; all jobs must finish on the
//       survivors with zero lost shots,
//   (c) depth scaling: a dispatch from the queue core and the ETA of the
//       newest job at 100 and at 100k pending jobs over 64 users
//       (acceptance: each costs at most 3x more at 100k).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "accounting/accounting.hpp"
#include "bench_util.hpp"
#include "broker/broker.hpp"
#include "daemon/dispatcher.hpp"
#include "daemon/eta.hpp"
#include "qrmi/local_emulator.hpp"

namespace {
using namespace qcenv;
using namespace qcenv::bench;
using quantum::Payload;

Payload work_payload(std::uint64_t shots) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(6, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(400, 2.0),
                               quantum::Waveform::constant(400, 0.5), 0.0});
  return Payload::from_sequence(seq, shots);
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FleetRun {
  double wall_s = 0;
  std::uint64_t shots = 0;
  std::vector<broker::ResourceStatus> fleet;
};

FleetRun run_fleet(std::size_t resources, int jobs,
                   std::uint64_t shots_per_job) {
  common::WallClock clock;
  broker::BrokerOptions options;
  options.default_policy = broker::SchedulingPolicy::kRoundRobin;
  auto fleet =
      std::make_shared<broker::ResourceBroker>(options, &clock, nullptr);
  for (std::size_t i = 0; i < resources; ++i) {
    const std::string name = "emu" + std::to_string(i);
    (void)fleet->add(name,
                     qrmi::LocalEmulatorQrmi::create(name, "sv").value());
  }
  daemon::QueuePolicy queue_policy;
  queue_policy.non_production_batch_shots = 50;
  daemon::Dispatcher dispatcher(fleet, queue_policy, &clock, nullptr);

  const double t0 = now_ms();
  std::vector<std::uint64_t> ids;
  for (int j = 0; j < jobs; ++j) {
    ids.push_back(dispatcher.submit(common::SessionId{1}, "bench",
                                    daemon::JobClass::kDevelopment,
                                    work_payload(shots_per_job)));
  }
  std::uint64_t shots = 0;
  for (const auto id : ids) {
    auto samples = dispatcher.wait(id, 300 * common::kSecond);
    if (samples.ok()) shots += samples.value().total_shots();
  }
  FleetRun run;
  run.wall_s = (now_ms() - t0) / 1000.0;
  run.shots = shots;
  run.fleet = fleet->snapshot();
  return run;
}

constexpr std::size_t kUsers = 64;
constexpr std::size_t kShallow = 100;
constexpr std::size_t kDeep = 100'000;

std::string user_name(std::size_t user) {
  return "user-" + std::to_string(user);
}

/// Usage that gives the 64 users distinct fair-share factors.
void charge_users(accounting::AccountingManager& manager) {
  for (std::size_t user = 0; user < kUsers; ++user) {
    manager.charge_batch(user_name(user), 100 * (user % 8 + 1),
                         common::kMillisecond, 0);
  }
}

/// Best of the samples: time on a shared host only ever adds to them.
double best(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

struct DispatchCost {
  double select_us = 0;  // peek_head alone
  double cycle_us = 0;   // select + take + finish + replacement enqueue
};

/// Per-dispatch cost of one PriorityQueueCore holding `depth` jobs of 64
/// users on one lane: select the head, take it, finish it and submit a
/// replacement for the same user, so the depth holds. The hook has the
/// dispatcher's shape: one fair-share table per `now`, then one cached
/// factor per user id. `now` moves once per sample, so the
/// depth-independent table computation (tens of microseconds for 64
/// users) does not mask the queue's own cost.
DispatchCost core_dispatch_us(std::size_t depth) {
  common::ManualClock clock;
  accounting::AccountingManager manager({}, &clock, nullptr);
  charge_users(manager);
  std::vector<std::string> names;
  for (std::size_t user = 0; user < kUsers; ++user) {
    names.push_back(user_name(user));
  }
  daemon::PriorityQueueCore core{daemon::QueuePolicy{}};
  core.set_priority_hook(
      [&manager, &names, memo_now = common::TimeNs{-1},
       table = std::map<std::string, double>{}, pass = std::uint64_t{0},
       cache = std::vector<std::pair<std::uint64_t, double>>(kUsers)](
          std::uint64_t key, common::TimeNs now) mutable {
        if (now != memo_now) {
          table = manager.priorities(now);
          memo_now = now;
          ++pass;
        }
        auto& [stamp, factor] = cache[key >> 32];
        if (stamp != pass) {
          stamp = pass;
          factor = table.at(names[key >> 32]);
        }
        return factor;
      });
  constexpr std::uint64_t kLane = 1;  // the key's placement half
  const auto key_of = [](std::uint64_t user) { return user << 32 | kLane; };
  constexpr int kSamples = 7;
  constexpr int kPerSample = 2000;
  std::vector<std::uint64_t> user_of(depth + kSamples * kPerSample);
  std::uint64_t seq = 0;
  common::TimeNs now = 0;
  for (; seq < depth; ++seq) {
    user_of[seq] = seq % kUsers;
    core.enqueue(seq, daemon::JobClass::kDevelopment, 100, now, seq,
                 key_of(user_of[seq]));
  }
  const auto eligible = [](std::uint64_t key) {
    const auto placed = static_cast<std::uint32_t>(key);
    return placed == 0 || placed == kLane;
  };
  std::vector<double> select_samples;
  std::vector<double> cycle_samples;
  for (int sample = 0; sample < kSamples; ++sample) {
    now += common::kMillisecond;
    double select_ms = 0;
    const double t0 = now_ms();
    for (int i = 0; i < kPerSample; ++i) {
      const double s0 = now_ms();
      const auto head = core.peek_head(now, eligible);
      select_ms += now_ms() - s0;
      const auto batch = core.take(head->job_id);
      core.batch_done(*batch);
      user_of[seq] = user_of[head->job_id];
      core.enqueue(seq, daemon::JobClass::kDevelopment, 100, now, seq,
                   key_of(user_of[seq]));
      ++seq;
    }
    cycle_samples.push_back((now_ms() - t0) * 1e3 / kPerSample);
    select_samples.push_back(select_ms * 1e3 / kPerSample);
  }
  return {best(select_samples), best(cycle_samples)};
}

/// Microseconds per EtaEngine::estimate of the newest job, with `depth`
/// jobs of 64 users queued behind a drained one-lane dispatcher (the
/// submit-201 ETA at that depth).
double eta_newest_us(std::size_t depth) {
  common::WallClock clock;
  auto fleet = std::make_shared<broker::ResourceBroker>(
      broker::BrokerOptions{}, &clock, nullptr);
  (void)fleet->add("emu0",
                   qrmi::LocalEmulatorQrmi::create("emu0", "sv").value());
  accounting::AccountingManager manager({}, &clock, nullptr);
  charge_users(manager);
  daemon::QueuePolicy policy;
  daemon::Dispatcher dispatcher(fleet, policy, &clock, nullptr, nullptr,
                                &manager);
  dispatcher.drain();
  daemon::EtaEngine eta({.dispatcher = &dispatcher,
                         .broker = fleet.get(),
                         .accounting = &manager,
                         .tsdb = nullptr,
                         .events = nullptr,
                         .clock = &clock,
                         .policy = policy},
                        daemon::EtaOptions{});
  const auto payload = std::make_shared<const Payload>(work_payload(100));
  std::uint64_t newest = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    newest = dispatcher
                 .submit(common::SessionId{1}, user_name(i % kUsers),
                         daemon::JobClass::kDevelopment, payload, {})
                 .value();
  }
  // The newest job's index in the full sorted queue is its jobs ahead.
  const auto order = dispatcher.pending_snapshot().entries;
  std::size_t ahead = 0;
  while (order[ahead].job_id != newest) ++ahead;
  constexpr int kPerSample = 200;
  std::vector<double> samples;
  for (int sample = 0; sample < 7; ++sample) {
    const double t0 = now_ms();
    for (int i = 0; i < kPerSample; ++i) {
      if (eta.estimate(newest).value().jobs_ahead != ahead) return -1.0;
    }
    samples.push_back((now_ms() - t0) * 1e3 / kPerSample);
  }
  return best(samples);
}
}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const int jobs = quick ? 9 : 30;
  const std::uint64_t shots_per_job = quick ? 150 : 400;

  // ---- (a) fleet throughput ----------------------------------------------
  print_title("B1a | Fleet throughput: " + std::to_string(jobs) + " jobs x " +
              std::to_string(shots_per_job) +
              " shots through one queue, 1 vs 3 emulator resources");
  const FleetRun single = run_fleet(1, jobs, shots_per_job);
  const FleetRun fleet = run_fleet(3, jobs, shots_per_job);
  Table throughput({"fleet", "shots", "wall", "throughput", "speedup"});
  throughput.add_row({"1 resource", std::to_string(single.shots),
                      fmt("%.2f s", single.wall_s),
                      fmt("%.0f shots/s",
                          static_cast<double>(single.shots) / single.wall_s),
                      "1.00x"});
  const double speedup = single.wall_s / fleet.wall_s;
  throughput.add_row({"3 resources", std::to_string(fleet.shots),
                      fmt("%.2f s", fleet.wall_s),
                      fmt("%.0f shots/s",
                          static_cast<double>(fleet.shots) / fleet.wall_s),
                      fmt("%.2fx", speedup)});
  throughput.print();
  if (speedup <= 1.5) {
    print_note(fmt("\nFAIL: fleet speedup %.2fx <= 1.5x acceptance floor",
                   speedup));
  }
  Table utilization({"resource", "batches", "shots"});
  for (const auto& status : fleet.fleet) {
    utilization.add_row({status.name, std::to_string(status.batches_done),
                         std::to_string(status.shots_done)});
  }
  utilization.print();
  print_note(
      "\nExpected shape: near-linear speedup (> 1.5x required) — the broker\n"
      "turns idle fleet members into throughput without touching the\n"
      "user-facing queue semantics.");

  // ---- (b) failover ------------------------------------------------------
  print_title(
      "B1b | Failover: one of 2 resources dies mid-run; jobs must finish on "
      "the survivor with zero lost shots");
  common::WallClock clock;
  broker::BrokerOptions broker_options;
  broker_options.default_policy = broker::SchedulingPolicy::kRoundRobin;
  broker_options.initial_backoff = 50 * common::kMillisecond;
  auto duo = std::make_shared<broker::ResourceBroker>(broker_options, &clock,
                                                      nullptr);
  auto doomed = qrmi::LocalEmulatorQrmi::create("doomed", "sv").value();
  (void)duo->add("doomed", doomed);
  (void)duo->add("survivor",
                 qrmi::LocalEmulatorQrmi::create("survivor", "sv").value());
  daemon::QueuePolicy queue_policy;
  queue_policy.non_production_batch_shots = 25;
  daemon::Dispatcher dispatcher(duo, queue_policy, &clock, nullptr);

  const int failover_jobs = quick ? 6 : 16;
  const std::uint64_t failover_shots = quick ? 100 : 200;
  std::vector<std::uint64_t> ids;
  const double t0 = now_ms();
  for (int j = 0; j < failover_jobs; ++j) {
    ids.push_back(dispatcher.submit(common::SessionId{1}, "bench",
                                    daemon::JobClass::kDevelopment,
                                    work_payload(failover_shots)));
  }
  // Let the run get going, then pull the plug on half the fleet.
  while (true) {
    std::uint64_t done = 0;
    for (const auto id : ids) done += dispatcher.query(id).value().shots_done;
    if (done >= failover_shots) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  doomed->set_offline(true);
  const double kill_ms = now_ms() - t0;

  std::uint64_t completed = 0, shots = 0;
  for (const auto id : ids) {
    auto samples = dispatcher.wait(id, 300 * common::kSecond);
    if (samples.ok()) {
      ++completed;
      shots += samples.value().total_shots();
    }
  }
  const double wall_s = (now_ms() - t0) / 1000.0;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(failover_jobs) * failover_shots;
  Table failover({"metric", "value"});
  failover.add_row({"jobs completed", std::to_string(completed) + "/" +
                                          std::to_string(failover_jobs)});
  failover.add_row({"shots delivered", std::to_string(shots) + "/" +
                                           std::to_string(expected)});
  failover.add_row({"resource killed after", fmt("%.0f ms", kill_ms)});
  failover.add_row({"total wall", fmt("%.2f s", wall_s)});
  failover.print();
  Table per_resource({"resource", "healthy", "batches", "shots"});
  for (const auto& status : duo->snapshot()) {
    per_resource.add_row({status.name, status.healthy ? "yes" : "no",
                          std::to_string(status.batches_done),
                          std::to_string(status.shots_done)});
  }
  per_resource.print();
  print_note(
      "\nExpected shape: all jobs complete and shots delivered == expected —\n"
      "in-flight batches from the dead resource are requeued, queued jobs\n"
      "fail over, and no shot is lost or double-counted.");

  // ---- (c) depth scaling -------------------------------------------------
  print_title(
      "B1c | Depth scaling: dispatch and newest-job ETA at 100 vs 100k "
      "pending jobs (64 users, one lane)");
  const DispatchCost dispatch_shallow = core_dispatch_us(kShallow);
  const DispatchCost dispatch_deep = core_dispatch_us(kDeep);
  const double eta_shallow = eta_newest_us(kShallow);
  const double eta_deep = eta_newest_us(kDeep);
  const bool eta_exact = eta_shallow > 0 && eta_deep > 0;
  const double select_ratio =
      dispatch_deep.select_us / dispatch_shallow.select_us;
  const double eta_ratio = eta_exact ? eta_deep / eta_shallow : 0.0;
  Table scaling({"operation", "depth 100", "depth 100k", "ratio"});
  scaling.add_row({"head selection (gated)",
                   fmt("%.2f us", dispatch_shallow.select_us),
                   fmt("%.2f us", dispatch_deep.select_us),
                   fmt("%.2fx", select_ratio)});
  scaling.add_row({"ETA of the newest job (gated)",
                   fmt("%.2f us", eta_shallow), fmt("%.2f us", eta_deep),
                   fmt("%.2fx", eta_ratio)});
  scaling.add_row({"whole dispatch cycle",
                   fmt("%.2f us", dispatch_shallow.cycle_us),
                   fmt("%.2f us", dispatch_deep.cycle_us),
                   fmt("%.2fx", dispatch_deep.cycle_us /
                                    dispatch_shallow.cycle_us)});
  scaling.print();
  constexpr double kMaxDepthRatio = 3.0;
  const bool scales = eta_exact && select_ratio <= kMaxDepthRatio &&
                      eta_ratio <= kMaxDepthRatio;
  if (!eta_exact) {
    print_note("\nFAIL: the ETA miscounted the jobs ahead of the newest job");
  } else if (!scales) {
    print_note(fmt("\nFAIL: a cost ratio exceeds the %.0fx ceiling",
                   kMaxDepthRatio));
  }
  print_note(
      "\nExpected shape: both gated ratios near 1x — a head selection\n"
      "compares one head per (user, class, placement) bucket and the ETA\n"
      "adds up per-bucket totals, so neither visits every pending job.");
  return (shots == expected && speedup > 1.5 && scales) ? 0 : 1;
}

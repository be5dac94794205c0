// The four user-path workloads. Every request crosses loopback through the
// production clients (runtime::HybridRuntime, net::HttpClient, one
// connection per request) from at most four load threads; the seed drives
// tenant mapping, class draws and payload parameters, and the daemon only
// ever sees the generated requests.
#include <algorithm>
#include <array>
#include <deque>
#include <latch>
#include <limits>
#include <thread>

#include "harness.hpp"
#include "common/rng.hpp"
#include "quantum/payload.hpp"

namespace qcenv::bench_e2e {

using common::Json;
using quantum::Payload;

namespace {

constexpr std::size_t kLoadThreads = 4;
constexpr std::uint64_t kHybridShots = 100;
constexpr std::uint64_t kDevShots = 100;
/// qpu_fleet: each load thread keeps this many jobs outstanding and polls
/// each at the runtime's default interval.
constexpr std::size_t kFleetOutstanding = 8;
constexpr DurationNs kFleetPoll = 20 * common::kMillisecond;
/// ops_mix writers check their oldest job this often.
constexpr DurationNs kWriterPoll = common::kMillisecond;
/// ops_mix: two open-loop readers at 100 req/s each.
constexpr DurationNs kReadPeriod = 10 * common::kMillisecond;

/// One class of the qpu_fleet mix: the Slurm partition the job names and
/// its shot count.
struct ClassDraw {
  const char* partition;
  std::uint64_t shots;
};
constexpr std::array<ClassDraw, 3> kClasses = {
    {{"production", 1000}, {"test", 300}, {"dev", 100}}};
/// Every block of ten jobs holds 1 production, 3 test and 6 dev jobs in a
/// seed-shuffled order: the 10/30/60 % mix without the run-to-run
/// throughput noise independent draws would add.
constexpr std::array<std::size_t, 10> kClassBlock = {0, 1, 1, 1, 2,
                                                     2, 2, 2, 2, 2};

struct Timeline {
  TimeNs window_start = 0;
  TimeNs window_end = 0;
};

Timeline make_timeline(const RunConfig& config) {
  const TimeNs start = now_ns();
  Timeline timeline;
  timeline.window_start = start + common::from_seconds(config.sizes->warmup_s);
  timeline.window_end =
      timeline.window_start + common::from_seconds(config.window_s);
  return timeline;
}

std::vector<common::Rng> thread_rngs(std::uint64_t seed, std::size_t n) {
  common::Rng root(seed);
  std::vector<common::Rng> rngs;
  for (std::size_t i = 0; i < n; ++i) rngs.push_back(root.fork(i + 1));
  return rngs;
}

/// Runs `body(thread, log)` on `threads` load threads while this thread
/// marks the window's edges, then joins them (each drains its own work).
template <typename Body>
std::vector<ThreadLog> run_threads(std::size_t threads,
                                   const Timeline& timeline,
                                   const RunConfig& config, Body body) {
  std::vector<ThreadLog> logs(threads);
  std::vector<std::jthread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&body, &logs, t] { body(t, logs[t]); });
  }
  sleep_until(timeline.window_start);
  config.on_window_start();
  sleep_until(timeline.window_end);
  config.on_window_end();
  workers.clear();  // joins
  return logs;
}

LoadResult windowed_result(std::vector<ThreadLog> logs,
                           const Timeline& timeline, LoadContext& ctx) {
  LoadResult result;
  result.sample_from = timeline.window_start;
  result.sample_to = timeline.window_end;
  result.seconds =
      static_cast<double>(timeline.window_end - timeline.window_start) / 1e9;
  for (const ThreadLog& log : logs) {
    for (const JobSample& job : log.jobs) {
      if (job.done >= timeline.window_start &&
          job.done < timeline.window_end) {
        ++result.verified;
      }
    }
  }
  result.logs = std::move(logs);
  result.probes = ctx.take_probes();
  return result;
}

/// A small 2-atom program: cheap to emulate, so the daemon's own costs
/// dominate. The seed-drawn amplitude makes every payload unique, so the
/// journal's payload dedup cannot merge submissions.
Payload small_program(double amplitude, std::uint64_t shots) {
  quantum::Sequence sequence(quantum::AtomRegister::linear_chain(2, 6.0));
  sequence.add_pulse(
      quantum::Pulse{quantum::Waveform::constant(100, amplitude),
                     quantum::Waveform::constant(100, 0.0), 0.0});
  return Payload::from_sequence(sequence, shots);
}

std::string submit_body(const Payload& payload, const std::string& partition) {
  Json body = Json::object();
  body["payload"] = payload.to_json();
  if (!partition.empty()) body["partition"] = partition;
  return body.dump();
}

/// Hands out tenants in blocks that hold every tenant once, in
/// seed-shuffled order. Independent draws would give tenants uneven counts
/// and bursts, which moves throughput and waits by ~10% from seed to seed
/// through fair-share ordering.
class TenantBlocks {
 public:
  explicit TenantBlocks(std::size_t tenants) : order_(tenants) {
    for (std::size_t i = 0; i < tenants; ++i) order_[i] = i;
  }
  std::size_t next(common::Rng& rng) {
    if (next_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng.engine());
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t next_ = order_.size();
};

/// hybrid_loop: four closed-loop variational sessions. Each iteration
/// re-validates its program against the live device spec (one GET
/// /v1/device, the read it waits on), then runs it with HybridRuntime.
LoadResult run_hybrid_loop(Env& env, const RunConfig& config) {
  LoadContext ctx(env, config);
  const Timeline timeline = make_timeline(config);
  auto rngs = thread_rngs(config.seed, env.runtimes.size());
  auto logs = run_threads(
      env.runtimes.size(), timeline, config,
      [&](std::size_t t, ThreadLog& log) {
        runtime::HybridRuntime& runtime = *env.runtimes[t];
        TimeNs due = now_ns();
        while (due < timeline.window_end) {
          const Payload program = hybrid_program(rngs[t]);
          ReadSample read{ReadKind::kDevice, due, now_ns(), 0};
          ++log.attempted;
          auto report = runtime.validate(program);
          read.done = now_ns();
          if (!report.ok() || !report.value().compatible) {
            log.fail("validate: " + (report.ok() ? report.value().to_string()
                                                 : report.error().to_string()));
            due = now_ns();
            continue;
          }
          log.reads.push_back(read);

          JobSample job;
          job.job_class = "dev";
          job.due = due;
          job.send_is_scheduled = false;
          job.send = now_ns();
          ++log.attempted;
          auto handle = runtime.submit(program);
          job.acked = now_ns();
          if (!handle.ok()) {
            log.fail("submit: " + handle.error().to_string());
            due = now_ns();
            continue;
          }
          job.job_id = std::stoull(handle.value().id);
          log.admitted.push_back(job.job_id);
          ctx.after_submit(job.job_id);
          ++log.attempted;
          auto samples = runtime.wait(handle.value());
          job.done = now_ns();
          due = job.done;  // closed loop: the next iteration is due now
          if (!samples.ok() || samples.value().total_shots() != kHybridShots) {
            log.fail("job " + handle.value().id + ": " +
                     (samples.ok() ? std::to_string(
                                         samples.value().total_shots()) +
                                         " shots"
                                   : samples.error().to_string()));
            continue;
          }
          ctx.attach_trace(job, log);
          log.jobs.push_back(std::move(job));
        }
      });
  return windowed_result(std::move(logs), timeline, ctx);
}

/// sweep_backlog: rounds of unique parameter-sweep jobs. Four threads POST
/// a round as fast as the daemon accepts, then poll every job and fetch its
/// result; a round's throughput is its jobs over first POST -> last
/// verified result. Rounds repeat until the window has elapsed.
LoadResult run_sweep_backlog(Env& env, const RunConfig& config) {
  LoadContext ctx(env, config);
  common::Rng root(config.seed);
  LoadResult result;
  result.logs.resize(kLoadThreads);

  const auto run_round = [&](std::size_t jobs) {
    common::Rng plan_rng = root.fork(jobs);
    TenantBlocks blocks(env.tenants.size());
    std::vector<std::size_t> tenants(jobs);
    std::vector<std::string> bodies(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      tenants[i] = blocks.next(plan_rng);
      bodies[i] = submit_body(
          small_program(plan_rng.uniform(0.5, 10.0), kDevShots), "dev");
    }
    std::vector<TimeNs> first_send(kLoadThreads,
                                   std::numeric_limits<TimeNs>::max());
    std::vector<TimeNs> last_done(kLoadThreads, 0);
    std::latch start(static_cast<std::ptrdiff_t>(kLoadThreads));
    {
      std::vector<std::jthread> workers;
      for (std::size_t t = 0; t < kLoadThreads; ++t) {
        workers.emplace_back([&, t] {
          ThreadLog& log = result.logs[t];
          net::HttpClient client(env.port);
          std::vector<std::pair<JobSample, std::size_t>> mine;
          start.arrive_and_wait();
          for (std::size_t i = t; i < jobs; i += kLoadThreads) {
            JobSample job;
            job.job_class = "dev";
            job.due = now_ns();
            const Tenant& tenant = env.tenants[tenants[i]];
            const bool admitted =
                submit_job(ctx, client, tenant, bodies[i], job, log);
            first_send[t] = std::min(first_send[t], job.send);
            if (admitted) mine.emplace_back(std::move(job), tenants[i]);
          }
          for (auto& [job, tenant_index] : mine) {
            const Tenant& tenant = env.tenants[tenant_index];
            while (true) {
              ReadSample poll{ReadKind::kStatus, now_ns(), 0, 0};
              poll.send = poll.due;
              const auto state = job_state(client, tenant, job.job_id, log);
              poll.done = now_ns();
              if (!state.has_value()) break;
              log.reads.push_back(poll);
              if (*state != "completed") {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
              }
              ReadSample fetch{ReadKind::kResult, now_ns(), 0, 0};
              fetch.send = fetch.due;
              if (fetch_result(client, tenant, job.job_id, kDevShots,
                               log)) {
                job.done = fetch.done = now_ns();
                log.reads.push_back(fetch);
                ctx.attach_trace(job, log);
                log.jobs.push_back(job);
              }
              break;
            }
            last_done[t] = std::max(last_done[t], now_ns());
          }
        });
      }
    }
    return static_cast<double>(
               *std::max_element(last_done.begin(), last_done.end()) -
               *std::min_element(first_send.begin(), first_send.end())) /
           1e9;
  };

  const auto verified_total = [&] {
    std::uint64_t total = 0;
    for (const ThreadLog& log : result.logs) total += log.jobs.size();
    return total;
  };

  (void)run_round(config.sizes->sweep_warmup_jobs);
  const std::uint64_t warm = verified_total();
  result.sample_from = now_ns();
  config.on_window_start();
  const TimeNs end = result.sample_from + common::from_seconds(config.window_s);
  do {
    result.seconds += run_round(config.sizes->sweep_round_jobs);
  } while (now_ns() < end);
  config.on_window_end();
  result.sample_to = now_ns();
  result.verified = verified_total() - warm;
  result.probes = ctx.take_probes();
  return result;
}

/// qpu_fleet: two emulated QPUs at 50 us/shot, saturated by 4 threads that
/// each keep 8 jobs of the 10/30/60 % production/test/dev mix outstanding
/// and poll each at the runtime's 20 ms default.
LoadResult run_qpu_fleet(Env& env, const RunConfig& config) {
  LoadContext ctx(env, config);
  const Timeline timeline = make_timeline(config);
  auto rngs = thread_rngs(config.seed, kLoadThreads);
  auto logs = run_threads(
      kLoadThreads, timeline, config, [&](std::size_t t, ThreadLog& log) {
        common::Rng& rng = rngs[t];
        net::HttpClient client(env.port);
        struct Live {
          JobSample job;
          std::size_t tenant = 0;
          std::uint64_t shots = 0;
          TimeNs next_poll = 0;
        };
        std::vector<Live> live;
        TenantBlocks tenants(env.tenants.size());
        std::array<std::size_t, 10> block{};
        std::size_t next_in_block = block.size();
        while (true) {
          while (live.size() < kFleetOutstanding &&
                 now_ns() < timeline.window_end) {
            if (next_in_block == block.size()) {
              block = kClassBlock;
              std::shuffle(block.begin(), block.end(), rng.engine());
              next_in_block = 0;
            }
            const ClassDraw& draw = kClasses[block[next_in_block++]];
            Live next;
            next.tenant = tenants.next(rng);
            next.shots = draw.shots;
            next.job.job_class = draw.partition;
            const std::string body = submit_body(
                small_program(rng.uniform(0.5, 10.0), draw.shots),
                draw.partition);
            next.job.due = now_ns();
            if (submit_job(ctx, client, env.tenants[next.tenant], body,
                           next.job, log)) {
              next.next_poll = next.job.acked;
              live.push_back(std::move(next));
            }
          }
          if (live.empty()) break;
          const auto it = std::min_element(
              live.begin(), live.end(), [](const Live& a, const Live& b) {
                return a.next_poll < b.next_poll;
              });
          sleep_until(it->next_poll);
          ReadSample poll{ReadKind::kStatus, it->next_poll, now_ns(), 0};
          const Tenant& tenant = env.tenants[it->tenant];
          const auto state = job_state(client, tenant, it->job.job_id, log);
          poll.done = now_ns();
          if (!state.has_value()) {
            live.erase(it);
            continue;
          }
          log.reads.push_back(poll);
          if (*state != "completed") {
            it->next_poll = poll.done + kFleetPoll;
            continue;
          }
          if (fetch_result(client, tenant, it->job.job_id, it->shots, log)) {
            it->job.done = now_ns();
            ctx.attach_trace(it->job, log);
            log.jobs.push_back(std::move(it->job));
          }
          live.erase(it);
        }
      });
  return windowed_result(std::move(logs), timeline, ctx);
}

/// ops_mix: observer reads beside writes over a standing deep queue on one
/// emulated QPU. Threads 0-1 are writers keeping `ops_outstanding` dev jobs
/// each; threads 2-3 are open-loop readers timed from when each read was
/// due.
LoadResult run_ops_mix(Env& env, const RunConfig& config) {
  LoadContext ctx(env, config);
  const Timeline timeline = make_timeline(config);
  const TimeNs load_start = now_ns();
  auto rngs = thread_rngs(config.seed, kLoadThreads);
  const std::size_t outstanding = config.sizes->ops_outstanding;
  std::mutex recent_mutex;
  std::uint64_t recent_job = 0;  // the newest submission, for ETA reads
  std::size_t recent_tenant = 0;

  const auto writer = [&](std::size_t t, ThreadLog& log) {
    common::Rng& rng = rngs[t];
    net::HttpClient client(env.port);
    struct Live {
      JobSample job;
      std::size_t tenant = 0;
    };
    std::deque<Live> live;
    TenantBlocks tenants(env.tenants.size());
    const auto submit = [&] {
      Live next;
      next.tenant = tenants.next(rng);
      next.job.job_class = "dev";
      const std::string body = submit_body(
          small_program(rng.uniform(0.5, 10.0), kDevShots), "dev");
      next.job.due = now_ns();
      if (!submit_job(ctx, client, env.tenants[next.tenant], body, next.job,
                      log)) {
        return;
      }
      {
        std::scoped_lock lock(recent_mutex);
        recent_job = next.job.job_id;
        recent_tenant = next.tenant;
      }
      live.push_back(std::move(next));
    };
    while (live.size() < outstanding && now_ns() < timeline.window_end) {
      submit();
    }
    while (!live.empty()) {
      Live& oldest = live.front();
      const Tenant& tenant = env.tenants[oldest.tenant];
      const auto state = job_state(client, tenant, oldest.job.job_id, log);
      if (state.has_value() && *state != "completed") {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kWriterPoll));
        continue;
      }
      if (state.has_value() &&
          fetch_result(client, tenant, oldest.job.job_id, kDevShots, log)) {
        oldest.job.done = now_ns();
        ctx.attach_trace(oldest.job, log);
        log.jobs.push_back(std::move(oldest.job));
      }
      live.pop_front();
      if (now_ns() < timeline.window_end) submit();
    }
  };

  const auto reader = [&](std::size_t r, ThreadLog& log) {
    constexpr std::array<ReadKind, 4> kCycle = {
        ReadKind::kQueue, ReadKind::kMetrics, ReadKind::kEta,
        ReadKind::kAdminStatus};
    net::HttpClient client(env.port);
    const TimeNs offset = static_cast<TimeNs>(r) * kReadPeriod / 2;
    for (std::int64_t k = 0;; ++k) {
      const TimeNs due = load_start + offset + k * kReadPeriod;
      if (due >= timeline.window_end) break;
      sleep_until(due);
      ReadKind kind = kCycle[static_cast<std::size_t>(k) % kCycle.size()];
      net::HttpRequest request;
      if (kind == ReadKind::kEta) {
        std::scoped_lock lock(recent_mutex);
        if (recent_job == 0) {
          kind = ReadKind::kQueue;
        } else {
          request = make_request(
              "GET", "/v1/jobs/" + std::to_string(recent_job) + "/eta",
              env.tenants[recent_tenant].token);
        }
      }
      if (kind == ReadKind::kQueue) request = make_request("GET", "/v1/queue", "");
      if (kind == ReadKind::kMetrics) request = make_request("GET", "/metrics", "");
      if (kind == ReadKind::kAdminStatus) {
        request = make_request("GET", "/admin/status", "");
        request.headers["X-Admin-Key"] = env.daemon->options().admin_key;
      }
      ReadSample read{kind, due, now_ns(), 0};
      const bool ok =
          send_request(client, std::move(request), 200, log).has_value();
      read.done = now_ns();
      if (ok) log.reads.push_back(read);
    }
  };

  auto logs = run_threads(kLoadThreads, timeline, config,
                          [&](std::size_t t, ThreadLog& log) {
                            if (t < 2) {
                              writer(t, log);
                            } else {
                              reader(t - 2, log);
                            }
                          });
  return windowed_result(std::move(logs), timeline, ctx);
}

}  // namespace

Payload hybrid_program(common::Rng& rng) {
  // Same 8-atom geometry and duration every iteration, so emulation cost
  // is constant; the variational parameters come from the seed.
  quantum::Sequence sequence(quantum::AtomRegister::linear_chain(8, 6.0));
  sequence.add_pulse(quantum::Pulse{
      quantum::Waveform::constant(100, rng.uniform(1.0, 6.0)),
      quantum::Waveform::constant(100, rng.uniform(-4.0, 4.0)), 0.0});
  return Payload::from_sequence(sequence, kHybridShots);
}

LoadResult run_load(Env& env, const RunConfig& config) {
  switch (config.workload) {
    case Workload::kHybridLoop: return run_hybrid_loop(env, config);
    case Workload::kSweepBacklog: return run_sweep_backlog(env, config);
    case Workload::kQpuFleet: return run_qpu_fleet(env, config);
    case Workload::kOpsMix: return run_ops_mix(env, config);
  }
  return {};
}

}  // namespace qcenv::bench_e2e

// Shared pieces of the end-to-end benchmark: the system under test (one
// MiddlewareDaemon in this process, fronting an emulated fleet, reached over
// loopback REST), the per-request samples the load threads record, and the
// join of the benchmark's client-side spans with the daemon's job traces.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "daemon/daemon.hpp"
#include "net/http_client.hpp"
#include "qrmi/local_emulator.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/trace.hpp"
#include "timed_qrmi.hpp"

namespace qcenv::bench_e2e {

using common::DurationNs;
using common::TimeNs;

/// Same timebase as the daemon's WallClock (steady_clock), so client
/// timestamps and daemon spans can be compared directly.
inline TimeNs now_ns() { return common::WallClock().now(); }
inline double to_ms(DurationNs d) { return static_cast<double>(d) / 1e6; }
void sleep_until(TimeNs deadline);

enum class Workload { kHybridLoop, kSweepBacklog, kQpuFleet, kOpsMix };
inline constexpr Workload kAllWorkloads[] = {
    Workload::kHybridLoop, Workload::kSweepBacklog, Workload::kQpuFleet,
    Workload::kOpsMix};
const char* to_string(Workload workload);
std::optional<Workload> workload_from_string(const std::string& name);

/// Workload sizes; --quick shrinks every one of them.
struct Sizes {
  double warmup_s = 2.0;
  /// One set-up varies ~30% (thread starts, fsyncs) and the first in a
  /// process takes about three times as long; the median of 41 keeps
  /// setup_s steady.
  std::size_t setup_reps = 41;
  std::size_t sweep_round_jobs = 2000;
  std::size_t sweep_warmup_jobs = 500;
  std::size_t ops_outstanding = 256;   // per writer thread
  std::size_t reference_calls = 200;   // F2a and emulator reference runs
};

struct Tenant {
  std::string user;
  std::string token;
};

/// One daemon with its fleet and open sessions. Members are declared so
/// destruction runs sessions -> daemon -> fleet -> data dir -> clock.
struct Env {
  common::WallClock clock;
  common::TempDir dir{"bench-e2e-"};
  std::vector<std::shared_ptr<qrmi::LocalEmulatorQrmi>> emulators;
  /// Traced pass: the decorators the daemon's fleet is made of.
  std::vector<std::shared_ptr<TimedQrmi>> timed;
  std::unique_ptr<daemon::MiddlewareDaemon> daemon;
  std::uint16_t port = 0;
  /// 64 logged-in tenants. On hybrid_loop the first four belong to
  /// `runtimes` and carry no token here.
  std::vector<Tenant> tenants;
  /// hybrid_loop: one HybridRuntime session per load thread.
  std::vector<std::unique_ptr<runtime::HybridRuntime>> runtimes;
};

/// Builds and starts a daemon for `workload` (DaemonOptions defaults plus
/// a fresh durable data dir) and opens its sessions. `setup_seconds`
/// receives the time from daemon construction to the last session opened.
/// Returns nullptr (with `error` set) when anything fails.
std::unique_ptr<Env> make_env(Workload workload, bool traced,
                              double* setup_seconds, std::string* error);

/// One job as the client saw it. `due` is when the client wanted to send
/// it, `send` when it did, `acked` when the 201 arrived and `done` when its
/// result was fetched and verified.
struct JobSample {
  std::uint64_t job_id = 0;
  std::uint64_t trace_id = 0;  // from the 201; 0 when the client hides it
  std::string job_class;
  TimeNs due = 0;
  TimeNs send = 0;
  TimeNs acked = 0;
  TimeNs done = 0;
  /// False when the client issued another request between due and send
  /// (hybrid_loop validates first), so send - due is not generator lag.
  bool send_is_scheduled = true;
  std::optional<telemetry::JobTrace> trace;  // traced pass only
};

enum class ReadKind { kDevice, kStatus, kResult, kQueue, kMetrics, kEta,
                      kAdminStatus };
const char* to_string(ReadKind kind);

struct ReadSample {
  ReadKind kind = ReadKind::kStatus;
  TimeNs due = 0;
  TimeNs send = 0;
  TimeNs done = 0;
};

/// Everything one load thread recorded. Only verified jobs enter `jobs`;
/// `admitted` lists every job id that got a 201.
struct ThreadLog {
  std::vector<JobSample> jobs;
  std::vector<ReadSample> reads;
  std::vector<std::uint64_t> admitted;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  void fail(const std::string& what);
};

/// Cost of the dispatcher's and ETA engine's public read paths at the
/// queue depth seen at that moment (traced pass, every 250 submissions).
struct ProbeSample {
  std::size_t depth = 0;
  double snapshot_ms = 0;
  double eta_ms = 0;
};

struct RunConfig {
  Workload workload = Workload::kHybridLoop;
  std::uint64_t seed = 1;
  double window_s = 10.0;
  bool traced = false;
  const Sizes* sizes = nullptr;
  /// Called on the coordinating thread at the measured window's edges;
  /// the traced pass reads the layers' counters there.
  std::function<void()> on_window_start = [] {};
  std::function<void()> on_window_end = [] {};
};

struct LoadResult {
  std::vector<ThreadLog> logs;
  /// Jobs and reads due in [sample_from, sample_to) are the measured ones.
  TimeNs sample_from = 0;
  TimeNs sample_to = 0;
  /// jobs_per_s = verified / seconds.
  std::uint64_t verified = 0;
  double seconds = 0;
  std::vector<ProbeSample> probes;
};

/// Runs the workload's load threads through warm-up, window and drain.
LoadResult run_load(Env& env, const RunConfig& config);

/// hybrid_loop's program: one variational step on 8 atoms, 100 shots.
quantum::Payload hybrid_program(common::Rng& rng);

/// Shared state of one run's load threads.
class LoadContext {
 public:
  LoadContext(Env& env, const RunConfig& config) : env_(env), config_(config) {}

  /// Traced pass: every 250th submission times the dispatcher's pending
  /// snapshot and an ETA estimate at the current queue depth.
  void after_submit(std::uint64_t job_id);
  /// Traced pass: copies the finished job's daemon trace into `job`.
  void attach_trace(JobSample& job, ThreadLog& log);
  std::vector<ProbeSample> take_probes();

 private:
  Env& env_;
  const RunConfig& config_;
  std::atomic<std::uint64_t> submissions_{0};
  std::mutex probe_mutex_;
  std::vector<ProbeSample> probes_;
};

/// Client-side REST helpers: every request counts as attempted in `log`;
/// an unexpected status, transport error or unparsable body is a failure.
std::optional<net::HttpResponse> send_request(net::HttpClient& client,
                                              net::HttpRequest request,
                                              int expected_status,
                                              ThreadLog& log);
std::optional<common::Json> request_json(net::HttpClient& client,
                                         net::HttpRequest request,
                                         int expected_status, ThreadLog& log);
net::HttpRequest make_request(const std::string& method,
                              const std::string& target,
                              const std::string& token);
/// POST /v1/jobs; fills job_id/trace_id/acked and records the admission.
bool submit_job(LoadContext& ctx, net::HttpClient& client,
                const Tenant& tenant, const std::string& body, JobSample& job,
                ThreadLog& log);
/// GET /v1/jobs/:id. Returns the job's state, or nullopt on failure.
std::optional<std::string> job_state(net::HttpClient& client,
                                     const Tenant& tenant, std::uint64_t id,
                                     ThreadLog& log);
/// GET /v1/jobs/:id/result and checks total_shots == `shots`.
bool fetch_result(net::HttpClient& client, const Tenant& tenant,
                  std::uint64_t id, std::uint64_t shots, ThreadLog& log);

/// Exact partition of one traced job's turnaround (due -> verified).
struct Partition {
  DurationNs pre_submit = 0;         // due -> send
  DurationNs admission = 0;          // daemon span, clipped to the submit
  DurationNs journal_append = 0;     // daemon span, clipped to the submit
  DurationNs rest_residual = 0;      // rest of send -> 201
  DurationNs queue_wait = 0;         // daemon spans clipped to 201 -> done
  DurationNs shard_dispatch = 0;
  DurationNs qrmi_execute = 0;
  DurationNs completion_detect = 0;  // rest of 201 -> done
  /// Unclipped daemon stage durations (summed over batches).
  DurationNs span_admission = 0;
  DurationNs span_journal_append = 0;
  DurationNs span_queue_wait = 0;
  DurationNs span_shard_dispatch = 0;
  DurationNs span_qrmi_execute = 0;
};
/// Joins `job`'s client span with its daemon trace. Returns an error when
/// the daemon timeline is malformed, falls outside the client's, or the
/// parts miss the measured turnaround by more than 1 us.
std::optional<std::string> partition_job(const JobSample& job,
                                         Partition& out);

}  // namespace qcenv::bench_e2e

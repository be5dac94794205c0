#include "simtest/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "daemon/daemon.hpp"
#include "federation/federation.hpp"
#include "federation/replication.hpp"
#include "federation/standby.hpp"
#include "qrmi/local_emulator.hpp"
#include <cmath>

#include "accounting/usage_ledger.hpp"
#include "store/fault_injector.hpp"
#include "store/recovery.hpp"

#define QCENV_LOG_COMPONENT "simtest"
#include "common/logging.hpp"

namespace qcenv::simtest {

using common::DurationNs;
using common::TimeNs;
using daemon::DaemonJobState;
using daemon::JobClass;

namespace {

/// Tiny 2-qubit analog program — execution cost is irrelevant to the
/// scenarios; shot bookkeeping is everything.
quantum::Payload make_payload(std::uint64_t shots) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(200, 2.0),
                               quantum::Waveform::constant(200, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, shots);
}

const char* partition_for(JobClass cls) {
  switch (cls) {
    case JobClass::kProduction: return "production";
    case JobClass::kTest: return "test";
    case JobClass::kDevelopment: return "dev";
  }
  return "dev";
}

struct Submission {
  DurationNs at = 0;
  std::size_t user = 0;
  JobClass cls = JobClass::kDevelopment;
  std::uint64_t shots = 0;
};

std::vector<Submission> make_workload(common::Rng& rng,
                                      const ScenarioOptions& options) {
  std::vector<Submission> load;
  load.reserve(options.jobs);
  for (std::size_t i = 0; i < options.jobs; ++i) {
    Submission submission;
    submission.at = static_cast<DurationNs>(
        static_cast<double>(options.horizon) * 0.85 * rng.uniform());
    submission.user = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(options.users) - 1));
    const std::size_t cls = rng.discrete({0.2, 0.3, 0.5});
    submission.cls = cls == 0   ? JobClass::kProduction
                     : cls == 1 ? JobClass::kTest
                                : JobClass::kDevelopment;
    submission.shots = static_cast<std::uint64_t>(rng.uniform_int(
        static_cast<std::int64_t>(options.min_shots),
        static_cast<std::int64_t>(options.max_shots)));
    load.push_back(submission);
  }
  std::sort(load.begin(), load.end(),
            [](const Submission& a, const Submission& b) {
              return a.at < b.at;
            });
  return load;
}

/// Semantic equivalence of two recovered states — what a promotion
/// actually restores. Sessions (tokens included), job records, id
/// allocation and the sequence high-water mark must match exactly. The
/// accounting ledger is compared as the LEDGER both sides rebuild through
/// the production restore path (snapshot records, then journal deltas in
/// order): a compacted leader and a full-history mirror hold the same
/// ledger in different on-disk representations (decayed snapshot records
/// vs raw deltas), so the raw lists themselves are not comparable.
/// Rebuilt raw integer totals must match exactly; the decayed figures are
/// the same exponential fold evaluated through different factorings of
/// 2^-dt, so they get one part in 10^9. Returns "" when equivalent, else
/// what diverged.
std::string mirror_mismatch(const store::RecoveredState& leader,
                            const store::RecoveredState& mirror) {
  if (leader.last_seq != mirror.last_seq) {
    return "sequence high-water marks differ";
  }
  if (leader.next_job_id != mirror.next_job_id) {
    return "job id allocation differs (leader next_job_id " +
           std::to_string(leader.next_job_id) + ", mirror " +
           std::to_string(mirror.next_job_id) + ")";
  }
  const auto session_images = [](const store::RecoveredState& state) {
    std::vector<std::string> out;
    out.reserve(state.sessions.size());
    for (auto session : state.sessions) {
      // A restored session is treated as active-now; last_active is
      // bookkeeping a snapshot refreshes but journal replay cannot see.
      session.last_active = 0;
      out.push_back(session.to_json().dump());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  if (session_images(leader) != session_images(mirror)) {
    return "session records differ (tokens/users/classes)";
  }
  const auto job_images = [](const store::RecoveredState& state) {
    std::vector<std::string> out;
    out.reserve(state.jobs.size());
    for (const auto& job : state.jobs) out.push_back(job.to_json().dump());
    std::sort(out.begin(), out.end());
    return out;
  };
  {
    const auto a = job_images(leader);
    const auto b = job_images(mirror);
    if (a != b) {
      std::string detail;
      for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        const std::string& left = i < a.size() ? a[i] : std::string("<none>");
        const std::string& right = i < b.size() ? b[i] : std::string("<none>");
        if (left != right) {
          detail = " [leader " + left + " vs mirror " + right + "]";
          break;
        }
      }
      return "job records differ" + detail;
    }
  }
  const auto populate = [](accounting::UsageLedger& ledger,
                           const store::RecoveredState& state) {
    ledger.restore(state.usage);
    for (const auto& delta : state.usage_deltas) {
      ledger.charge(delta.user, delta.shots, delta.qpu_ns, delta.jobs,
                    delta.time);
    }
  };
  accounting::UsageLedger leader_ledger;
  accounting::UsageLedger mirror_ledger;
  populate(leader_ledger, leader);
  populate(mirror_ledger, mirror);
  TimeNs as_of = 0;
  for (const auto* state : {&leader, &mirror}) {
    for (const auto& record : state->usage) {
      as_of = std::max(as_of, record.as_of);
    }
    for (const auto& delta : state->usage_deltas) {
      as_of = std::max(as_of, delta.time);
    }
  }
  auto users = leader_ledger.users();
  {
    const auto more = mirror_ledger.users();
    users.insert(users.end(), more.begin(), more.end());
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
  }
  const auto close = [](double a, double b) {
    return std::abs(a - b) <=
           1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  for (const auto& user : users) {
    const auto a = leader_ledger.usage(user, as_of);
    const auto b = mirror_ledger.usage(user, as_of);
    if (a.raw_shots != b.raw_shots || a.raw_jobs != b.raw_jobs ||
        a.raw_qpu_ns != b.raw_qpu_ns) {
      return "raw ledger totals differ for user " + user;
    }
    if (!close(a.shots, b.shots) ||
        !close(a.qpu_seconds, b.qpu_seconds) || !close(a.jobs, b.jobs)) {
      return "decayed ledger usage differs for user " + user;
    }
  }
  return "";
}

/// Latency/brownout/drift model behind the emulator fault hooks. Hooks
/// fire on dispatch lanes concurrently, and Rng is not thread-safe.
struct EmuModel {
  std::mutex mutex;
  common::Rng rng{0};
  bool latency = false;
  double brownout = 0.0;
  /// Calibration drift (kCalibrationDrift): once drift_onset >= 0, every
  /// target() report degrades — fill_success decays and dephasing grows —
  /// by the current drift_level. The level is advanced ONLY by the
  /// harness, at scrape-grid deadlines, as min(0.6, rate * seconds since
  /// onset) with both endpoints taken from the plan/grid rather than the
  /// live clock: the sampled score series is then bit-identical between
  /// replays, so the drift-alert timeline must be too.
  TimeNs drift_onset = -1;
  double drift_rate = 0.0;
  double drift_level = 0.0;
};

/// The world one scenario lives in: fleet, daemon, clock, disk, tenants,
/// and the per-job expectations the invariants are checked against.
class SimWorld {
 public:
  SimWorld(const ScenarioOptions& options, ScenarioResult& result)
      : options_(options),
        result_(result),
        clock_(0, /*auto_advance=*/true),
        scrape_interval_(options.scrape_interval > 0
                             ? options.scrape_interval
                             : std::max<DurationNs>(common::kMillisecond,
                                                    options.horizon / 128)),
        max_grid_(static_cast<std::uint64_t>(options.horizon /
                                             scrape_interval_)),
        storm_rng_(common::Rng(options.seed).fork(3)) {
    for (std::size_t i = 0; i < options_.fleet_size; ++i) {
      auto emu = qrmi::LocalEmulatorQrmi::create(
                     "emu" + std::to_string(i), "sv")
                     .value();
      auto model = std::make_shared<EmuModel>();
      model->rng = common::Rng(options_.seed).fork(100 + i);
      model->latency = options_.latency;
      model->brownout = options_.faults.brownout_prob;
      qrmi::EmulatorFaultHooks hooks;
      // Always installed: the drift model must be attachable mid-run by a
      // kCalibrationDrift event even when latency/brownout are off. The
      // hook only APPLIES the current level — computing it from the live
      // auto-advancing clock here would smear an interleaving-dependent
      // epsilon into the sampled scores and, near detector thresholds,
      // into the alert timeline itself (pump_scrapes owns the update).
      hooks.mutate_spec = [model](quantum::DeviceSpec& spec) {
        std::scoped_lock lock(model->mutex);
        if (model->drift_level <= 0.0) return;
        spec.calibration.fill_success *= (1.0 - model->drift_level);
        spec.calibration.dephasing_rate += model->drift_level;
      };
      if (model->latency || model->brownout > 0.0) {
        hooks.on_start =
            [model](const quantum::Payload&)
            -> std::optional<common::Error> {
          std::scoped_lock lock(model->mutex);
          if (model->brownout > 0.0 &&
              model->rng.bernoulli(model->brownout)) {
            return common::err::io("injected transient node brownout");
          }
          return std::nullopt;
        };
        hooks.latency = [model](std::uint64_t shots) -> DurationNs {
          std::scoped_lock lock(model->mutex);
          if (!model->latency) return 0;
          // ~1 ms floor plus tail jitter plus per-shot cost, all virtual.
          return common::kMillisecond +
                 common::from_seconds(model->rng.exponential_mean(0.002)) +
                 static_cast<DurationNs>(shots) * 10 * common::kMicrosecond;
        };
      }
      if (options_.plant_shot_loss) {
        // The deliberate bug: silently drop one count from every result.
        hooks.corrupt_result = [](quantum::Samples samples) {
          quantum::Samples corrupted(samples.num_qubits());
          bool dropped = false;
          for (const auto& [bits, count] : samples.counts()) {
            const std::uint64_t keep =
                !dropped && count > 0 ? count - 1 : count;
            dropped = dropped || keep != count;
            if (keep > 0) corrupted.record(bits, keep);
          }
          corrupted.set_metadata(samples.metadata());
          return corrupted;
        };
      }
      emu->set_fault_hooks(std::move(hooks), &clock_);
      emus_.push_back(std::move(emu));
      models_.push_back(std::move(model));
    }
    store::set_fault_injector(&injector_);
    daemon_ = make_daemon();
    for (std::size_t u = 0; u < options_.users; ++u) {
      open_session(u);
    }
    start_standby();
  }

  ~SimWorld() {
    standby_.reset();
    daemon_.reset();
    store::set_fault_injector(nullptr);
  }

  common::ManualClock& clock() { return clock_; }
  daemon::MiddlewareDaemon& daemon() { return *daemon_; }

  bool journal_healthy() const {
    if (disk_dead_) return false;
    auto* store = daemon_->state_store();
    return store == nullptr || !store->journal().io_error().has_value();
  }

  /// Precomputes the scrape-stall windows and decides whether this plan
  /// GUARANTEES a calibration-drift alert (the invariant then demands
  /// one). The guarantee is deliberately conservative: no restart may
  /// reset the detectors mid-run, nothing may hide the drifting
  /// resource's samples (flap or drain), and the grid must hold at least
  /// warmup+2 clean scrapes before onset and 6 after.
  void prepare_observability(const FaultPlan& plan) {
    for (const auto& event : plan.events) {
      if (event.op == FaultOp::kScrapeStall) {
        stall_windows_.emplace_back(
            event.at, event.at + static_cast<DurationNs>(event.param) *
                                     common::kMillisecond);
      }
    }
    if (!options_.observability) return;
    bool restarts = false;
    std::vector<const FaultEvent*> drifts;
    std::vector<bool> hidden(options_.fleet_size, false);
    for (const auto& event : plan.events) {
      switch (event.op) {
        case FaultOp::kKillRestart:
          restarts = true;
          break;
        case FaultOp::kCalibrationDrift:
          drifts.push_back(&event);
          break;
        case FaultOp::kQpuOffline:
        case FaultOp::kDrainResource:
          hidden[event.target % options_.fleet_size] = true;
          break;
        case FaultOp::kDrainAll:
          std::fill(hidden.begin(), hidden.end(), true);
          break;
        default:
          break;
      }
    }
    if (restarts) return;
    for (const auto* drift : drifts) {
      if (hidden[drift->target % options_.fleet_size]) continue;
      std::size_t pre = 0;
      std::size_t post = 0;
      for (std::uint64_t i = 1; i <= max_grid_; ++i) {
        const TimeNs t =
            static_cast<TimeNs>(i) * scrape_interval_;
        if (stalled(t)) continue;
        ++(t < drift->at ? pre : post);
      }
      if (pre >= kDriftWarmup + 2 && post >= 6) {
        expect_drift_alert_ = true;
        break;
      }
    }
  }

  /// Drives every scrape-grid deadline that virtual time has passed, in
  /// order, through the pipeline's deterministic entry point. The grid
  /// index is HARNESS state, not collector state: it survives daemon
  /// restarts (a new life's collector re-anchors on the mid-run clock,
  /// which would skew the grid) and caps at the horizon so quiescence
  /// overshoot cannot mint extra samples. `upto` (default: the clock)
  /// bounds the deadlines fired: the step loop passes the step's PLANNED
  /// time, so which life of a restarted daemon scrapes a deadline never
  /// depends on how far lane latency sleeps nudged the clock past it.
  void pump_scrapes(TimeNs upto = -1) {
    pump_replication();
    if (!options_.observability) return;
    const TimeNs now = upto >= 0 ? upto : clock_.now();
    while (grid_idx_ <= max_grid_) {
      const TimeNs t = static_cast<TimeNs>(grid_idx_) * scrape_interval_;
      if (t > now) break;
      // Advance every drifting emulator's degradation level to this grid
      // deadline — grid time in, grid time out, so the scores the scrape
      // below samples are exact functions of the seed.
      for (const auto& model : models_) {
        std::scoped_lock lock(model->mutex);
        if (model->drift_onset < 0 || t < model->drift_onset) continue;
        model->drift_level = std::min(
            0.6, model->drift_rate *
                     common::to_seconds(t - model->drift_onset));
      }
      if (auto* obs = daemon_->observability()) {
        if (stalled(t)) {
          obs->collector().note_missed();
        } else {
          obs->tick_at(t);
        }
      }
      ++grid_idx_;
    }
  }

  /// Runs out the rest of the grid after quiescence so every scenario
  /// evaluates the same number of scrapes regardless of how early the
  /// workload drained.
  void finish_scrapes() {
    if (!options_.observability || max_grid_ == 0) return;
    clock_.advance_to(static_cast<TimeNs>(max_grid_) * scrape_interval_);
    pump_scrapes();
  }

  void submit(std::size_t user, JobClass cls, std::uint64_t shots) {
    daemon::MiddlewareDaemon::SubmitHints hints;
    hints.partition = partition_for(cls);
    auto submitted = daemon_->submit_job(tokens_[user],
                                         make_payload(shots), hints);
    if (submitted.ok()) {
      const std::uint64_t id = submitted.value().id;
      TrackedJob tracked{id, user_name(user), shots, false, std::nullopt};
      // Exercise the prediction the tenant would have seen in the 201
      // body against the live queue (crash coverage only — calibration is
      // asserted by run_eta_probe's paced phase, where lanes keep up with
      // virtual time).
      (void)daemon_->eta().estimate(id);
      tracked_.emplace(id, tracked);
      ++result_.stats.submitted;
      return;
    }
    ++result_.stats.rejected;
    switch (submitted.error().code()) {
      case common::ErrorCode::kResourceExhausted:  // rate/pending limits
      case common::ErrorCode::kUnavailable:        // fleet entirely down
      case common::ErrorCode::kIo:                 // journal fail-stopped
        break;
      case common::ErrorCode::kPermissionDenied:
        // Session lost to a crash that outran its journal event; open a
        // fresh one so this tenant keeps participating.
        open_session(user);
        break;
      default:
        violation("unexpected submit rejection for " + user_name(user) +
                  ": " + submitted.error().to_string());
        break;
    }
  }

  void apply(const FaultEvent& event) {
    switch (event.op) {
      case FaultOp::kQpuOffline:
        ++result_.stats.flaps;
        emu_of(event.target)->set_offline(true);
        break;
      case FaultOp::kQpuOnline:
        emu_of(event.target)->set_offline(false);
        break;
      case FaultOp::kDrainResource:
        (void)daemon_->dispatcher().drain_resource(emu_name(event.target));
        break;
      case FaultOp::kResumeResource:
        (void)daemon_->dispatcher().resume_resource(emu_name(event.target));
        break;
      case FaultOp::kDrainAll:
        daemon_->dispatcher().drain();
        break;
      case FaultOp::kResumeAll:
        daemon_->dispatcher().resume();
        break;
      case FaultOp::kCancelJob:
        cancel_one(event.param);
        break;
      case FaultOp::kCloseSession:
        close_session(event.target % options_.users);
        break;
      case FaultOp::kKillRestart:
        restart();
        break;
      case FaultOp::kJournalFailStop:
        if (daemon_->state_store() == nullptr) break;
        ++result_.stats.disk_faults;
        capture_durable_terminals();
        injector_.fail_journal_writes_after(injector_.journal_writes() +
                                            event.param);
        disk_dead_ = true;
        break;
      case FaultOp::kTornTail:
        if (daemon_->state_store() == nullptr) break;
        ++result_.stats.disk_faults;
        capture_durable_terminals();
        injector_.tear_journal_write_after(injector_.journal_writes(),
                                           event.param);
        disk_dead_ = true;
        break;
      case FaultOp::kCompact:
        if (daemon_->state_store() != nullptr) {
          ++result_.stats.compactions;
          (void)daemon_->state_store()->compact();
        }
        break;
      case FaultOp::kCompactCrash:
        // One atomic rewrite of this compaction dies (param 0 = the
        // snapshot, 1 = the journal rewrite). The compaction aborts, the
        // journal keeps appending, and the plan's guaranteed restart
        // must find the original file intact and replay it.
        if (daemon_->state_store() != nullptr && journal_healthy()) {
          ++result_.stats.compact_crashes;
          injector_.fail_one_atomic_write_after(event.param);
          (void)daemon_->state_store()->compact();
          injector_.heal();
        }
        break;
      case FaultOp::kSubmitStorm: {
        ++result_.stats.storms;
        const std::size_t user = event.target % options_.users;
        for (std::uint64_t i = 0; i < event.param; ++i) {
          submit(user, JobClass::kDevelopment,
                 static_cast<std::uint64_t>(
                     storm_rng_.uniform_int(8, 40)));
        }
        break;
      }
      case FaultOp::kEtaProbe: {
        // Exercise the explainability surface against whatever queue the
        // faults have produced. The answers are interleaving-dependent —
        // only survival is asserted here; the deterministic bit-identity
        // probe runs post-quiescence (run_eta_probe).
        const auto jobs = job_table();
        std::vector<std::uint64_t> ids;
        for (const auto& [id, tracked] : tracked_) {
          if (jobs.count(id) != 0) ids.push_back(id);
        }
        if (ids.empty()) break;
        const std::uint64_t id = ids[event.param % ids.size()];
        (void)daemon_->eta().estimate(id);
        (void)daemon_->eta().explain(id);
        break;
      }
      case FaultOp::kCalibrationDrift: {
        ++result_.stats.calib_drifts;
        auto& model = models_[event.target % models_.size()];
        std::scoped_lock lock(model->mutex);
        // Onset pinned to the PLAN's timestamp, not the clock read (which
        // sits an interleaving-dependent epsilon past it).
        model->drift_onset = event.at;
        model->drift_rate = static_cast<double>(event.param) / 1000.0;
        break;
      }
      case FaultOp::kScrapeStall:
        // The windows themselves were precomputed from the plan
        // (prepare_observability) — pump_scrapes consults them on every
        // grid deadline; the event only counts for the summary line.
        ++result_.stats.scrape_stalls;
        break;
      case FaultOp::kPeerPartition:
        if (standby_ == nullptr) break;
        ++result_.stats.peer_partitions;
        partition_until_ =
            clock_.now() +
            static_cast<DurationNs>(event.param) * common::kMillisecond;
        break;
      case FaultOp::kTornSegment:
        if (repl_source_ == nullptr) break;
        ++result_.stats.torn_segments;
        repl_source_->tear_next_segment();
        break;
      case FaultOp::kLeaderKill:
        leader_kill(event.param == 1);
        break;
    }
  }

  /// Advances virtual time until every tracked job is terminal. The
  /// stall decision is a VIRTUAL-time budget past the last event — a
  /// fixed number of 2 ms advances, identical on a laptop and a loaded
  /// CI runner — so a stalled seed replays as stalled anywhere. A far
  /// larger real-time backstop only guards against true deadlock.
  void drive_to_quiescence() {
    const TimeNs virtual_deadline =
        clock_.now() + 2 * 60 * common::kSecond;
    const auto started = std::chrono::steady_clock::now();
    while (true) {
      const auto jobs = job_table();
      bool pending = false;
      for (const auto& [id, tracked] : tracked_) {
        const auto it = jobs.find(id);
        if (it == jobs.end()) continue;  // GC'd: terminal by definition
        const auto state = it->second.state;
        if (state != DaemonJobState::kCompleted &&
            state != DaemonJobState::kFailed &&
            state != DaemonJobState::kCancelled) {
          pending = true;
          break;
        }
      }
      if (!pending) break;
      if (clock_.now() > virtual_deadline ||
          std::chrono::steady_clock::now() - started >
              std::chrono::seconds(120)) {
        std::string stuck;
        for (const auto& [id, job] : jobs) {
          if (tracked_.count(id) == 0) continue;
          if (job.state == DaemonJobState::kQueued ||
              job.state == DaemonJobState::kRunning) {
            stuck += " job " + std::to_string(id) + "=" +
                     daemon::to_string(job.state) + "@" +
                     (job.resource.empty() ? "<unplaced>" : job.resource);
          }
        }
        violation("scenario stalled: work never quiesced:" + stuck);
        break;
      }
      clock_.advance(2 * common::kMillisecond);
      pump_scrapes();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  InvariantInput gather() {
    InvariantInput input;
    if (options_.gc) (void)daemon_->dispatcher().sweep_terminal();
    input.jobs = job_table();
    for (const auto& [id, tracked] : tracked_) {
      input.tracked.push_back(tracked);
      const auto it = input.jobs.find(id);
      if (it == input.jobs.end()) continue;
      if (it->second.state == DaemonJobState::kCompleted) {
        auto samples = daemon_->dispatcher().result(id);
        if (samples.ok()) {
          input.result_shots[id] = samples.value().total_shots();
        }
      }
      // Explain-partition check: every still-recorded job's wait must
      // decompose into causes that sum to it exactly.
      if (auto report = daemon_->eta().explain(id); report.ok()) {
        DurationNs causes_total = 0;
        for (const auto& cause : report.value().causes) {
          causes_total += cause.duration;
        }
        input.explain_checks.push_back(
            {id, report.value().observed_wait, causes_total});
      }
    }
    input.eta_confidence = daemon_->eta().options().confidence;
    const TimeNs now = clock_.now();
    for (std::size_t u = 0; u < options_.users; ++u) {
      const std::string user = user_name(u);
      input.ledger_raw_shots[user] =
          daemon_->accounting().ledger().usage(user, now).raw_shots;
      input.inflight_shots[user] =
          daemon_->accounting().rate_limiter().inflight_shots(user);
    }
    for (const auto& [_, depth] : daemon_->dispatcher().queue_depths()) {
      input.queue_depth += depth;
    }
    if (telemetry::TraceStore* traces = daemon_->traces()) {
      input.check_traces = true;
      for (const auto& [id, job] : input.jobs) {
        if (job.trace_id == 0) continue;
        if (auto trace = traces->find(job.trace_id)) {
          input.traces.emplace(id, std::move(*trace));
        }
      }
    }
    if (options_.trace_dump) {
      common::Json dump = common::Json::object();
      common::Json events = common::Json::array();
      for (const auto& event : daemon_->events().since(0, 1 << 20)) {
        events.push_back(telemetry::EventLog::to_json(event));
      }
      dump["events"] = std::move(events);
      common::Json traces = common::Json::array();
      for (const auto& [id, trace] : input.traces) {
        traces.push_back(telemetry::TraceStore::to_json(trace));
      }
      dump["traces"] = std::move(traces);
      result_.trace_dump = dump.dump();
    }
    // A journal fail-stop mid-scenario made some daemon life dump its
    // black box to <data_dir>/flight.json; surface the forensics with the
    // result before the temp dir evaporates.
    if (options_.durable) {
      std::ifstream dump_file(data_dir_ + "/flight.json");
      if (!dump_file.is_open() && data_dir_ != dir_.path()) {
        dump_file.open(dir_.path() + "/flight.json");
      }
      if (dump_file) {
        std::ostringstream dump;
        dump << dump_file.rdbuf();
        result_.flight_dump = dump.str();
      }
    }
    input.gc_enabled = options_.gc;
    input.records_count = daemon_->dispatcher().jobs_snapshot().size();
    input.records_cap = options_.gc ? kGcCap : 0;
    input.check_ledger_balance = !options_.gc;
    if (options_.observability) {
      harvest_alerts();
      // Stable fired-order: lane interleaving never reorders records with
      // distinct grid stamps, and ties break on rule/label so two replays
      // serialize identically.
      std::sort(past_alerts_.begin(), past_alerts_.end(),
                [](const telemetry::AlertRecord& a,
                   const telemetry::AlertRecord& b) {
                  return std::tie(a.fired_at, a.rule, a.label) <
                         std::tie(b.fired_at, b.rule, b.label);
                });
      input.observability = true;
      input.alerts = past_alerts_;
      input.scrape_interval = scrape_interval_;
      input.expect_drift_alert = expect_drift_alert_;
      result_.alerts = past_alerts_;
      result_.stats.alerts_fired = past_alerts_.size();
    }
    // Final per-state tally for the sweep's summary line.
    for (const auto& [id, job] : input.jobs) {
      if (tracked_.count(id) == 0) continue;
      if (job.state == DaemonJobState::kCompleted) {
        ++result_.stats.completed;
      } else if (job.state == DaemonJobState::kFailed) {
        ++result_.stats.failed;
      } else if (job.state == DaemonJobState::kCancelled) {
        ++result_.stats.cancelled;
      }
    }
    result_.stats.virtual_end = now;
    return input;
  }

  /// The sweep's bit-identity probe (run AFTER gather — it replaces the
  /// daemon): a fresh, non-durable daemon over the healed fleet, drained
  /// before anything can dispatch, queried at a pinned virtual time. Every
  /// input — job ids, queue order, token-bucket level, the drain event the
  /// explain report attributes the wait to, the TSDB-less fallback batch
  /// latency — is a pure function of the seed, so two runs of one seed
  /// must serialize byte-identical eta and explain responses.
  void run_eta_probe() {
    // Pin far past anything an ok run can have reached: quiescence is
    // budgeted at 2 virtual minutes past its entry, which itself trails
    // the horizon by at most seconds of lane-sleep overshoot. A run that
    // got here later already failed the stall invariant — but check, so a
    // pathological overshoot fails loudly instead of diverging silently.
    const TimeNs probe_time =
        static_cast<TimeNs>(max_grid_) * scrape_interval_ +
        5 * 60 * common::kSecond;
    if (clock_.now() > probe_time) {
      violation("eta probe: virtual clock overshot the deterministic pin");
      return;
    }
    daemon_.reset();
    injector_.heal();
    disk_dead_ = false;
    clock_.advance_to(probe_time);
    daemon_ = make_probe_daemon();
    // Drained before the lanes can touch anything: the queue the
    // estimator simulates stays exactly the submission order below.
    daemon_->dispatcher().drain();
    auto session = daemon_->open_session("eta-probe", JobClass::kTest);
    if (!session.ok()) {
      violation("eta probe: could not open session: " +
                session.error().to_string());
      return;
    }
    common::Rng probe_rng = common::Rng(options_.seed).fork(4);
    const auto count =
        static_cast<std::size_t>(probe_rng.uniform_int(2, 4));
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < count; ++i) {
      const auto shots = static_cast<std::uint64_t>(probe_rng.uniform_int(
          static_cast<std::int64_t>(options_.min_shots),
          static_cast<std::int64_t>(options_.max_shots)));
      const std::int64_t cls_pick = probe_rng.uniform_int(0, 2);
      const JobClass cls = cls_pick == 0   ? JobClass::kProduction
                           : cls_pick == 1 ? JobClass::kTest
                                           : JobClass::kDevelopment;
      daemon::MiddlewareDaemon::SubmitHints hints;
      hints.partition = partition_for(cls);
      auto submitted = daemon_->submit_job(session.value().token,
                                           make_payload(shots), hints);
      if (!submitted.ok()) {
        violation("eta probe: submission rejected: " +
                  submitted.error().to_string());
        return;
      }
      ids.push_back(submitted.value().id);
    }
    // A deterministic wait gives the explain reports something to
    // attribute: 5 virtual seconds of global drain, exactly.
    clock_.advance(5 * common::kSecond);
    for (const std::uint64_t id : ids) {
      auto eta = daemon_->eta().estimate(id);
      auto explain = daemon_->eta().explain(id);
      if (!eta.ok() || !explain.ok()) {
        violation("eta probe: query failed for job " + std::to_string(id));
        return;
      }
      result_.eta_probe.push_back(eta.value().to_json().dump() + "\n" +
                                  explain.value().to_json().dump());
    }
    // Phase 2 — calibration under a PACED clock. The scenario proper
    // fast-forwards virtual time in catch-up jumps with no real sleeps,
    // so lanes starve of CPU while the clock races ahead and every
    // submit-time prediction looks late through no fault of the model.
    // Here the lanes are resumed, a fresh batch is submitted with its
    // predictions recorded, and virtual time advances in small steps
    // with real sleeps in between — the lanes keep up, so actual first
    // dispatches are a fair test of the predicted start upper bounds
    // (checked by the calibration invariant).
    daemon_->dispatcher().resume();
    std::vector<std::uint64_t> paced;
    for (std::size_t i = 0; i < 5; ++i) {
      const auto shots = static_cast<std::uint64_t>(probe_rng.uniform_int(
          static_cast<std::int64_t>(options_.min_shots),
          static_cast<std::int64_t>(options_.max_shots)));
      daemon::MiddlewareDaemon::SubmitHints hints;
      hints.partition = partition_for(JobClass::kTest);
      auto submitted = daemon_->submit_job(session.value().token,
                                           make_payload(shots), hints);
      if (!submitted.ok()) {
        violation("eta probe: paced submission rejected: " +
                  submitted.error().to_string());
        return;
      }
      const std::uint64_t id = submitted.value().id;
      auto eta = daemon_->eta().estimate(id);
      if (!eta.ok()) {
        violation("eta probe: paced estimate failed for job " +
                  std::to_string(id));
        return;
      }
      // A job a lane already picked up reports its actual start
      // (confidence 1.0) — a trivially satisfied sample, kept anyway so
      // the sample count is seed-stable.
      eta_samples_.push_back({id, eta.value().start_latest, 0});
      paced.push_back(id);
    }
    const TimeNs pace_deadline = clock_.now() + 30 * common::kSecond;
    while (true) {
      const auto jobs = job_table();
      bool all_dispatched = true;
      for (std::size_t i = 0; i < paced.size(); ++i) {
        const auto it = jobs.find(paced[i]);
        if (it == jobs.end() || it->second.first_dispatch_time <= 0) {
          all_dispatched = false;
          break;
        }
        eta_samples_[eta_samples_.size() - paced.size() + i]
            .first_dispatch = it->second.first_dispatch_time;
      }
      if (all_dispatched) break;
      if (clock_.now() >= pace_deadline) {
        violation("eta probe: paced jobs not dispatched within 30 "
                  "virtual seconds");
        return;
      }
      clock_.advance(2 * common::kMillisecond);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const std::vector<InvariantInput::EtaSample>& eta_samples() const {
    return eta_samples_;
  }

  /// End-of-run mirror check for federated seeds whose leader survived:
  /// after a final catch-up, replaying the standby's mirror must recover
  /// exactly what replaying the live leader's disk recovers. Runs after
  /// gather (the daemon is idle) and before the eta probe replaces it.
  void verify_replication() {
    if (standby_ == nullptr || daemon_->state_store() == nullptr) return;
    partition_until_ = -1;
    repl_source_->set_partitioned(false);
    // The leader is idle but alive: its group-commit writer, session
    // expiry sweeps and auto-compaction still run (and still advance
    // virtual time), so a single pull can land between a durable append
    // and the next. Flush-then-drain until the cut is consistent; a real
    // divergence persists through every attempt and is still reported.
    std::string divergence;
    for (int attempt = 0; attempt < 8; ++attempt) {
      // Best effort: a fail-stopped journal still serves (and must still
      // mirror) exactly its durable prefix.
      (void)daemon_->state_store()->flush();
      auto drained = standby_->replicator().catch_up();
      if (!drained.ok()) {
        violation("replication: final catch-up failed: " +
                  drained.error().to_string());
        return;
      }
      divergence = mirror_divergence(data_dir_);
      if (divergence.empty()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    violation("replication: " + divergence);
  }

 private:
  static constexpr std::size_t kGcCap = 12;
  /// Mirrors ObservabilityOptions::drift_warmup (asserted in make_daemon
  /// by setting it explicitly): scrapes the detectors swallow before they
  /// may alarm.
  static constexpr std::size_t kDriftWarmup = 20;

  bool stalled(TimeNs t) const {
    for (const auto& [from, to] : stall_windows_) {
      if (t >= from && t <= to) return true;
    }
    return false;
  }

  /// Folds the current daemon life's alert records (resolved history
  /// first, then still-active) into the cross-life accumulator. Called
  /// right before a kill tears the pipeline down, and once at gather.
  void harvest_alerts() {
    auto* obs = daemon_ != nullptr ? daemon_->observability() : nullptr;
    if (obs == nullptr) return;
    for (const auto& record : obs->alerts().history()) {
      past_alerts_.push_back(record);
    }
    for (const auto& record : obs->alerts().active()) {
      past_alerts_.push_back(record);
    }
  }

  std::string user_name(std::size_t u) const {
    return "u" + std::to_string(u);
  }
  std::string emu_name(std::size_t i) const {
    return "emu" + std::to_string(i % options_.fleet_size);
  }
  std::shared_ptr<qrmi::LocalEmulatorQrmi> emu_of(std::size_t i) {
    return emus_[i % emus_.size()];
  }

  void violation(std::string message) {
    result_.violations.push_back(std::move(message));
  }

  void open_session(std::size_t user) {
    auto session =
        daemon_->open_session(user_name(user), JobClass::kTest);
    if (!session.ok()) {
      violation("could not open session for " + user_name(user) + ": " +
                session.error().to_string());
      return;
    }
    tokens_[user] = session.value().token;
  }

  void close_session(std::size_t user) {
    const auto token = tokens_.find(user);
    if (token == tokens_.end()) return;
    (void)daemon_->close_session(token->second);
    // Queued jobs of that session just went terminal; bind the ones whose
    // cancellation is already durable so a later life cannot revive them.
    if (journal_healthy()) capture_durable_terminals();
    open_session(user);
  }

  void cancel_one(std::uint64_t pick) {
    const auto jobs = job_table();
    std::vector<std::uint64_t> live;
    for (const auto& [id, tracked] : tracked_) {
      const auto it = jobs.find(id);
      if (it == jobs.end()) continue;
      if (it->second.state == DaemonJobState::kQueued ||
          it->second.state == DaemonJobState::kRunning) {
        live.push_back(id);
      }
    }
    if (live.empty()) return;
    const std::uint64_t id = live[pick % live.size()];
    auto status = daemon_->dispatcher().cancel(id);
    if (status.ok() && journal_healthy()) {
      // The ack is durable (kAlways journal): this job must end — and
      // forever stay — cancelled, across any number of restarts.
      tracked_.at(id).must_cancel = true;
    }
  }

  void capture_durable_terminals() {
    const auto jobs = job_table();
    for (auto& [id, tracked] : tracked_) {
      if (tracked.durable_terminal.has_value()) continue;
      const auto it = jobs.find(id);
      if (it == jobs.end()) continue;
      const auto state = it->second.state;
      if (state == DaemonJobState::kCompleted ||
          state == DaemonJobState::kFailed ||
          state == DaemonJobState::kCancelled) {
        tracked.durable_terminal = state;
      }
    }
  }

  void restart() {
    if (daemon_->state_store() == nullptr) return;  // nothing to recover
    ++result_.stats.restarts;
    if (journal_healthy()) capture_durable_terminals();
    // The pipeline dies with the process but its alert record is the
    // operator's, not the daemon's: harvest it before the kill so the
    // invariants see the full cross-life timeline.
    harvest_alerts();
    // Teardown stands in for the kill: with a dead disk the final flushes
    // fail and everything after the fail point is simply gone — exactly
    // the on-disk image a crash would leave.
    daemon_.reset();
    injector_.heal();
    disk_dead_ = false;
    daemon_ = make_daemon();
    // Durably-terminal jobs must come back exactly as they died.
    const auto jobs = job_table();
    for (const auto& [id, tracked] : tracked_) {
      if (!tracked.durable_terminal.has_value()) continue;
      const auto it = jobs.find(id);
      if (it == jobs.end()) {
        if (!options_.gc) {
          violation("job " + std::to_string(id) +
                    " lost across restart despite a durable terminal "
                    "state");
        }
        continue;
      }
      if (it->second.state != *tracked.durable_terminal) {
        violation("job " + std::to_string(id) +
                  " changed state across restart: " +
                  daemon::to_string(*tracked.durable_terminal) + " -> " +
                  daemon::to_string(it->second.state));
      }
    }
    // Session tokens normally survive; ones lost to the dead journal are
    // reopened so their tenants keep submitting.
    for (std::size_t u = 0; u < options_.users; ++u) {
      const auto token = tokens_.find(u);
      if (token == tokens_.end() ||
          !daemon_->sessions().authenticate(token->second).ok()) {
        open_session(u);
      }
    }
  }

  /// (Re)creates the hot standby: a fresh mirror dir under ha_dir_, a
  /// file source over the CURRENT leader dir, and a StandbyDaemon whose
  /// factory re-points the harness at the mirror when it promotes. The
  /// harness drives every pull itself (poll_thread=false) so replication
  /// advances only with virtual time.
  void start_standby() {
    if (!options_.federation || !options_.durable) return;
    ++standby_gen_;
    standby_dir_ =
        ha_dir_.path() + "/standby" + std::to_string(standby_gen_);
    std::error_code ec;
    std::filesystem::create_directories(standby_dir_, ec);
    if (ec) {
      violation("could not create standby dir: " + ec.message());
      return;
    }
    repl_source_ =
        std::make_unique<federation::FileReplicationSource>(data_dir_);
    federation::StandbyOptions standby_options;
    standby_options.data_dir = standby_dir_;
    standby_options.poll_thread = false;
    standby_ = std::make_unique<federation::StandbyDaemon>(
        standby_options, repl_source_.get(),
        [this](const std::string& dir)
            -> common::Result<std::unique_ptr<daemon::MiddlewareDaemon>> {
          data_dir_ = dir;
          return make_daemon();
        },
        &clock_, nullptr, nullptr);
  }

  /// One replication pull against the leader's files, honouring any
  /// active partition window. Rate-limited to the scrape grid so the
  /// quiescence loop's 2 ms advances don't re-scan the journal file on
  /// every step.
  void pump_replication() {
    if (standby_ == nullptr) return;
    const TimeNs now = clock_.now();
    repl_source_->set_partitioned(now < partition_until_);
    if (last_repl_poll_ >= 0 && now - last_repl_poll_ < scrape_interval_) {
      return;
    }
    last_repl_poll_ = now;
    (void)standby_->poll_once();
  }

  /// Replays a data dir through the production recovery path. Pure read;
  /// nothing running is touched.
  common::Result<store::RecoveredState> replay_dir(
      const std::string& dir) const {
    return store::RecoveryReplayer::replay(dir + "/journal.log",
                                           dir + "/snapshot.json");
  }

  /// Mirror equivalence probe: replaying the standby's mirror must
  /// recover the same state as replaying the leader's own disk — the
  /// "no-crash run" a restart of that leader would have seen. Returns ""
  /// when equivalent, else what diverged.
  std::string mirror_divergence(const std::string& leader_dir) {
    auto leader = replay_dir(leader_dir);
    auto mirror = replay_dir(standby_dir_);
    if (!leader.ok() || !mirror.ok()) {
      return "replay failed: " + (!leader.ok()
                                      ? leader.error().to_string()
                                      : mirror.error().to_string());
    }
    const std::string mismatch =
        mirror_mismatch(leader.value(), mirror.value());
    if (mismatch.empty()) return "";
    return "standby mirror diverged from the leader's durable state: " +
           mismatch + " (leader last_seq " +
           std::to_string(leader.value().last_seq) + ", mirror last_seq " +
           std::to_string(mirror.value().last_seq) + ")";
  }

  void check_mirror_equivalence(const std::string& leader_dir,
                                const std::string& what) {
    const std::string divergence = mirror_divergence(leader_dir);
    if (!divergence.empty()) violation(what + ": " + divergence);
  }

  /// The leader dies for good. The standby drains whatever the surviving
  /// disk can still serve, proves its mirror equals the dead leader's
  /// durable state, fences the epoch and promotes; the promoted daemon
  /// replaces the dead one for the rest of the scenario and a fresh
  /// standby starts mirroring the new leader. With `crash_mid_promotion`
  /// the standby dies between the fence and the daemon build, and the
  /// retried promotion must find the fence durable and bump the epoch
  /// again.
  void leader_kill(bool crash_mid_promotion) {
    if (standby_ == nullptr || daemon_->state_store() == nullptr) return;
    ++result_.stats.leader_kills;
    if (journal_healthy()) capture_durable_terminals();
    harvest_alerts();
    const std::string dead_dir = data_dir_;
    // Teardown stands in for the kill (same rule as restart()); the dead
    // leader's disk survives it, which is exactly what the final drain
    // and the equivalence check read.
    daemon_.reset();
    injector_.heal();
    disk_dead_ = false;
    // A link partition cannot outlive the leader process: the drain runs
    // straight off the surviving disk.
    partition_until_ = -1;
    repl_source_->set_partitioned(false);
    auto drained = standby_->replicator().catch_up();
    if (!drained.ok()) {
      violation("leader kill: final drain failed: " +
                drained.error().to_string());
    }
    check_mirror_equivalence(dead_dir, "leader kill");
    const std::uint64_t epoch_before = standby_->epoch();
    // Outlives both promote() calls below: the hook stays installed.
    bool crashed = false;
    if (crash_mid_promotion) {
      standby_->set_promotion_crash_hook(
          [&crashed]() -> common::Status {
            if (crashed) return common::Status::ok_status();
            crashed = true;
            return common::err::io("injected crash mid-promotion");
          });
      auto first = standby_->promote();
      if (first.ok()) {
        violation("leader kill: mid-promotion crash hook never fired");
      }
      auto fenced = federation::read_epoch(standby_dir_);
      if (!fenced.ok() || fenced.value() <= epoch_before) {
        violation("leader kill: epoch fence not durable before the "
                  "mid-promotion crash");
      }
    }
    auto promoted = standby_->promote();
    if (!promoted.ok()) {
      violation("leader kill: promotion failed: " +
                promoted.error().to_string());
      // Keep the scenario alive on the old dir so quiescence still runs.
      data_dir_ = dead_dir;
      standby_.reset();
      repl_source_.reset();
      daemon_ = make_daemon();
      return;
    }
    const std::uint64_t epoch_after = standby_->epoch();
    if (epoch_after <= epoch_before ||
        (crash_mid_promotion && epoch_after < epoch_before + 2)) {
      violation("leader kill: promotion epochs did not strictly "
                "increase (" +
                std::to_string(epoch_before) + " -> " +
                std::to_string(epoch_after) + ")");
    }
    ++result_.stats.promotions;
    daemon_ = standby_->release_daemon();
    standby_.reset();
    repl_source_.reset();
    // Promotion restores exactly what a restart of the dead leader would
    // have: durably-terminal jobs unchanged, session tokens intact.
    const auto jobs = job_table();
    for (const auto& [id, tracked] : tracked_) {
      if (!tracked.durable_terminal.has_value()) continue;
      const auto it = jobs.find(id);
      if (it == jobs.end()) {
        if (!options_.gc) {
          violation("job " + std::to_string(id) +
                    " lost across promotion despite a durable terminal "
                    "state");
        }
        continue;
      }
      if (it->second.state != *tracked.durable_terminal) {
        violation("job " + std::to_string(id) +
                  " changed state across promotion: " +
                  daemon::to_string(*tracked.durable_terminal) + " -> " +
                  daemon::to_string(it->second.state));
      }
    }
    for (std::size_t u = 0; u < options_.users; ++u) {
      const auto token = tokens_.find(u);
      if (token == tokens_.end() ||
          !daemon_->sessions().authenticate(token->second).ok()) {
        open_session(u);
      }
    }
    start_standby();
  }

  std::map<std::uint64_t, daemon::DaemonJob> job_table() const {
    std::map<std::uint64_t, daemon::DaemonJob> out;
    for (const auto& job : daemon_->dispatcher().jobs_snapshot()) {
      out.emplace(job.id, job);
    }
    return out;
  }

  std::unique_ptr<daemon::MiddlewareDaemon> make_daemon() {
    daemon::DaemonOptions options;
    options.admin_key = "simtest";
    options.queue_policy.non_production_batch_shots = options_.batch_shots;
    options.queue_policy.submit_shards = options_.submit_shards;
    // Probe cadence scaled to the scenario horizon so flapped resources
    // re-probe (in virtual time) well before quiescence.
    options.broker.probe_interval = common::kSecond;
    options.broker.initial_backoff = 100 * common::kMillisecond;
    options.broker.max_backoff = 2 * common::kSecond;
    for (std::size_t u = 0; u < options_.users; ++u) {
      // Descending shares: u0 the best-funded tenant, the tail shares 10.
      const double shares = u == 0 ? 50.0 : u == 1 ? 30.0 : u == 2 ? 20.0
                                                                   : 10.0;
      options.accounting.fair_share.user_shares[user_name(u)] = {"sim",
                                                                 shares};
    }
    if (options_.rate_limits) {
      options.accounting.rate_limit.submit_per_sec = 25.0;
      options.accounting.rate_limit.submit_burst = 6.0;
      options.accounting.rate_limit.max_inflight_shots =
          options_.max_shots * 64;
    }
    if (options_.durable) {
      // data_dir_ starts as the scenario's own temp dir and re-points at
      // the standby's mirror when a leader kill promotes it.
      options.store.data_dir = data_dir_;
      options.store.journal.sync = store::SyncMode::kAlways;
      // Compaction is a scheduled fault event, not a background race.
      options.store.compact_every_events = 0;
    }
    if (options_.gc) options.store.terminal_job_cap = kGcCap;
    // Wide start-window slack for the in-scenario estimates (crash
    // coverage only — the step loop fast-forwards the clock, so these
    // predictions are never held to account; run_eta_probe's paced phase
    // owns calibration).
    options.telemetry.eta.start_slack = options_.horizon / 2;
    // Tracing stays on (the production default): the invariants verify
    // every terminal job's span tree, and the store is sized so no trace
    // the scenario can generate — including storm rejections — is ever
    // evicted mid-run.
    options.telemetry.trace_capacity = 1 << 16;
    options.telemetry.event_capacity = 1 << 14;
    // The live metrics pipeline under simulation: no scrape thread (the
    // harness owns the grid via tick_at), catch-up scrapes every missed
    // deadline, and burn windows sized in grid ticks so SLO evaluation is
    // meaningful at any seed's horizon.
    auto& obs = options.telemetry.observability;
    obs.enabled = options_.observability;
    if (options_.observability) {
      obs.scrape_thread = false;
      obs.scrape_all_overdue = true;
      obs.scrape_interval = scrape_interval_;
      obs.slo_short_window = 4 * scrape_interval_;
      obs.slo_long_window = 16 * scrape_interval_;
      obs.drift_warmup = kDriftWarmup;
    }
    qrmi::ResourceRegistry fleet;
    for (std::size_t i = 0; i < emus_.size(); ++i) {
      fleet.add(emu_name(i), emus_[i]);
    }
    ++lives_;
    auto daemon = std::make_unique<daemon::MiddlewareDaemon>(
        options, fleet, nullptr, &clock_);
    // Idle lanes re-check queues every 0.5 ms of real time: recovery from
    // flaps is bounded by microseconds, not the production 20 ms tick.
    daemon->dispatcher().set_idle_tick(common::kMillisecond / 2);
    return daemon;
  }

  /// A daemon whose every observable is seed-pure: no durable store (a
  /// replayed journal's record order is interleaving-dependent), no
  /// observability (an empty TSDB pins the eta engine to its fallback
  /// batch latency), same queue topology as the scenario proper.
  std::unique_ptr<daemon::MiddlewareDaemon> make_probe_daemon() {
    daemon::DaemonOptions options;
    options.admin_key = "simtest";
    options.queue_policy.non_production_batch_shots = options_.batch_shots;
    options.queue_policy.submit_shards = options_.submit_shards;
    if (options_.rate_limits) {
      options.accounting.rate_limit.submit_per_sec = 25.0;
      options.accounting.rate_limit.submit_burst = 6.0;
    }
    options.telemetry.observability.enabled = false;
    qrmi::ResourceRegistry fleet;
    for (std::size_t i = 0; i < emus_.size(); ++i) {
      fleet.add(emu_name(i), emus_[i]);
    }
    auto daemon = std::make_unique<daemon::MiddlewareDaemon>(
        options, fleet, nullptr, &clock_);
    // Same fast idle tick as the scenario daemon: the paced calibration
    // phase relies on lanes noticing queued work within microseconds of
    // real time.
    daemon->dispatcher().set_idle_tick(common::kMillisecond / 2);
    return daemon;
  }

  const ScenarioOptions& options_;
  ScenarioResult& result_;
  common::ManualClock clock_;
  /// Scrape grid, owned by the harness (see pump_scrapes).
  DurationNs scrape_interval_ = 0;
  std::uint64_t grid_idx_ = 1;
  std::uint64_t max_grid_ = 0;
  std::vector<std::pair<TimeNs, TimeNs>> stall_windows_;
  std::vector<telemetry::AlertRecord> past_alerts_;
  bool expect_drift_alert_ = false;
  common::TempDir dir_{"qcenv-simtest-"};
  /// The live leader's store dir (dir_ until a promotion re-points it).
  std::string data_dir_ = dir_.path();
  /// Standby mirror dirs live OUTSIDE the leader dir (a mirror inside it
  /// would recursively ship itself).
  common::TempDir ha_dir_{"qcenv-simtest-ha-"};
  std::unique_ptr<federation::FileReplicationSource> repl_source_;
  std::unique_ptr<federation::StandbyDaemon> standby_;
  std::string standby_dir_;
  std::size_t standby_gen_ = 0;
  TimeNs partition_until_ = -1;
  TimeNs last_repl_poll_ = -1;
  store::CountingFaultInjector injector_;
  bool disk_dead_ = false;
  std::size_t lives_ = 0;  // daemon incarnations (1 = the first boot)
  std::vector<std::shared_ptr<qrmi::LocalEmulatorQrmi>> emus_;
  std::vector<std::shared_ptr<EmuModel>> models_;
  std::unique_ptr<daemon::MiddlewareDaemon> daemon_;
  std::map<std::size_t, std::string> tokens_;
  std::map<std::uint64_t, TrackedJob> tracked_;
  /// Paced-probe calibration samples (see run_eta_probe phase 2).
  std::vector<InvariantInput::EtaSample> eta_samples_;
  common::Rng storm_rng_;
};

}  // namespace

ScenarioResult run_scenario(const ScenarioOptions& options) {
  ScenarioResult result;
  result.seed = options.seed;

  common::Rng root(options.seed);
  common::Rng fault_rng = root.fork(1);
  common::Rng load_rng = root.fork(2);

  FaultPlanOptions fault_options = options.faults;
  fault_options.fleet_size = options.fleet_size;
  fault_options.users = options.users;
  fault_options.horizon = options.horizon;
  if (!options.durable) {
    fault_options.restarts = 0;
    fault_options.disk_fault = false;
    fault_options.compactions = 0;
  }
  if (!options.durable || !options.federation) {
    fault_options.peer_partitions = 0;
    fault_options.torn_segments = 0;
    fault_options.leader_kills = 0;
  }
  const FaultPlan plan = make_fault_plan(fault_rng, fault_options);
  result.plan = plan.to_string();
  const std::vector<Submission> load = make_workload(load_rng, options);

  // One timeline: submissions and faults interleaved by virtual time.
  struct Step {
    DurationNs at;
    bool is_fault;
    std::size_t index;
  };
  std::vector<Step> timeline;
  timeline.reserve(load.size() + plan.events.size());
  for (std::size_t i = 0; i < load.size(); ++i) {
    timeline.push_back({load[i].at, false, i});
  }
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    timeline.push_back({plan.events[i].at, true, i});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Step& a, const Step& b) { return a.at < b.at; });

  SimWorld world(options, result);
  world.prepare_observability(plan);
  for (const auto& step : timeline) {
    // Catch-up jump (lanes may already have nudged virtual time past the
    // step through their latency sleeps — events then fire back-to-back, in
    // order, which preserves the schedule's semantics).
    world.clock().advance_to(step.at);
    // Grid deadlines up to the step fire before the step itself: a
    // scrape scheduled at or before t observes the world as of t.
    world.pump_scrapes(step.at);
    if (step.is_fault) {
      world.apply(plan.events[step.index]);
    } else {
      const Submission& submission = load[step.index];
      world.submit(submission.user, submission.cls, submission.shots);
    }
  }
  world.drive_to_quiescence();
  world.finish_scrapes();
  auto input = world.gather();
  // The mirror check needs the idle post-gather daemon; the probe below
  // replaces it.
  world.verify_replication();
  // The probe replaces the scenario daemon, so it must run after gather;
  // its calibration samples feed the invariant check below.
  world.run_eta_probe();
  input.eta_samples = world.eta_samples();
  auto violations = check_invariants(input);
  result.violations.insert(result.violations.end(), violations.begin(),
                           violations.end());
  return result;
}

ScenarioOptions scenario_for_seed(std::uint64_t seed, bool quick) {
  common::Rng rng(seed ^ 0xC0FFEE5EEDull);
  ScenarioOptions options;
  options.seed = seed;
  options.fleet_size =
      static_cast<std::size_t>(rng.uniform_int(1, 3));
  options.users = static_cast<std::size_t>(rng.uniform_int(2, 4));
  options.jobs = static_cast<std::size_t>(
      quick ? rng.uniform_int(10, 18) : rng.uniform_int(18, 40));
  options.min_shots = 20;
  options.max_shots =
      static_cast<std::uint64_t>(quick ? 100 : rng.uniform_int(100, 240));
  const std::int64_t batch = rng.uniform_int(0, 2);
  options.batch_shots = batch == 0 ? 8 : batch == 1 ? 16 : 32;
  options.durable = rng.bernoulli(0.75);
  options.gc = rng.bernoulli(0.2);
  options.latency = rng.bernoulli(0.3);
  options.rate_limits = rng.bernoulli(0.8);
  options.horizon = static_cast<DurationNs>(
      rng.uniform_int(20, 40) * common::kSecond);
  options.faults.flaps = static_cast<std::size_t>(rng.uniform_int(1, 3));
  options.faults.drains =
      static_cast<std::size_t>(rng.uniform_int(0, 1));
  options.faults.global_drain = rng.bernoulli(0.25);
  options.faults.cancels =
      static_cast<std::size_t>(rng.uniform_int(1, 4));
  options.faults.session_churns =
      static_cast<std::size_t>(rng.uniform_int(0, 1));
  options.faults.restarts = options.durable
                                ? static_cast<std::size_t>(
                                      rng.uniform_int(0, 2))
                                : 0;
  options.faults.disk_fault = options.durable && rng.bernoulli(0.35);
  options.faults.compactions = options.durable
                                   ? static_cast<std::size_t>(
                                         rng.uniform_int(0, 2))
                                   : 0;
  options.faults.storms =
      static_cast<std::size_t>(rng.uniform_int(0, 2));
  options.faults.brownout_prob = rng.bernoulli(0.3) ? 0.01 : 0.0;
  // Shard topology is part of the seed (1 = the unsharded layout), so
  // every invariant is exercised against every topology.
  options.submit_shards = std::size_t{1}
                          << static_cast<std::size_t>(rng.uniform_int(0, 3));
  // Compaction-then-restart lives: at least one compaction and one
  // restart, so replay runs over a rewritten journal. (This draw once
  // chose a first life on the retired JSON-lines journal; it stays so
  // every later derivation, and so every seed's fault plan, is unchanged.)
  if (options.durable && rng.bernoulli(0.35)) {
    options.faults.compactions = std::max<std::size_t>(
        options.faults.compactions, 1);
    options.faults.restarts = std::max<std::size_t>(
        options.faults.restarts, 1);
  }
  options.faults.compact_crashes =
      options.durable && rng.bernoulli(0.25) ? 1 : 0;
  // Metrics-pipeline faults: a calibration drift on roughly a third of
  // seeds (the invariant demands an alert only when the plan guarantees
  // one — see SimWorld::prepare_observability), a scrape stall on a
  // fifth. The grid interval derives from the horizon (~128 scrapes).
  options.faults.calib_drifts = rng.bernoulli(0.35) ? 1 : 0;
  options.faults.scrape_stalls = rng.bernoulli(0.2) ? 1 : 0;
  // Mid-run explainability queries (drawn last: earlier derivations stay
  // identical to pre-eta sweep generations, so seeds replay unchanged).
  options.faults.eta_probes =
      static_cast<std::size_t>(rng.uniform_int(0, 2));
  // Federated HA seeds (drawn after everything older, same stability
  // rule): a hot standby mirrors the leader via journal shipping, under
  // link partitions, torn shipped segments and permanent leader kills
  // with fenced promotion.
  options.federation = options.durable && rng.bernoulli(0.4);
  if (options.federation) {
    options.faults.peer_partitions = rng.bernoulli(0.5) ? 1 : 0;
    options.faults.torn_segments = rng.bernoulli(0.5) ? 1 : 0;
    options.faults.leader_kills = rng.bernoulli(0.5) ? 1 : 0;
  }
  return options;
}

}  // namespace qcenv::simtest

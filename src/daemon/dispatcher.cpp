#include "daemon/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#define QCENV_LOG_COMPONENT "daemon.dispatch"
#include "common/logging.hpp"

namespace qcenv::daemon {

using common::Result;
using common::Status;
using quantum::Payload;
using quantum::Samples;

namespace {

/// Poll interval for synchronous batch execution through QRMI: only the
/// fallback cadence of resources that keep Qrmi::task_wait's polling
/// default. In-process resources wake the lane on completion instead.
constexpr common::DurationNs kRunPoll = common::kMillisecond;

/// Failover budget per job: a batch returned by batch_failed() more often
/// than this fails the job instead of requeueing, so a payload that times
/// out on *every* resource cannot bounce around the fleet forever.
constexpr std::uint32_t kMaxBatchFailovers = 8;

/// Default submit-shard count when QueuePolicy::submit_shards is 0. A
/// fixed constant (not hardware-derived) so seeded simulations replay
/// identically everywhere.
constexpr std::size_t kDefaultShards = 8;

/// Bucket boundaries (seconds) for the per-stage latency histograms:
/// journal appends land in the microsecond buckets, queue waits anywhere
/// from sub-millisecond to minutes under load.
const std::vector<double>& stage_seconds_boundaries() {
  static const std::vector<double> kBoundaries = {
      1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300};
  return kBoundaries;
}

constexpr const char* kStageSecondsName = "daemon_stage_seconds";
constexpr const char* kStageSecondsHelp =
    "per-stage pipeline latency (admission/journal_append/queue_wait/"
    "shard_dispatch/qrmi_execute)";

/// Errors that indict the resource (node loss, endpoint down) rather than
/// the payload: these trigger failover instead of failing the job.
bool is_resource_failure(const common::Error& error) {
  switch (error.code()) {
    case common::ErrorCode::kUnavailable:
    case common::ErrorCode::kIo:
    case common::ErrorCode::kTimeout:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* to_string(DaemonJobState state) noexcept {
  switch (state) {
    case DaemonJobState::kQueued: return "queued";
    case DaemonJobState::kRunning: return "running";
    case DaemonJobState::kCompleted: return "completed";
    case DaemonJobState::kFailed: return "failed";
    case DaemonJobState::kCancelled: return "cancelled";
  }
  return "?";
}

Dispatcher::Dispatcher(std::shared_ptr<broker::ResourceBroker> broker,
                       QueuePolicy policy, common::Clock* clock,
                       telemetry::MetricsRegistry* metrics,
                       store::StateStore* store,
                       accounting::AccountingManager* accounting,
                       telemetry::TraceStore* traces,
                       telemetry::EventLog* events)
    : instance_(next_instance_.fetch_add(1, std::memory_order_relaxed)),
      broker_(std::move(broker)),
      clock_(clock),
      metrics_(metrics),
      store_(store),
      accounting_(accounting),
      traces_(traces),
      events_(events) {
  const std::size_t count =
      policy.submit_shards > 0 ? policy.submit_shards : kDefaultShards;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->core = PriorityQueueCore(policy);
    shards_.push_back(std::move(shard));
  }
  if (traces_ != nullptr && metrics_ != nullptr) {
    admission_hist_ = &metrics_->histogram(
        kStageSecondsName, stage_seconds_boundaries(),
        {{"stage", "admission"}}, kStageSecondsHelp);
    journal_append_hist_ = &metrics_->histogram(
        kStageSecondsName, stage_seconds_boundaries(),
        {{"stage", "journal_append"}}, kStageSecondsHelp);
  }
  if (metrics_ != nullptr) {
    for (const JobClass cls :
         {JobClass::kProduction, JobClass::kTest, JobClass::kDevelopment}) {
      submitted_counter_[static_cast<std::size_t>(class_rank(cls))] =
          &metrics_->counter("daemon_jobs_submitted_total",
                             {{"class", to_string(cls)}},
                             "jobs accepted by the daemon");
    }
  }
  install_priority_hook();
  start_lanes();
}

Dispatcher::Dispatcher(qrmi::QrmiPtr resource, QueuePolicy policy,
                       common::Clock* clock,
                       telemetry::MetricsRegistry* metrics,
                       store::StateStore* store,
                       accounting::AccountingManager* accounting,
                       telemetry::TraceStore* traces,
                       telemetry::EventLog* events)
    : Dispatcher(
          [&] {
            auto broker = std::make_shared<broker::ResourceBroker>(
                broker::BrokerOptions{}, clock, metrics);
            const Status added =
                broker->add(resource->resource_id(), resource);
            (void)added;  // collisions impossible in a fresh fleet
            return broker;
          }(),
          policy, clock, metrics, store, accounting, traces, events) {}

void Dispatcher::install_priority_hook() {
  if (accounting_ == nullptr) return;
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    // Runs under shard->mutex (every core call site holds it), so the
    // shard's interned names and the lambda's memo are safe; the
    // accounting side locks internally and never calls back. The core
    // asks once per bucket, and the key's user id indexes a per-pass
    // factor cache: a pass costs one fair-share table (shared by every
    // shard through fair_share_table) plus one lookup per user met.
    shard->core.set_priority_hook(
        [this, shard, memo = std::shared_ptr<const FairShareTable>{},
         pass = std::uint64_t{0},
         cache = std::vector<std::pair<std::uint64_t, double>>{}](
            std::uint64_t key, common::TimeNs now) mutable {
          if (memo == nullptr || memo->now != now) {
            memo = fair_share_table(now);
            ++pass;
          }
          const auto user = static_cast<std::size_t>(key >> 32);
          if (user >= cache.size()) cache.resize(shard->names.size());
          auto& [stamp, factor] = cache[user];
          if (stamp != pass) {
            stamp = pass;
            const std::string& name = shard->names[user];
            const auto it = memo->factors.find(name);
            // A user outside the known population (no usage/grant yet).
            factor = it != memo->factors.end()
                         ? it->second
                         : accounting_->priority(name, now);
          }
          return factor;
        });
  }
}

std::uint32_t Dispatcher::Shard::intern(const std::string& name) {
  const auto [it, added] =
      ids.try_emplace(name, static_cast<std::uint32_t>(names.size()));
  if (added) names.push_back(name);
  return it->second;
}

std::uint64_t Dispatcher::queue_key(Shard& shard, const std::string& user,
                                    const std::string& resource) {
  return static_cast<std::uint64_t>(shard.intern(user)) << 32 |
         shard.intern(resource);
}

void Dispatcher::place_locked(Shard& shard, Record& record,
                              std::string resource) {
  record.job.resource = std::move(resource);
  shard.core.rekey(record.job.id,
                   queue_key(shard, record.job.user, record.job.resource));
}

std::shared_ptr<const Dispatcher::FairShareTable>
Dispatcher::fair_share_table(common::TimeNs now) const {
  // A pass over several shards (tournament, ETA, queue listing) runs on
  // one thread at one `now`, so the last table per thread is the pass's:
  // its shards share one population traversal, and a pass that meets no
  // hook-ranked entry computes none. Keyed by dispatcher instance, so two
  // dispatchers in one process never share a table.
  thread_local std::shared_ptr<const FairShareTable> last;
  if (last == nullptr || last->dispatcher != instance_ || last->now != now) {
    last = std::make_shared<const FairShareTable>(
        FairShareTable{instance_, now, accounting_->priorities(now)});
  }
  return last;
}

void Dispatcher::start_lanes() {
  for (const auto& name : broker_->names()) {
    lanes_.emplace_back([this, name](const std::stop_token& stop) {
      lane_loop(stop, name);
    });
  }
}

Dispatcher::~Dispatcher() {
  for (auto& lane : lanes_) lane.request_stop();
  wake_lanes_all();
}

Dispatcher::Shard& Dispatcher::shard_for_user(const std::string& user) const {
  return *shards_[std::hash<std::string>{}(user) % shards_.size()];
}

Dispatcher::Shard* Dispatcher::find_shard(std::uint64_t job_id) const {
  const IndexStripe& stripe = index_[job_id % kIndexStripes];
  std::scoped_lock lock(stripe.mutex);
  const auto it = stripe.shard_of.find(job_id);
  if (it == stripe.shard_of.end()) return nullptr;
  return shards_[it->second].get();
}

void Dispatcher::index_insert(std::uint64_t job_id, std::uint32_t shard) {
  IndexStripe& stripe = index_[job_id % kIndexStripes];
  std::scoped_lock lock(stripe.mutex);
  stripe.shard_of.emplace(job_id, shard);
}

void Dispatcher::index_erase(std::uint64_t job_id) {
  IndexStripe& stripe = index_[job_id % kIndexStripes];
  std::scoped_lock lock(stripe.mutex);
  stripe.shard_of.erase(job_id);
}

std::vector<std::unique_lock<std::mutex>> Dispatcher::lock_all_shards()
    const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  return locks;
}

void Dispatcher::wake_lanes() {
  // seq_cst on both sides pairs with the waiter registration in
  // lane_loop: either this bump is ordered before the lane's epoch read
  // (the lane sees new work and skips the sleep) or the registration is
  // ordered before the load below (this thread sees the waiter and
  // notifies) — never neither. When no lane is registered the submit
  // hot path pays one atomic load here instead of a mutex handoff and a
  // futex wake per submission.
  dispatch_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (dispatch_waiters_.load(std::memory_order_seq_cst) == 0) return;
  {
    // Empty critical section: orders the epoch bump against a lane that
    // evaluated its wait predicate but has not gone to sleep yet.
    std::scoped_lock lock(dispatch_mutex_);
  }
  dispatch_cv_.notify_all();
}

void Dispatcher::wake_lanes_all() {
  dispatch_epoch_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::scoped_lock lock(dispatch_mutex_);
  }
  // Unconditional: parked lanes (global drain) deliberately do not
  // register as epoch waiters, so state flips that end a park — resume,
  // stop, tick changes — must not be gated on the waiter count.
  dispatch_cv_.notify_all();
}

void Dispatcher::observe_stage(const std::string& stage, JobClass cls,
                               const std::string& resource,
                               common::DurationNs duration) {
  if (metrics_ == nullptr || duration < 0) return;
  // Fast path for the two submit-side stages: pre-resolved handles (see
  // the constructor) so 64 submitting threads never touch the registry
  // mutex.
  if (stage == "admission" && admission_hist_ != nullptr) {
    admission_hist_->observe(common::to_seconds(duration));
    return;
  }
  if (stage == "journal_append" && journal_append_hist_ != nullptr) {
    journal_append_hist_->observe(common::to_seconds(duration));
    return;
  }
  telemetry::Labels labels{{"stage", stage}};
  if (!resource.empty()) labels["resource"] = resource;
  // Queue waits are the fairness-visible stage: break them down by
  // priority tier so a starved class is visible per class, not averaged.
  if (stage == "queue_wait") labels["class"] = to_string(cls);
  metrics_
      ->histogram(kStageSecondsName, stage_seconds_boundaries(), labels,
                  kStageSecondsHelp)
      .observe(common::to_seconds(duration));
}

void Dispatcher::materialize_trace_locked(Record& record) {
  if (traces_ == nullptr || record.job.trace_id == 0 ||
      record.trace_materialized) {
    return;
  }
  record.trace_materialized = true;
  // The submit-side stage histograms are deferred along with the spans:
  // the scalars live in the record, so the observations do not depend on
  // the trace still being in the ring.
  if (record.queue_start >= 0) {
    if (admission_hist_ != nullptr) {
      admission_hist_->observe(common::to_seconds(record.job.submit_time -
                                                  record.admission_start));
    }
    if (store_ != nullptr && journal_append_hist_ != nullptr) {
      journal_append_hist_->observe(
          common::to_seconds(record.queue_start - record.job.submit_time));
    }
  }
  std::string detail = "shard=" + std::to_string(record.shard_index);
  if (!record.job.resource.empty()) {
    detail += " resource=" + record.job.resource;
  }
  const common::TimeNs admission_start = record.admission_start >= 0
                                             ? record.admission_start
                                             : record.job.submit_time;
  const common::TimeNs queue_start = record.queue_start >= 0
                                         ? record.queue_start
                                         : record.job.submit_time;
  traces_->materialize_submit(
      record.job.trace_id, record.job.id, record.job.user, admission_start,
      store_ != nullptr ? record.job.submit_time : -1, queue_start,
      std::move(detail));
}

void Dispatcher::drop_user_pending(Shard& shard, const std::string& user) {
  const auto it = shard.user_pending.find(user);
  if (it == shard.user_pending.end()) return;  // defensive
  if (--it->second == 0) shard.user_pending.erase(it);
}

std::uint64_t Dispatcher::submit(common::SessionId session,
                                 const std::string& user, JobClass cls,
                                 Payload payload) {
  return submit(session, user, cls, std::move(payload), SubmitOptions{})
      .value();
}

Result<std::uint64_t> Dispatcher::submit(common::SessionId session,
                                         const std::string& user,
                                         JobClass cls, Payload payload,
                                         const SubmitOptions& options) {
  return submit(session, user, cls,
                std::make_shared<const Payload>(std::move(payload)),
                options);
}

Result<std::uint64_t> Dispatcher::submit(
    common::SessionId session, const std::string& user, JobClass cls,
    std::shared_ptr<const Payload> payload, const SubmitOptions& options) {
  Shard& shard = shard_for_user(user);
  const std::uint32_t shard_index = static_cast<std::uint32_t>(
      std::hash<std::string>{}(user) % shards_.size());
  std::uint64_t id = 0;
  common::TimeNs submit_time = 0;
  {
    std::scoped_lock lock(shard.mutex);
    // A fail-stopped journal can acknowledge nothing: accepting work it
    // cannot journal would hand out jobs a restart silently forgets.
    // has_failed() is one atomic load; the (rare) failure branch may then
    // take the journal mutex to fetch the sticky error's message.
    if (store_ != nullptr && store_->journal().has_failed()) {
      return common::err::io(
          "durable store has failed (" +
          store_->journal().io_error()->message() +
          "); submissions are rejected until the daemon is restarted");
    }
    if (options.user_pending_limit > 0) {
      // O(1): the shard tracks queued-job counts per user (a user's jobs
      // all live in this one shard, so this count is exact and the check
      // is atomic with the enqueue below).
      const auto it = shard.user_pending.find(user);
      const std::size_t pending =
          it != shard.user_pending.end() ? it->second : 0;
      if (pending >= options.user_pending_limit) {
        return common::err::resource_exhausted(
            "user '" + user + "' already has " + std::to_string(pending) +
            " job(s) pending (per-user limit " +
            std::to_string(options.user_pending_limit) + ")");
      }
    }
    std::string placed;
    if (!options.resource.empty()) {
      auto picked = broker_->pick({.policy = options.policy,
                                   .resource_hint = options.resource,
                                   .exclude = {}});
      if (!picked.ok()) return picked.error();
      placed = std::move(picked).value();
    } else {
      auto picked =
          broker_->pick({.policy = options.policy, .resource_hint = {},
                         .exclude = {}});
      // No healthy resource right now: accept the job unplaced; a lane
      // claims it once its resource recovers.
      if (picked.ok()) placed = std::move(picked).value();
    }
    id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
    Record record;
    record.job.id = id;
    record.job.session = session;
    record.job.user = user;
    record.job.job_class = cls;
    record.job.total_shots = payload->shots();
    record.job.submit_time = clock_->now();
    record.job.resource = std::move(placed);
    record.pinned = !options.resource.empty();
    record.policy_hint = options.policy;
    record.job.trace_id = options.trace_id;
    record.shard_index = shard_index;
    record.payload = std::move(payload);
    submit_time = record.job.submit_time;
    // The job id doubles as the queue seq: one global allocator keeps
    // cross-shard FIFO order identical to a single shared queue.
    shard.core.enqueue(id, cls, record.job.total_shots,
                       record.job.submit_time, id,
                       queue_key(shard, user, record.job.resource));
    total_queued_.fetch_add(1, std::memory_order_relaxed);
    ++shard.user_pending[user];
    ++shard.user_slo[user].submitted;
    const auto inserted = shard.records.emplace(id, std::move(record));
    shard.active.emplace(id, &inserted.first->second);
    index_insert(id, shard_index);
    if (store_ != nullptr) {
      // Deferred payload serialization keeps the submit path O(metadata).
      const std::uint64_t seq =
          store_->job_submitted(to_record_locked(inserted.first->second),
                                inserted.first->second.payload);
      // If THIS append did not become durable the frame is not on disk
      // (failed writes never land; a written-but-unfsynced frame is
      // sheared back off by write_block's compensating truncate), so a
      // restart cannot resurrect this job. Unwind the admission instead
      // of acking a submission that is not durable: the caller releases
      // its accounting reservation on this error, leaving ledger and
      // rate limiter exactly as before the request. The per-seq check
      // matters: a lane on another shard can fail-stop the journal right
      // after our frame was fsynced, and unwinding THEN would reject a
      // job a restart will replay — a zombie no client knows it owns.
      if (store_->journal().has_failed() &&
          !store_->journal().is_durable(seq)) {
        shard.core.remove(id);
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
        drop_user_pending(shard, user);
        shard.active.erase(id);
        if (!inserted.first->second.job.resource.empty()) {
          broker_->unbind(inserted.first->second.job.resource);
        }
        shard.records.erase(inserted.first);
        index_erase(id);
        return common::err::io(
            "journal append failed (" +
            store_->journal().io_error()->message() +
            "); submission rejected");
      }
    }
    if (traces_ != nullptr && options.trace_id != 0) {
      // Deferred tracing: the admission-limited path records two scalar
      // timestamps in the record it is already writing — no TraceStore
      // lock, no trace memory traffic, no histogram work.
      // materialize_trace_locked builds the spans and feeds the two
      // submit-side stage histograms at first claim/finish/read. (On the
      // journal-failure unwind above nothing materializes; the daemon
      // records a rejected trace.)
      Record& traced = inserted.first->second;
      traced.admission_start =
          options.trace_start >= 0 ? options.trace_start : submit_time;
      traced.queue_start = clock_->now();
    }
  }
  // Amortized terminal-job GC: each submission pays for the sweep that
  // keeps record tables bounded — but only the one atomic precheck
  // unless something is actually evictable (the sweep itself locks every
  // shard, which must not happen per submit on the hot path).
  const std::size_t cap = terminal_cap_.load(std::memory_order_relaxed);
  const common::DurationNs retention =
      terminal_retention_.load(std::memory_order_relaxed);
  const std::size_t terminal = terminal_count_.load(std::memory_order_relaxed);
  if ((cap > 0 && terminal > cap) ||
      (retention > 0 && terminal > 0 &&
       earliest_terminal_.load(std::memory_order_relaxed) + retention <=
           submit_time)) {
    (void)sweep_terminal_all(submit_time);
  }
  if (metrics_ != nullptr) {
    submitted_counter_[static_cast<std::size_t>(class_rank(cls))]
        ->increment();
  }
  wake_lanes();
  return id;
}

Result<DaemonJob> Dispatcher::query(std::uint64_t job_id) const {
  Shard* shard = find_shard(job_id);
  if (shard == nullptr) {
    return common::err::not_found("unknown job " + std::to_string(job_id));
  }
  std::scoped_lock lock(shard->mutex);
  const auto it = shard->records.find(job_id);
  if (it == shard->records.end()) {
    return common::err::not_found("unknown job " + std::to_string(job_id));
  }
  return it->second.job;
}

Result<Samples> Dispatcher::result(std::uint64_t job_id) const {
  Shard* shard = find_shard(job_id);
  if (shard == nullptr) {
    return common::err::not_found("unknown job " + std::to_string(job_id));
  }
  std::scoped_lock lock(shard->mutex);
  const auto it = shard->records.find(job_id);
  if (it == shard->records.end()) {
    return common::err::not_found("unknown job " + std::to_string(job_id));
  }
  const Record& record = it->second;
  switch (record.job.state) {
    case DaemonJobState::kCompleted:
      if (record.samples != nullptr) return *record.samples;
      return Samples(record.payload != nullptr ? record.payload->num_qubits()
                                               : 0);
    case DaemonJobState::kFailed:
      return common::err::internal(record.job.error);
    case DaemonJobState::kCancelled:
      return common::err::cancelled("job was cancelled");
    default:
      return common::err::failed_precondition(
          "job is " + std::string(to_string(record.job.state)));
  }
}

Result<telemetry::JobTrace> Dispatcher::trace(std::uint64_t job_id) {
  if (traces_ == nullptr) {
    return common::err::failed_precondition("tracing is disabled");
  }
  telemetry::TraceId trace_id = 0;
  {
    Shard* shard = find_shard(job_id);
    if (shard == nullptr) {
      return common::err::not_found("unknown job " + std::to_string(job_id));
    }
    std::scoped_lock lock(shard->mutex);
    const auto it = shard->records.find(job_id);
    if (it == shard->records.end()) {
      return common::err::not_found("unknown job " + std::to_string(job_id));
    }
    // Deferred traces materialize on first read, so a still-queued job's
    // timeline is visible mid-flight.
    materialize_trace_locked(it->second);
    trace_id = it->second.job.trace_id;
  }
  if (trace_id == 0) {
    return common::err::not_found("job has no trace");
  }
  std::optional<telemetry::JobTrace> found = traces_->find(trace_id);
  if (!found.has_value()) {
    return common::err::not_found("trace evicted");
  }
  return *std::move(found);
}

Result<Samples> Dispatcher::wait(std::uint64_t job_id) {
  return wait(job_id, -1);
}

Result<Samples> Dispatcher::wait(std::uint64_t job_id,
                                 common::DurationNs timeout) {
  Shard* shard = find_shard(job_id);
  if (shard == nullptr) {
    return common::err::not_found("unknown job " + std::to_string(job_id));
  }
  {
    std::unique_lock lock(shard->mutex);
    const auto it = shard->records.find(job_id);
    if (it == shard->records.end()) {
      return common::err::not_found("unknown job " + std::to_string(job_id));
    }
    const auto terminal = [&] {
      const auto found = shard->records.find(job_id);
      if (found == shard->records.end()) return true;  // GC'd while waiting
      const auto& state = found->second.job.state;
      return state == DaemonJobState::kCompleted ||
             state == DaemonJobState::kFailed ||
             state == DaemonJobState::kCancelled;
    };
    if (timeout < 0) {
      shard->cv.wait(lock, terminal);
    } else if (!shard->cv.wait_for(lock, std::chrono::nanoseconds(timeout),
                                   terminal)) {
      const DaemonJob& job = shard->records.at(job_id).job;
      return common::err::timeout(
          "job " + std::to_string(job_id) + " still " +
          to_string(job.state) + " after " +
          std::to_string(timeout / common::kMillisecond) + " ms (resource: " +
          (job.resource.empty() ? "<unplaced>" : job.resource) + ")");
    }
  }
  return result(job_id);
}

Status Dispatcher::cancel(std::uint64_t job_id) {
  Shard* shard = find_shard(job_id);
  if (shard == nullptr) {
    return common::err::not_found("unknown job " + std::to_string(job_id));
  }
  std::scoped_lock lock(shard->mutex);
  const auto it = shard->records.find(job_id);
  if (it == shard->records.end()) {
    return common::err::not_found("unknown job " + std::to_string(job_id));
  }
  Record& record = it->second;
  switch (record.job.state) {
    case DaemonJobState::kQueued:
      if (shard->core.remove(job_id)) {
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
      }
      finish_locked(*shard, record, DaemonJobState::kCancelled, "");
      return Status::ok_status();
    case DaemonJobState::kRunning:
      // Honoured at the next batch boundary (shot-batch granularity);
      // journaled so a crash before that boundary cannot resurrect it.
      record.cancel_requested = true;
      if (store_ != nullptr) store_->job_cancel_requested(job_id);
      return Status::ok_status();
    default:
      return common::err::failed_precondition(
          "job already " + std::string(to_string(record.job.state)));
  }
}

void Dispatcher::set_idle_tick(common::DurationNs tick) {
  idle_tick_.store(tick > 0 ? tick : common::kMillisecond);
  wake_lanes_all();
}

void Dispatcher::drain() {
  const bool was = draining_.exchange(true);
  // The transition event (not the state) is what the ETA engine replays
  // to attribute wait time to maintenance windows.
  if (!was && events_ != nullptr) {
    events_->log(clock_->now(), telemetry::Severity::kInfo, "drain_all",
                 "global dispatch drain");
  }
  wake_lanes_all();
}

void Dispatcher::resume() {
  const bool was = draining_.exchange(false);
  if (was && events_ != nullptr) {
    events_->log(clock_->now(), telemetry::Severity::kInfo, "resume_all",
                 "global dispatch resume");
  }
  wake_lanes_all();
}

Status Dispatcher::drain_resource(const std::string& name) {
  QCENV_RETURN_IF_ERROR(broker_->drain(name));
  // Rolling maintenance: queued work leaves the drained resource now.
  reassign_from(name);
  return Status::ok_status();
}

Status Dispatcher::resume_resource(const std::string& name) {
  QCENV_RETURN_IF_ERROR(broker_->resume(name));
  wake_lanes();
  return Status::ok_status();
}

std::map<JobClass, std::size_t> Dispatcher::queue_depths() const {
  std::map<JobClass, std::size_t> out = {
      {JobClass::kProduction, 0},
      {JobClass::kTest, 0},
      {JobClass::kDevelopment, 0},
  };
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    out[JobClass::kProduction] += shard->core.depth_of(JobClass::kProduction);
    out[JobClass::kTest] += shard->core.depth_of(JobClass::kTest);
    out[JobClass::kDevelopment] +=
        shard->core.depth_of(JobClass::kDevelopment);
  }
  return out;
}

std::vector<DaemonJob> Dispatcher::jobs_snapshot() const {
  std::vector<DaemonJob> out;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    out.reserve(out.size() + shard->records.size());
    for (const auto& [_, record] : shard->records) out.push_back(record.job);
  }
  std::sort(out.begin(), out.end(),
            [](const DaemonJob& a, const DaemonJob& b) { return a.id < b.id; });
  return out;
}

void Dispatcher::merge_heads_locked(
    common::TimeNs now,
    const std::function<void(const Shard&, const PriorityQueueCore::Head&)>&
        visit) const {
  // One `now` for every shard so hook priorities and aging are evaluated
  // consistently, then a k-way merge with the core's own comparator:
  // exactly the order the dispatch tournament would drain.
  std::vector<std::vector<PriorityQueueCore::Head>> heads;
  heads.reserve(shards_.size());
  bool shortest_first = false;
  for (const auto& shard : shards_) {
    shortest_first = shard->core.policy().shortest_first_within_class;
    heads.push_back(shard->core.snapshot_heads(now));
  }
  std::vector<std::size_t> cursor(heads.size(), 0);
  while (true) {
    const PriorityQueueCore::Head* best = nullptr;
    std::size_t best_list = 0;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (cursor[i] >= heads[i].size()) continue;
      const PriorityQueueCore::Head& head = heads[i][cursor[i]];
      if (best == nullptr ||
          PriorityQueueCore::head_before(head, *best, shortest_first)) {
        best = &head;
        best_list = i;
      }
    }
    if (best == nullptr) break;
    visit(*shards_[best_list], *best);
    ++cursor[best_list];
  }
}

Dispatcher::PendingView Dispatcher::pending_view(
    const Record& record, const PriorityQueueCore::Head& head) {
  PendingView view;
  view.job_id = head.job_id;
  view.user = record.job.user;
  view.cls = head.cls;
  view.rank = head.rank;
  view.has_hook = head.has_hook;
  view.hook = head.hook;
  view.remaining_shots = head.remaining_shots;
  view.resource = record.job.resource;
  view.pinned = record.pinned;
  view.submit_time = record.job.submit_time;
  return view;
}

std::vector<std::uint64_t> Dispatcher::queue_order() const {
  const common::TimeNs now = clock_->now();
  const auto locks = lock_all_shards();
  std::vector<std::uint64_t> out;
  merge_heads_locked(
      now, [&](const Shard&, const PriorityQueueCore::Head& head) {
        out.push_back(head.job_id);
      });
  return out;
}

Dispatcher::PendingSnapshot Dispatcher::pending_snapshot() const {
  PendingSnapshot out;
  out.now = clock_->now();
  const auto locks = lock_all_shards();
  merge_heads_locked(
      out.now, [&](const Shard& shard, const PriorityQueueCore::Head& head) {
        const auto it = shard.records.find(head.job_id);
        if (it != shard.records.end()) {
          out.entries.push_back(pending_view(it->second, head));
        }
      });
  return out;
}

std::optional<Dispatcher::PendingView> Dispatcher::for_each_ahead(
    std::uint64_t job_id, common::TimeNs now, const AheadFn& visit) const {
  Shard* home = find_shard(job_id);
  if (home == nullptr) return std::nullopt;
  PriorityQueueCore::Head pivot;
  PendingView me;
  {
    std::scoped_lock lock(home->mutex);
    const auto head = home->core.head_of(job_id, now);
    if (!head.has_value()) return std::nullopt;
    pivot = *head;
    me = pending_view(home->records.at(job_id), pivot);
  }
  // Each shard is visited once under its own lock, one aggregate per
  // bucket: a deep queue costs O(buckets), not a pass over every job.
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    shard->core.count_before(
        pivot, now, [&](const PriorityQueueCore::BucketAhead& ahead) {
          visit(me, ahead, shard->names[ahead.key >> 32]);
        });
  }
  return me;
}

std::map<std::string, std::size_t> Dispatcher::user_pending_counts() const {
  std::map<std::string, std::size_t> out;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    // Users never span shards, so this is a disjoint union, not a merge.
    out.insert(shard->user_pending.begin(), shard->user_pending.end());
  }
  return out;
}

std::size_t Dispatcher::pending_for_user(const std::string& user) const {
  Shard& shard = shard_for_user(user);
  std::scoped_lock lock(shard.mutex);
  const auto it = shard.user_pending.find(user);
  return it != shard.user_pending.end() ? it->second : 0;
}

std::map<std::string, Dispatcher::UserSlo> Dispatcher::slo_counts() const {
  std::map<std::string, UserSlo> out;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    // Users never span shards, so this is a disjoint union, not a merge.
    out.insert(shard->user_slo.begin(), shard->user_slo.end());
  }
  return out;
}

std::map<std::string, Dispatcher::QueueWaitSplit>
Dispatcher::queue_wait_split(common::TimeNs now,
                             common::DurationNs threshold) const {
  std::map<std::string, QueueWaitSplit> out;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    for (const auto& [_, record] : shard->active) {
      const DaemonJob& job = record->job;
      if (job.state != DaemonJobState::kQueued) continue;
      QueueWaitSplit& split = out[job.user];
      if (now - job.submit_time > threshold) {
        ++split.over;
      } else {
        ++split.within;
      }
    }
  }
  return out;
}

void Dispatcher::set_lane_heartbeat(
    std::function<void(const std::string&)> heartbeat) {
  std::scoped_lock lock(heartbeat_mutex_);
  lane_heartbeat_ = std::move(heartbeat);
}

void Dispatcher::set_terminal_retention(common::DurationNs retention,
                                        std::size_t cap) {
  terminal_retention_.store(retention);
  terminal_cap_.store(cap);
}

std::size_t Dispatcher::sweep_terminal() {
  return sweep_terminal_all(clock_->now());
}

std::size_t Dispatcher::sweep_terminal_all(common::TimeNs now) {
  const common::DurationNs retention = terminal_retention_.load();
  const std::size_t cap = terminal_cap_.load();
  if (retention <= 0 && cap == 0) return 0;
  std::size_t evicted = 0;
  {
    const auto locks = lock_all_shards();
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->terminal_order.size();
    // Global LRU: repeatedly evict the shard front with the oldest finish
    // time, so the cap behaves exactly as it did with one record table.
    while (total > 0) {
      Shard* victim = nullptr;
      common::TimeNs victim_finish = 0;
      std::uint64_t victim_id = 0;
      for (const auto& shard : shards_) {
        while (!shard->terminal_order.empty() &&
               shard->records.count(shard->terminal_order.front()) == 0) {
          shard->terminal_order.pop_front();  // defensive: already gone
          --total;
        }
        if (shard->terminal_order.empty()) continue;
        const std::uint64_t id = shard->terminal_order.front();
        const common::TimeNs finish =
            shard->records.at(id).job.finish_time;
        if (victim == nullptr || finish < victim_finish ||
            (finish == victim_finish && id < victim_id)) {
          victim = shard.get();
          victim_finish = finish;
          victim_id = id;
        }
      }
      if (victim == nullptr) break;
      const bool over_cap = cap > 0 && total > cap;
      const bool expired =
          retention > 0 && victim_finish + retention <= now;
      if (!over_cap && !expired) break;  // globally oldest: nothing further
      victim->terminal_order.pop_front();
      victim->records.erase(victim_id);
      index_erase(victim_id);
      if (store_ != nullptr) store_->job_evicted(victim_id);
      ++evicted;
      --total;
    }
    terminal_count_.store(total, std::memory_order_relaxed);
    // Recompute the exact oldest terminal finish for the next precheck.
    common::TimeNs earliest = std::numeric_limits<common::TimeNs>::max();
    for (const auto& shard : shards_) {
      if (shard->terminal_order.empty()) continue;
      earliest = std::min(
          earliest,
          shard->records.at(shard->terminal_order.front()).job.finish_time);
    }
    earliest_terminal_.store(earliest, std::memory_order_relaxed);
  }
  if (evicted > 0 && metrics_ != nullptr) {
    metrics_
        ->counter("daemon_jobs_evicted_total", {},
                  "terminal job records dropped by retention/cap GC")
        .increment(static_cast<double>(evicted));
  }
  return evicted;
}

std::map<std::string, Dispatcher::LaneDepth> Dispatcher::lane_depths()
    const {
  std::map<std::string, LaneDepth> out;
  for (const auto& name : broker_->names()) out[name];
  // O(live jobs), not O(all jobs ever): records keep terminal jobs for
  // result serving, but only active members can sit on a lane.
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    for (const auto& [_, live] : shard->active) {
      const Record& record = *live;
      const std::string& key = record.job.resource.empty()
                                   ? std::string("(unplaced)")
                                   : record.job.resource;
      if (record.job.state == DaemonJobState::kQueued) {
        ++out[key].queued;
      } else if (record.job.state == DaemonJobState::kRunning) {
        ++out[key].running;
      }
    }
  }
  return out;
}

std::size_t Dispatcher::cancel_for_session(common::SessionId session) {
  std::size_t affected = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    // Copy: finish_locked below erases from active as we cancel.
    std::vector<Record*> live;
    live.reserve(shard->active.size());
    for (const auto& [_, record] : shard->active) live.push_back(record);
    for (Record* const entry : live) {
      Record& record = *entry;
      const std::uint64_t id = record.job.id;
      if (record.job.session != session) continue;
      switch (record.job.state) {
        case DaemonJobState::kQueued:
          if (shard->core.remove(id)) {
            total_queued_.fetch_sub(1, std::memory_order_relaxed);
          }
          finish_locked(*shard, record, DaemonJobState::kCancelled,
                        "session closed");
          ++affected;
          break;
        case DaemonJobState::kRunning:
          if (!record.cancel_requested) {
            record.cancel_requested = true;
            if (store_ != nullptr) store_->job_cancel_requested(id);
            ++affected;
          }
          break;
        default:
          break;
      }
    }
  }
  if (affected > 0) wake_lanes();
  return affected;
}

store::JobRecord Dispatcher::to_record_locked(const Record& record) const {
  store::JobRecord out;
  out.id = record.job.id;
  out.session = record.job.session.value;
  out.user = record.job.user;
  out.job_class = record.job.job_class;
  switch (record.job.state) {
    case DaemonJobState::kQueued: out.phase = store::JobPhase::kQueued; break;
    case DaemonJobState::kRunning:
      out.phase = store::JobPhase::kRunning;
      break;
    case DaemonJobState::kCompleted:
      out.phase = store::JobPhase::kCompleted;
      break;
    case DaemonJobState::kFailed: out.phase = store::JobPhase::kFailed; break;
    case DaemonJobState::kCancelled:
      out.phase = store::JobPhase::kCancelled;
      break;
  }
  out.total_shots = record.job.total_shots;
  out.shots_done = record.job.shots_done;
  out.submit_time = record.job.submit_time;
  out.first_dispatch_time = record.job.first_dispatch_time;
  out.finish_time = record.job.finish_time;
  out.resource = record.job.resource;
  out.cancel_requested = record.cancel_requested;
  out.pinned = record.pinned;
  if (record.policy_hint.has_value()) {
    out.policy = broker::to_string(*record.policy_hint);
  }
  out.error = record.job.error;
  return out;
}

store::StoreSnapshot Dispatcher::durable_snapshot() const {
  // Copy cheap metadata (plus shared payload handles and counts maps)
  // under the locks; the heavy JSON is serialized outside them, one
  // record at a time as StoreSnapshot::write_atomic streams the file, so
  // a compaction over a large job table neither stalls submits and
  // dispatch lanes nor holds a second copy of the history as Json.
  store::StoreSnapshot snapshot;
  // Payload handles ride next to the records until their fingerprints
  // are resolved outside the locks.
  std::vector<std::pair<std::shared_ptr<const quantum::Payload>,
                        std::shared_ptr<std::atomic<std::uint64_t>>>>
      payloads;
  {
    // Every job event is appended under its shard's mutex; holding ALL
    // of them means no event is mid-append, so the watermark read here
    // is exactly consistent with the records copied below.
    const auto locks = lock_all_shards();
    snapshot.jobs_seq =
        store_ != nullptr ? store_->journal().last_seq() : 0;
    snapshot.next_job_id = next_job_id_.load(std::memory_order_relaxed);
    if (accounting_ != nullptr) {
      // Ledger charges happen under shard mutexes (charge_batch in the
      // lane loop), so reading the ledger here is exactly consistent
      // with the watermark above: usage events <= jobs_seq are in these
      // records, later ones replay on top.
      snapshot.usage = accounting_->usage_records(clock_->now());
    }
    std::size_t total = 0;
    std::vector<std::map<std::uint64_t, Record>::const_iterator> cursor;
    for (const auto& shard : shards_) {
      total += shard->records.size();
      cursor.push_back(shard->records.begin());
    }
    snapshot.jobs.reserve(total);
    snapshot.live_samples.reserve(total);
    payloads.reserve(total);
    // Each shard's table is ordered by id, so merging them yields the
    // snapshot's id order without a sort.
    while (true) {
      std::size_t next = shards_.size();
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (cursor[i] == shards_[i]->records.end()) continue;
        if (next == shards_.size() || cursor[i]->first < cursor[next]->first) {
          next = i;
        }
      }
      if (next == shards_.size()) break;
      const Record& record = (cursor[next]++)->second;
      snapshot.jobs.push_back(to_record_locked(record));
      snapshot.live_samples.push_back(
          record.job.shots_done > 0 ? record.samples : nullptr);
      payloads.emplace_back(record.payload, record.payload_fp);
    }
  }
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    auto& [payload, memo] = payloads[i];
    if (payload == nullptr) continue;
    // Same content-dedup scheme as the journal: each distinct program
    // lands once in the snapshot's payload table, and jobs reference it
    // by fingerprint (memoized per record — hashed at most once per job,
    // not once per compaction). The table keeps the shared handle; the
    // body is serialized only as the snapshot streams to disk.
    std::uint64_t fp = memo->load(std::memory_order_relaxed);
    if (fp == 0) {
      fp = store::payload_fingerprint(*payload);
      memo->store(fp, std::memory_order_relaxed);
    }
    store::JobRecord& job = snapshot.jobs[i];
    job.payload_hash = fp;
    snapshot.payloads.try_emplace(job.user + "|" + std::to_string(fp),
                                  std::move(payload));
  }
  return snapshot;
}

void Dispatcher::restore(const std::vector<store::JobRecord>& jobs,
                         std::uint64_t next_job_id) {
  std::uint64_t floor = next_job_id;
  for (const auto& recovered : jobs) {
    Shard& shard = shard_for_user(recovered.user);
    const std::uint32_t shard_index = static_cast<std::uint32_t>(
        std::hash<std::string>{}(recovered.user) % shards_.size());
    std::scoped_lock lock(shard.mutex);
    if (shard.records.count(recovered.id) > 0) continue;  // defensive
    Record record;
    record.job.id = recovered.id;
    record.job.session = common::SessionId{recovered.session};
    record.job.user = recovered.user;
    record.job.job_class = recovered.job_class;
    record.job.total_shots = recovered.total_shots;
    record.job.shots_done = recovered.shots_done;
    record.job.submit_time = recovered.submit_time;
    record.job.first_dispatch_time = recovered.first_dispatch_time;
    record.job.finish_time = recovered.finish_time;
    record.job.resource = recovered.resource;  // settled below if queued
    record.job.error = recovered.error;
    record.cancel_requested = recovered.cancel_requested;
    record.pinned = recovered.pinned;
    if (!recovered.policy.empty()) {
      auto policy = broker::policy_from_string(recovered.policy);
      if (policy.ok()) record.policy_hint = policy.value();
    }
    switch (recovered.phase) {
      case store::JobPhase::kQueued:
      case store::JobPhase::kRunning:  // replay folds running -> queued
        record.job.state = DaemonJobState::kQueued;
        break;
      case store::JobPhase::kCompleted:
        record.job.state = DaemonJobState::kCompleted;
        break;
      case store::JobPhase::kFailed:
        record.job.state = DaemonJobState::kFailed;
        break;
      case store::JobPhase::kCancelled:
        record.job.state = DaemonJobState::kCancelled;
        break;
    }
    auto payload = quantum::Payload::from_json(recovered.payload);
    if (payload.ok()) {
      record.payload =
          std::make_shared<const Payload>(std::move(payload).value());
      // Keep the store's original fingerprint: re-hashing the decoded
      // payload could differ after a JSON round-trip (whole-number
      // doubles re-dump as ints), which would break dedup-key stability
      // across restarts.
      record.payload_fp->store(recovered.payload_hash,
                               std::memory_order_relaxed);
    } else if (record.job.state == DaemonJobState::kQueued) {
      // Cannot re-run what we cannot decode; fail loudly instead of
      // silently dropping the job.
      record.job.state = DaemonJobState::kFailed;
      record.job.error = "payload could not be restored from the store: " +
                         payload.error().message();
    }
    if (!recovered.samples.is_null()) {
      auto samples = quantum::Samples::from_json(recovered.samples);
      if (samples.ok()) {
        record.samples =
            std::make_shared<const Samples>(std::move(samples).value());
      }
    }
    if (record.job.state == DaemonJobState::kQueued) {
      if (!record.job.resource.empty()) {
        // Placement is an in-memory fleet decision: an unpinned job is
        // unplaced and re-placed on this (possibly different) fleet. A
        // pin is the user's choice: re-bind it through the broker so load
        // accounting and health checks hold, or unplace it if the
        // resource is gone or unusable — the treatment live failover
        // gives a dead pin. Either change is journaled: a compaction
        // snapshot taken from memory and a replay of the journal alone
        // (a standby's mirror) must agree.
        std::string placed;
        if (record.pinned) {
          auto bound = broker_->pick({.policy = record.policy_hint,
                                      .resource_hint = record.job.resource,
                                      .exclude = {}});
          if (bound.ok()) placed = std::move(bound).value();
        }
        if (placed != record.job.resource) {
          record.job.resource = std::move(placed);
          if (store_ != nullptr) {
            store_->job_placed(record.job.id, record.job.resource);
          }
        }
      }
      const std::uint64_t remaining =
          record.job.total_shots -
          std::min(record.job.shots_done, record.job.total_shots);
      // seq = id, same as live submissions: recovered jobs keep their
      // original cross-shard FIFO order.
      shard.core.enqueue(
          recovered.id, recovered.job_class, remaining,
          recovered.submit_time, recovered.id,
          queue_key(shard, record.job.user, record.job.resource));
      total_queued_.fetch_add(1, std::memory_order_relaxed);
      ++shard.user_pending[record.job.user];
      if (accounting_ != nullptr) {
        // The previous life reserved these shots at admission; re-reserve
        // them so this job's releases cannot drain reservations that
        // newly admitted work legitimately holds.
        accounting_->restore_inflight(record.job.user, remaining);
      }
    }
    if (traces_ != nullptr) {
      // Pre-crash spans are not journaled: restored jobs get a fresh trace
      // whose first stage is explicitly `lost`, so timelines stay
      // well-nested (and honest) across kill-and-restart.
      record.job.trace_id =
          traces_->begin(record.job.submit_time, record.job.user, "lost",
                         "pre-crash spans not recovered");
      // The eager `lost` trace replaces the deferred submit timeline.
      record.trace_materialized = true;
      traces_->bind_job(record.job.trace_id, recovered.id);
      if (record.job.state == DaemonJobState::kQueued) {
        (void)traces_->enter(record.job.trace_id, clock_->now(),
                             "queue_wait", "requeued after restart");
      } else {
        (void)traces_->finish(
            record.job.trace_id,
            std::max(record.job.finish_time, record.job.submit_time));
      }
    }
    floor = std::max(floor, recovered.id + 1);
    const bool queued = record.job.state == DaemonJobState::kQueued;
    const auto inserted =
        shard.records.emplace(recovered.id, std::move(record));
    if (queued) shard.active.emplace(recovered.id, &inserted.first->second);
    index_insert(recovered.id, shard_index);
  }
  // Restore runs before traffic, so a plain max-store is race-free.
  next_job_id_.store(
      std::max(next_job_id_.load(std::memory_order_relaxed), floor));
  // Rebuild the GC's LRU per shard: terminal records in finish order,
  // oldest first, so retention keeps expiring across restarts.
  std::size_t terminal_total = 0;
  common::TimeNs earliest = std::numeric_limits<common::TimeNs>::max();
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    std::vector<std::uint64_t> terminal;
    for (const auto& [id, record] : shard->records) {
      if (shard->active.count(id) == 0) terminal.push_back(id);
    }
    std::sort(terminal.begin(), terminal.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                const auto ta = shard->records.at(a).job.finish_time;
                const auto tb = shard->records.at(b).job.finish_time;
                return ta != tb ? ta < tb : a < b;
              });
    shard->terminal_order.assign(terminal.begin(), terminal.end());
    terminal_total += terminal.size();
    if (!terminal.empty()) {
      earliest = std::min(
          earliest, shard->records.at(terminal.front()).job.finish_time);
    }
  }
  terminal_count_.store(terminal_total, std::memory_order_relaxed);
  earliest_terminal_.store(earliest, std::memory_order_relaxed);
  wake_lanes();
}

void Dispatcher::finish_locked(Shard& shard, Record& record,
                               DaemonJobState state,
                               const std::string& error) {
  if (record.job.state == DaemonJobState::kQueued) {
    drop_user_pending(shard, record.job.user);
  }
  record.job.state = state;
  record.job.error = error;
  record.job.finish_time = clock_->now();
  if (state == DaemonJobState::kCompleted) {
    UserSlo& slo = shard.user_slo[record.job.user];
    ++slo.completed;
    const common::DurationNs lat_slo =
        latency_slo_.load(std::memory_order_relaxed);
    if (lat_slo > 0 &&
        record.job.finish_time - record.job.submit_time > lat_slo) {
      ++slo.latency_over;
    }
  }
  if (traces_ != nullptr && record.job.trace_id != 0) {
    materialize_trace_locked(record);
    if (auto closed =
            traces_->finish(record.job.trace_id, record.job.finish_time)) {
      observe_stage(closed->stage, record.job.job_class,
                    record.job.resource, closed->duration);
    }
    // Critical-path profiling rides the terminal transition (never the
    // submit hot path): one trace copy + collapse per finished job.
    if (profiler_ != nullptr) {
      if (auto trace = traces_->find(record.job.trace_id)) {
        profiler_->add(*trace);
      }
    }
  }
  if (events_ != nullptr) {
    const common::DurationNs latency =
        record.job.finish_time - record.job.submit_time;
    const common::DurationNs slow =
        slow_job_threshold_.load(std::memory_order_relaxed);
    if (state == DaemonJobState::kFailed) {
      events_->log(record.job.finish_time, telemetry::Severity::kError,
                   "job_failed", error, record.job.user, record.job.id,
                   record.job.trace_id);
    } else if (state == DaemonJobState::kCompleted && slow > 0 &&
               latency > slow) {
      events_->log(record.job.finish_time, telemetry::Severity::kWarn,
                   "slow_job",
                   "completed in " +
                       std::to_string(latency / common::kMillisecond) +
                       " ms (threshold " +
                       std::to_string(slow / common::kMillisecond) + " ms)",
                   record.job.user, record.job.id, record.job.trace_id);
    }
  }
  shard.active.erase(record.job.id);
  shard.terminal_order.push_back(record.job.id);
  terminal_count_.fetch_add(1, std::memory_order_relaxed);
  // Lower-bound maintenance for the GC precheck; finish times are
  // monotone, so only the first terminal record can lower the minimum.
  common::TimeNs seen = earliest_terminal_.load(std::memory_order_relaxed);
  while (record.job.finish_time < seen &&
         !earliest_terminal_.compare_exchange_weak(
             seen, record.job.finish_time, std::memory_order_relaxed)) {
  }
  if (!record.job.resource.empty()) {
    broker_->unbind(record.job.resource);
  }
  if (accounting_ != nullptr) {
    // The never-executed remainder leaves the user's in-flight budget;
    // completions additionally charge one job to the ledger — stamped
    // with the record's finish time, which the journal event below also
    // carries, so replay re-charges at the identical instant.
    const std::uint64_t unexecuted =
        record.job.total_shots -
        std::min(record.job.shots_done, record.job.total_shots);
    accounting_->job_finished(record.job.user, unexecuted,
                              state == DaemonJobState::kCompleted,
                              record.job.finish_time);
  }
  if (store_ != nullptr) {
    switch (state) {
      case DaemonJobState::kCompleted:
        store_->job_completed(record.job.id, record.job.finish_time);
        break;
      case DaemonJobState::kFailed:
        store_->job_failed(record.job.id, error, record.job.finish_time);
        break;
      case DaemonJobState::kCancelled:
        store_->job_cancelled(record.job.id, error, record.job.finish_time);
        break;
      default:
        break;
    }
  }
  if (metrics_ != nullptr) {
    metrics_
        ->counter("daemon_jobs_finished_total",
                  {{"class", to_string(record.job.job_class)},
                   {"state", to_string(state)}},
                  "jobs reaching a terminal state")
        .increment();
    if (state == DaemonJobState::kCompleted &&
        record.job.first_dispatch_time > 0) {
      metrics_
          ->histogram("daemon_job_wait_seconds",
                      {0.1, 0.5, 1, 5, 15, 60, 300, 1800},
                      {{"class", to_string(record.job.job_class)}},
                      "queue wait before first dispatch")
          .observe(common::to_seconds(record.job.first_dispatch_time -
                                      record.job.submit_time));
    }
  }
  shard.cv.notify_all();
}

void Dispatcher::reassign_from(const std::string& lane) {
  std::size_t moved = 0;
  std::size_t stranded = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    for (const auto& [_, live] : shard->active) {
      Record& record = *live;
      if (record.job.resource != lane) continue;
      if (record.job.state != DaemonJobState::kQueued &&
          record.job.state != DaemonJobState::kRunning) {
        continue;
      }
      broker_->unbind(lane);
      auto repick = broker_->pick({.policy = record.policy_hint,
                                   .resource_hint = {},
                                   .exclude = lane});
      if (repick.ok()) {
        place_locked(*shard, record, std::move(repick).value());
        ++moved;
      } else {
        // Nothing healthy: the job waits unplaced for any lane to recover.
        place_locked(*shard, record, "");
        ++stranded;
      }
      if (store_ != nullptr) {
        store_->job_placed(record.job.id, record.job.resource);
      }
      if (traces_ != nullptr && record.job.trace_id != 0) {
        materialize_trace_locked(record);
        traces_->annotate(
            record.job.trace_id, clock_->now(),
            record.job.resource.empty()
                ? "unplaced: no healthy resource (was '" + lane + "')"
                : "failover: '" + lane + "' -> '" + record.job.resource +
                      "'");
      }
    }
  }
  if (moved > 0 && metrics_ != nullptr) {
    metrics_
        ->counter("daemon_failovers_total", {{"resource", lane}},
                  "jobs moved off a failed or draining resource")
        .increment(static_cast<double>(moved));
  }
  if (events_ != nullptr && moved + stranded > 0) {
    events_->log(clock_->now(), telemetry::Severity::kWarn, "failover",
                 "moved " + std::to_string(moved) + " job(s) off '" + lane +
                     "' (" + std::to_string(stranded) +
                     " left unplaced)");
  }
  if (moved + stranded > 0) {
    QCENV_LOG(Warn) << "moved " << moved << " job(s) off " << lane
                    << (stranded > 0
                            ? " (" + std::to_string(stranded) +
                                  " waiting for a healthy resource)"
                            : "");
    wake_lanes();
  }
}

Dispatcher::DispatchOutcome Dispatcher::dispatch_one(
    const std::string& lane, const qrmi::QrmiPtr& resource) {
  const common::TimeNs now = clock_->now();
  // A queue key's low half is its placement: unplaced (0) or this lane's
  // id in the shard (none when no job there was ever placed on it).
  const auto eligible_in = [&lane](const Shard& shard) {
    const auto it = shard.ids.find(lane);
    const std::uint32_t mine = it != shard.ids.end() ? it->second : 0;
    return [mine](std::uint64_t key) {
      const auto placed = static_cast<std::uint32_t>(key);
      return placed == 0 || placed == mine;
    };
  };
  // Tournament: peek every shard's best eligible head under that shard's
  // own lock, then take the global winner. head_before is the core's
  // exact comparator, so the winner is the job a single shared queue
  // would have served — and since ANY lane can win ANY shard, an idle
  // lane steals work no matter which tenant shard it landed in.
  std::optional<PriorityQueueCore::Head> best;
  std::size_t best_shard = 0;
  bool shortest_first = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::scoped_lock lock(shard.mutex);
    shortest_first = shard.core.policy().shortest_first_within_class;
    const auto head = shard.core.peek_head(now, eligible_in(shard));
    if (head.has_value() &&
        (!best.has_value() ||
         PriorityQueueCore::head_before(*head, *best, shortest_first))) {
      best = *head;
      best_shard = i;
    }
  }
  if (!best.has_value()) return DispatchOutcome::kIdle;

  Shard& shard = *shards_[best_shard];
  std::optional<Batch> batch;
  Payload slice;
  telemetry::TraceId trace = 0;
  JobClass trace_cls = JobClass::kDevelopment;
  {
    std::scoped_lock lock(shard.mutex);
    // Revalidate under the winner's lock: another lane may have taken
    // the head (or a cancel removed it) between peek and take. The exact
    // winner matters — taking whatever is best NOW without a rescan
    // could overtake a higher-priority head in a different shard.
    // Re-check the global drain here too: a lane that passed lane_loop's
    // check just before drain() returned must not take a job submitted
    // after it (this lock orders the submit after the drain).
    if (draining_.load()) return DispatchOutcome::kIdle;
    const auto head = shard.core.peek_head(now, eligible_in(shard));
    if (!head.has_value() || head->job_id != best->job_id) {
      return DispatchOutcome::kRetry;
    }
    batch = shard.core.take(head->job_id);
    if (!batch.has_value()) return DispatchOutcome::kRetry;
    total_queued_.fetch_sub(1, std::memory_order_relaxed);
    Record& record = shard.records.at(batch->job_id);
    if (record.job.resource.empty()) {
      // Unplaced job (fleet was down at submit): claim it for this lane.
      auto claimed = broker_->pick({.policy = record.policy_hint,
                                    .resource_hint = lane,
                                    .exclude = {}});
      if (!claimed.ok()) {
        shard.core.batch_failed(*batch);
        total_queued_.fetch_add(1, std::memory_order_relaxed);
        return DispatchOutcome::kIdle;  // lane became unusable: back off
      }
      place_locked(shard, record, lane);
      if (store_ != nullptr) store_->job_placed(batch->job_id, lane);
    }
    if (record.cancel_requested) {
      // batch_done re-queues a non-final remainder, which remove() then
      // takes back out: mirror that in the depth counter or it drifts.
      if (!batch->final_batch) {
        total_queued_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.core.batch_done(*batch);
      if (shard.core.remove(batch->job_id)) {
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
      }
      finish_locked(shard, record, DaemonJobState::kCancelled, "");
      return DispatchOutcome::kRetry;
    }
    const common::TimeNs dispatched_at = clock_->now();
    if (record.job.state == DaemonJobState::kQueued) {
      record.job.state = DaemonJobState::kRunning;
      drop_user_pending(shard, record.job.user);
      // Keep the first dispatch time across failover requeues.
      if (record.job.first_dispatch_time == 0) {
        record.job.first_dispatch_time = dispatched_at;
      }
    }
    slice = *record.payload;
    slice.set_shots(batch->shots);
    if (store_ != nullptr) {
      // Same stamp as first_dispatch_time: replay recovers it from the
      // first batch_dispatched event's time.
      store_->batch_dispatched(batch->job_id, lane, batch->shots,
                               dispatched_at);
    }
    trace = record.job.trace_id;
    trace_cls = record.job.job_class;
    if (traces_ != nullptr && trace != 0) {
      materialize_trace_locked(record);
      if (auto closed = traces_->enter(
              trace, clock_->now(), "shard_dispatch",
              "resource=" + lane + " shard=" +
                  std::to_string(best_shard))) {
        observe_stage(closed->stage, trace_cls, lane, closed->duration);
      }
    }
  }

  broker_->on_dispatch(lane, batch->shots);
  const common::TimeNs run_start = clock_->now();
  const bool traced = traces_ != nullptr && trace != 0;
  if (traced) {
    if (auto closed = traces_->enter(trace, run_start, "qrmi_execute",
                                     "resource=" + lane)) {
      observe_stage(closed->stage, trace_cls, lane, closed->duration);
    }
  }
  qrmi::Qrmi::RunStats run_stats;
  auto outcome =
      resource->run_sync(slice, kRunPoll, clock_, traced ? &run_stats : nullptr);
  const common::DurationNs qpu_ns = clock_->now() - run_start;
  if (traced && run_stats.polls > 0) {
    traces_->child(trace, "qrmi_poll", run_stats.poll_start,
                   run_stats.poll_end,
                   "polls=" + std::to_string(run_stats.polls));
    if (run_stats.result_end > run_stats.poll_end) {
      traces_->child(trace, "result_fetch", run_stats.poll_end,
                     run_stats.result_end);
    }
  }
  if (metrics_ != nullptr) {
    metrics_
        ->counter("daemon_batches_dispatched_total",
                  {{"class", to_string(batch->cls)}, {"resource", lane}},
                  "QPU batches dispatched")
        .increment();
  }

  if (!outcome.ok() && is_resource_failure(outcome.error())) {
    // The resource, not the payload, failed: give the shots back and move
    // every job placed here onto a healthy peer.
    broker_->on_failure(lane, outcome.error());
    {
      std::scoped_lock lock(shard.mutex);
      shard.core.batch_failed(*batch);
      total_queued_.fetch_add(1, std::memory_order_relaxed);
      // The batch never executed: the job is queued again, which keeps
      // status reporting honest and lets cancel() act immediately while
      // no resource can take it.
      Record& record = shard.records.at(batch->job_id);
      if (record.job.state == DaemonJobState::kRunning) {
        record.job.state = DaemonJobState::kQueued;
        ++shard.user_pending[record.job.user];
      }
      if (store_ != nullptr) {
        store_->batch_failed(batch->job_id, lane, batch->shots,
                             outcome.error().to_string());
      }
      if (traced) {
        const common::TimeNs tnow = clock_->now();
        traces_->annotate(trace, tnow,
                          "requeue: resource failure on '" + lane +
                              "': " + outcome.error().message());
        if (auto closed =
                traces_->enter(trace, tnow, "queue_wait",
                               "requeued after failure on " + lane)) {
          observe_stage(closed->stage, trace_cls, lane, closed->duration);
        }
      }
      if (events_ != nullptr) {
        events_->log(clock_->now(), telemetry::Severity::kWarn, "failover",
                     "batch of job " + std::to_string(batch->job_id) +
                         " returned by '" + lane +
                         "': " + outcome.error().message(),
                     record.job.user, batch->job_id, trace);
      }
      // A cancel that raced the in-flight batch must win over failover:
      // with no healthy resource left the requeued job would otherwise
      // sit queued-with-cancel-requested forever.
      if (record.cancel_requested) {
        if (shard.core.remove(batch->job_id)) {
          total_queued_.fetch_sub(1, std::memory_order_relaxed);
        }
        finish_locked(shard, record, DaemonJobState::kCancelled, "");
      } else if (++record.failovers > kMaxBatchFailovers) {
        if (shard.core.remove(batch->job_id)) {
          total_queued_.fetch_sub(1, std::memory_order_relaxed);
        }
        finish_locked(shard, record, DaemonJobState::kFailed,
                      "gave up after " +
                          std::to_string(record.failovers) +
                          " resource failures (last on '" + lane +
                          "'): " + outcome.error().to_string());
      }
    }
    // Outside the shard lock: reassign_from locks every shard in turn.
    reassign_from(lane);
    return DispatchOutcome::kDispatched;
  }

  if (!outcome.ok()) {
    broker_->on_rejected(lane);
    std::scoped_lock lock(shard.mutex);
    Record& record = shard.records.at(batch->job_id);
    // A spec rejection of a broker-placed job may just mean a bad fit in
    // a heterogeneous fleet: re-place it on another resource (within the
    // failover budget) before giving up. Pinned jobs fail immediately —
    // the user chose the resource.
    if (!record.pinned && ++record.failovers <= kMaxBatchFailovers) {
      auto repick = broker_->pick({.policy = record.policy_hint,
                                   .resource_hint = {},
                                   .exclude = lane});
      if (repick.ok()) {
        shard.core.batch_failed(*batch);
        total_queued_.fetch_add(1, std::memory_order_relaxed);
        if (record.job.state == DaemonJobState::kRunning) {
          record.job.state = DaemonJobState::kQueued;
          ++shard.user_pending[record.job.user];
        }
        broker_->unbind(lane);
        place_locked(shard, record, std::move(repick).value());
        if (store_ != nullptr) {
          store_->batch_failed(batch->job_id, lane, batch->shots,
                               outcome.error().to_string());
          store_->job_placed(batch->job_id, record.job.resource);
        }
        if (traced) {
          const common::TimeNs tnow = clock_->now();
          traces_->annotate(trace, tnow,
                            "re-placed on '" + record.job.resource +
                                "' after rejection by '" + lane + "'");
          if (auto closed =
                  traces_->enter(trace, tnow, "queue_wait",
                                 "re-placed on " + record.job.resource)) {
            observe_stage(closed->stage, trace_cls, lane, closed->duration);
          }
        }
        if (events_ != nullptr) {
          events_->log(clock_->now(), telemetry::Severity::kWarn,
                       "rejected_replaced",
                       "job " + std::to_string(batch->job_id) +
                           " rejected by '" + lane + "', re-placed on '" +
                           record.job.resource + "'",
                       record.job.user, batch->job_id, trace);
        }
        QCENV_LOG(Warn) << "job " << batch->job_id << " rejected by "
                        << lane << " (" << outcome.error().to_string()
                        << "), re-placing on " << record.job.resource;
        wake_lanes();
        return DispatchOutcome::kDispatched;
      }
    }
    if (!batch->final_batch) {
      total_queued_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.core.batch_done(*batch);
    if (shard.core.remove(batch->job_id)) {
      total_queued_.fetch_sub(1, std::memory_order_relaxed);
    }
    finish_locked(shard, record, DaemonJobState::kFailed,
                  outcome.error().to_string());
    QCENV_LOG(Warn) << "job " << batch->job_id
                    << " failed: " << record.job.error;
    wake_lanes();
    return DispatchOutcome::kDispatched;
  }

  broker_->on_success(lane, batch->shots);
  std::scoped_lock lock(shard.mutex);
  Record& record = shard.records.at(batch->job_id);
  if (!batch->final_batch) {
    // batch_done re-queues the remainder below.
    total_queued_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.core.batch_done(*batch);
  record.job.shots_done += batch->shots;
  // Copy-on-write: a compaction snapshot may still hold the previous
  // samples, so they are replaced, never mutated in place.
  auto merged = std::make_shared<Samples>(
      record.samples != nullptr ? *record.samples
                                : Samples(record.payload->num_qubits()));
  (void)merged->merge(outcome.value());
  // Keep the last batch's metadata (most recent calibration).
  merged->set_metadata(outcome.value().metadata());
  record.samples = std::move(merged);
  // One clock read shared by the journal event and the ledger charge:
  // replay derives the re-charge instant from the event time, so two
  // reads (two different virtual instants) would make the replayed
  // ledger decay differently from the live one.
  const common::TimeNs charged_at = clock_->now();
  if (store_ != nullptr) {
    // The executed shots become durable BEFORE any terminal event, so a
    // crash between the two replays them as done, never re-runs them.
    // Serialization is deferred to the journal's writer thread.
    store_->batch_done(batch->job_id, batch->shots, qpu_ns,
                       batch->final_batch, outcome.value(), charged_at);
  }
  if (accounting_ != nullptr) {
    // Charged in the same critical section as the journal append, so a
    // compaction snapshot (which reads the watermark and the ledger
    // under every shard mutex) can never tear the two apart.
    accounting_->charge_batch(record.job.user, batch->shots, qpu_ns,
                              charged_at);
  }
  if (traced && !batch->final_batch && !record.cancel_requested) {
    // The remainder re-enters the queue: open a fresh queue_wait stage so
    // multi-batch jobs show one wait/dispatch/execute cycle per batch.
    if (auto closed = traces_->enter(trace, clock_->now(), "queue_wait",
                                     "remainder requeued")) {
      observe_stage(closed->stage, trace_cls, lane, closed->duration);
    }
  }

  if (record.cancel_requested) {
    if (shard.core.remove(batch->job_id)) {
      total_queued_.fetch_sub(1, std::memory_order_relaxed);
    }
    finish_locked(shard, record, DaemonJobState::kCancelled, "");
  } else if (batch->final_batch) {
    finish_locked(shard, record, DaemonJobState::kCompleted, "");
  }
  wake_lanes();
  return DispatchOutcome::kDispatched;
}

void Dispatcher::lane_loop(const std::stop_token& stop,
                           const std::string& lane) {
  auto handle = broker_->resource(lane);
  if (!handle.ok()) return;
  const qrmi::QrmiPtr resource = std::move(handle).value();

  bool was_healthy = true;
  while (!stop.stop_requested()) {
    {
      // Watchdog heartbeat: a lane stuck inside dispatch_one (hung
      // endpoint) stops beating, which the flight recorder flags.
      std::scoped_lock beat_lock(heartbeat_mutex_);
      if (lane_heartbeat_) lane_heartbeat_(lane);
    }
    // Probe outside the queue locks: a hung endpoint must not block peers.
    const bool healthy = broker_->check_health(lane);
    // Move placed jobs away once per down transition (the batch-failure
    // path below covers failures detected mid-dispatch); placement never
    // selects an unhealthy resource, so no new jobs land here meanwhile.
    if (!healthy && was_healthy) reassign_from(lane);
    was_healthy = healthy;

    // Epoch BEFORE the dispatch attempt: work submitted while this lane
    // is busy re-triggers the scan instead of being slept through.
    const std::uint64_t epoch =
        dispatch_epoch_.load(std::memory_order_acquire);
    DispatchOutcome outcome = DispatchOutcome::kIdle;
    if (!draining_.load() && healthy && !broker_->draining(lane)) {
      outcome = dispatch_one(lane, resource);
    }
    if (stop.stop_requested()) return;
    if (outcome != DispatchOutcome::kIdle) continue;
    std::unique_lock wait_lock(dispatch_mutex_);
    if (draining_.load()) {
      // Parked: under a global drain no epoch bump can make work
      // dispatchable here, so the lane does not register as a waiter and
      // the submit hot path skips the wake entirely. resume()/stop use
      // the unconditional wake; the idle tick bounds any staleness.
      dispatch_cv_.wait_for(
          wait_lock, std::chrono::nanoseconds(idle_tick_.load()),
          [&] { return stop.stop_requested() || !draining_.load(); });
      continue;
    }
    dispatch_waiters_.fetch_add(1, std::memory_order_seq_cst);
    dispatch_cv_.wait_for(
        wait_lock, std::chrono::nanoseconds(idle_tick_.load()), [&] {
          return stop.stop_requested() ||
                 dispatch_epoch_.load(std::memory_order_acquire) != epoch;
        });
    dispatch_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace qcenv::daemon

// Queue ETA prediction and per-job wait explainability (the "when will my
// job run, and why is it waiting" surface, §3.6 user-centricity).
//
// EtaEngine answers two questions from live daemon state:
//
//  - estimate(): for any job, a predicted start/finish window with
//    confidence bounds. For pending jobs it aggregates over the jobs that
//    dispatch before it — count, batches owed, better fair-share ranks —
//    from per-bucket totals (Dispatcher::for_each_ahead: one aggregate
//    per (user, class, placement) bucket, cut by the queue core's exact
//    comparator against the job's own keys), so a deep queue costs
//    O(buckets), not a visit per job ahead. That is combined with
//    per-resource drain/health from the broker and historical per-batch
//    execute latency from the TSDB's scraped daemon_stage_seconds
//    histogram series. Served at GET /v1/jobs/:id/eta and embedded in
//    submit 201 responses.
//  - explain(): decomposes a job's observed queue wait into named causes
//    (fair-share demotion, rate-limit backpressure, resource drain/outage
//    overlap, shard queue depth) computed from the event log, the same
//    jobs-ahead pass and accounting state. The causes are an EXACT partition of
//    the observed wait — the unexplained remainder is filed under
//    "queue_depth", never invented — and simtest asserts that equality.
//
// All clock reads go through the injected common::Clock, so simtest can
// drive both deterministically. The engine holds no state of its own:
// every answer is recomputed from the live subsystems it points at.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "accounting/accounting.hpp"
#include "broker/broker.hpp"
#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "daemon/dispatcher.hpp"
#include "telemetry/events.hpp"
#include "telemetry/explain.hpp"
#include "telemetry/tsdb.hpp"

namespace qcenv::daemon {

struct EtaOptions {
  /// TSDB lookback for the historical per-batch execute latency
  /// (delta-sum / delta-count of the scraped daemon_stage_seconds series).
  common::DurationNs latency_lookback = 300 * common::kSecond;
  /// Per-batch latency assumed when the TSDB has no execute history yet
  /// (cold daemon, observability disabled).
  common::DurationNs default_batch_latency = 5 * common::kMillisecond;
  /// Fixed slack added to the predicted-start upper bound: covers lane
  /// wake-up, placement and probe cadence, none of which the backlog
  /// model sees.
  common::DurationNs start_slack = 10 * common::kSecond;
  /// Extra slack on the predicted-finish upper bound.
  common::DurationNs finish_slack = 5 * common::kSecond;
  /// Backlog multiplier for the upper bounds: latest = now + slack +
  /// margin * (backlog work / active lanes). >1 because the mean
  /// understates tail batches and failovers.
  double margin = 3.0;
  /// Claimed confidence of the [earliest, latest] start window. Simtest
  /// asserts actual starts land inside the window at this rate.
  double confidence = 0.95;
};

/// One ETA answer (GET /v1/jobs/:id/eta, and the `eta` object of submit
/// 201 bodies). Times are absolute clock readings; `start_latest` and
/// `finish_latest` are -1 when the estimate is unbounded (no active lane
/// can serve the job: global drain, full-fleet outage, drained pin).
struct EtaEstimate {
  std::uint64_t job_id = 0;
  std::string user;
  std::string state;
  common::TimeNs computed_at = 0;
  /// Queue position: pending entries ahead in global dispatch order.
  std::size_t jobs_ahead = 0;
  /// Upper bound on batches the fleet may run before this job starts.
  std::uint64_t batches_ahead = 0;
  /// Lanes that can serve this job right now (healthy, not draining;
  /// for pinned jobs only the pinned resource counts).
  std::size_t active_lanes = 0;
  /// Historical mean per-batch execute latency the bounds used.
  common::DurationNs batch_latency = 0;
  bool bounded = true;
  double confidence = 0.0;
  common::TimeNs start_earliest = 0;
  common::TimeNs start_latest = -1;
  common::TimeNs finish_earliest = 0;
  common::TimeNs finish_latest = -1;
  /// Live pressure signals (rate_limited carries the same retry-after the
  /// 429 header reports). Informational: durations here are forecasts,
  /// not a partition of anything.
  std::vector<telemetry::WaitCause> pressures;

  common::Json to_json() const;
};

class EtaEngine {
 public:
  /// Non-owning: every pointer must outlive the engine. `accounting`,
  /// `tsdb` and `events` are optional (rate-limit / historical-latency /
  /// outage-overlap inputs degrade to their fallbacks when absent).
  struct Deps {
    Dispatcher* dispatcher = nullptr;
    broker::ResourceBroker* broker = nullptr;
    accounting::AccountingManager* accounting = nullptr;
    const telemetry::TimeSeriesDb* tsdb = nullptr;
    const telemetry::EventLog* events = nullptr;
    common::Clock* clock = nullptr;
    QueuePolicy policy;
  };

  EtaEngine(Deps deps, EtaOptions options)
      : deps_(deps), options_(options) {}

  /// Predicted start/finish window. Terminal and running jobs report
  /// their actual timestamps (confidence 1.0 on actuals).
  common::Result<EtaEstimate> estimate(std::uint64_t job_id) const;

  /// Exact-partition wait decomposition (see telemetry::ExplainReport).
  common::Result<telemetry::ExplainReport> explain(
      std::uint64_t job_id) const;

  /// Historical mean per-batch execute latency over the lookback window
  /// (counter-reset tolerant), or the configured fallback.
  common::DurationNs historical_batch_latency(common::TimeNs now) const;

  const EtaOptions& options() const noexcept { return options_; }

 private:
  /// Where a pending job stands: aggregates over the jobs ahead of it.
  struct QueuePosition {
    std::optional<Dispatcher::PendingView> me;  // nullopt: not pending
    std::size_t jobs_ahead = 0;
    std::uint64_t batches_ahead = 0;
    /// Jobs ahead of other users holding a better fair-share factor, and
    /// each such user's best factor.
    std::size_t better_ranked = 0;
    std::map<std::string, double> outranking;
  };
  QueuePosition position_of(std::uint64_t job_id, common::TimeNs now) const;
  /// Time within [begin, end] during which NO lane could dispatch work
  /// eligible for the job: global drain, or every fleet resource (or the
  /// pinned one) down/draining — reconstructed from event-log
  /// drain/outage transitions.
  common::DurationNs outage_overlap(common::TimeNs begin, common::TimeNs end,
                                    const std::string& pinned) const;

  Deps deps_;
  EtaOptions options_;
};

}  // namespace qcenv::daemon

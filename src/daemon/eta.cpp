#include "daemon/eta.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "common/strings.hpp"

namespace qcenv::daemon {

using common::Json;
using common::Result;

namespace {

Json window_json(common::TimeNs earliest, common::TimeNs latest) {
  Json out = Json::object();
  out["earliest_ns"] = earliest;
  out["latest_ns"] = latest;
  return out;
}

bool is_terminal(DaemonJobState state) {
  return state == DaemonJobState::kCompleted ||
         state == DaemonJobState::kFailed ||
         state == DaemonJobState::kCancelled;
}

}  // namespace

Json EtaEstimate::to_json() const {
  Json out = Json::object();
  out["job_id"] = static_cast<long long>(job_id);
  out["user"] = user;
  out["state"] = state;
  out["computed_at_ns"] = computed_at;
  out["jobs_ahead"] = static_cast<long long>(jobs_ahead);
  out["batches_ahead"] = static_cast<long long>(batches_ahead);
  out["active_lanes"] = static_cast<long long>(active_lanes);
  out["batch_latency_ns"] = static_cast<long long>(batch_latency);
  out["bounded"] = bounded;
  out["confidence"] = confidence;
  out["start"] = window_json(start_earliest, start_latest);
  out["finish"] = window_json(finish_earliest, finish_latest);
  Json list = Json::array();
  for (const auto& pressure : pressures) list.push_back(pressure.to_json());
  out["pressures"] = std::move(list);
  return out;
}

common::DurationNs EtaEngine::historical_batch_latency(
    common::TimeNs now) const {
  if (deps_.tsdb == nullptr || deps_.broker == nullptr) {
    return options_.default_batch_latency;
  }
  const common::TimeNs start =
      now > options_.latency_lookback ? now - options_.latency_lookback : 0;
  // The scrape loop lands the qrmi_execute histogram in the TSDB as
  // cumulative _sum/_count series per resource; the window's increase of
  // each (reset-tolerant, same rule as Aggregation::kRate) gives the mean
  // per-batch latency actually observed over the lookback.
  const auto increase = [&](const telemetry::SeriesKey& key) -> double {
    const auto points = deps_.tsdb->query_range(key, start, now);
    if (points.size() < 2) return 0.0;
    double total = 0.0;
    double prev = points.front().value;
    for (std::size_t i = 1; i < points.size(); ++i) {
      const double value = points[i].value;
      total += value >= prev ? value - prev : value;
      prev = value;
    }
    return total;
  };
  double dsum = 0.0;
  double dcount = 0.0;
  for (const auto& status : deps_.broker->snapshot()) {
    const telemetry::Tags tags{{"resource", status.name},
                               {"stage", "qrmi_execute"}};
    dsum += increase({"daemon_stage_seconds_sum", tags});
    dcount += increase({"daemon_stage_seconds_count", tags});
  }
  if (dcount < 1.0 || dsum <= 0.0) return options_.default_batch_latency;
  return static_cast<common::DurationNs>(
      dsum / dcount * static_cast<double>(common::kSecond));
}

common::DurationNs EtaEngine::outage_overlap(common::TimeNs begin,
                                             common::TimeNs end,
                                             const std::string& pinned) const {
  if (deps_.events == nullptr || deps_.broker == nullptr || end <= begin) {
    return 0;
  }
  const auto fleet = deps_.broker->names();
  if (fleet.empty()) return end - begin;
  // Replay drain/outage transitions from the event log and sweep the
  // windows where no lane could serve the job. Events evicted from the
  // ring default to "everything up", which is the daemon's boot state.
  std::set<std::string> down;
  std::set<std::string> draining;
  bool global = false;
  const auto blocked = [&]() {
    if (global) return true;
    if (!pinned.empty()) {
      return down.count(pinned) > 0 || draining.count(pinned) > 0;
    }
    std::size_t unavailable = 0;
    for (const auto& name : fleet) {
      if (down.count(name) > 0 || draining.count(name) > 0) ++unavailable;
    }
    return unavailable >= fleet.size();
  };
  common::DurationNs overlap = 0;
  bool active = false;
  common::TimeNs active_since = begin;
  const auto flush = [&](common::TimeNs upto) {
    if (!active) return;
    const common::TimeNs lo = std::max(active_since, begin);
    const common::TimeNs hi = std::min(upto, end);
    if (hi > lo) overlap += hi - lo;
  };
  const auto events = deps_.events->since(
      0, std::numeric_limits<std::size_t>::max(), telemetry::EventLog::Filter{});
  for (const auto& event : events) {
    // These kinds carry the resource name as their message (see the
    // dispatcher/broker logging sites).
    if (event.kind == "drain_all") {
      flush(event.at);
      global = true;
    } else if (event.kind == "resume_all") {
      flush(event.at);
      global = false;
    } else if (event.kind == "resource_down") {
      flush(event.at);
      down.insert(event.message);
    } else if (event.kind == "resource_up") {
      flush(event.at);
      down.erase(event.message);
    } else if (event.kind == "resource_drain") {
      flush(event.at);
      draining.insert(event.message);
    } else if (event.kind == "resource_resume") {
      flush(event.at);
      draining.erase(event.message);
    } else {
      continue;
    }
    const bool now_blocked = blocked();
    if (now_blocked && !active) {
      active = true;
      active_since = event.at;
    } else if (!now_blocked) {
      active = false;
    }
  }
  flush(end);
  return overlap;
}

EtaEngine::QueuePosition EtaEngine::position_of(std::uint64_t job_id,
                                                common::TimeNs now) const {
  QueuePosition out;
  out.me = deps_.dispatcher->for_each_ahead(
      job_id, now,
      [&](const Dispatcher::PendingView& me,
          const PriorityQueueCore::BucketAhead& ahead,
          const std::string& user) {
        out.jobs_ahead += ahead.jobs;
        out.batches_ahead += ahead.batches;
        if (ahead.has_hook && me.has_hook && user != me.user &&
            ahead.hook > me.hook + 1e-9) {
          out.better_ranked += ahead.jobs;
          auto [it, inserted] = out.outranking.try_emplace(user, ahead.hook);
          if (!inserted) it->second = std::max(it->second, ahead.hook);
        }
      });
  return out;
}

Result<EtaEstimate> EtaEngine::estimate(std::uint64_t job_id) const {
  auto queried = deps_.dispatcher->query(job_id);
  if (!queried.ok()) return queried.error();
  const DaemonJob job = std::move(queried).value();
  const common::TimeNs now = deps_.clock->now();

  EtaEstimate out;
  out.job_id = job.id;
  out.user = job.user;
  out.state = to_string(job.state);
  out.computed_at = now;
  out.batch_latency = historical_batch_latency(now);

  if (is_terminal(job.state)) {
    // Actuals, not predictions. Jobs cancelled before their first
    // dispatch never started: the start window stays the -1 sentinel.
    if (job.first_dispatch_time > 0) {
      out.start_earliest = job.first_dispatch_time;
      out.start_latest = job.first_dispatch_time;
    } else {
      out.start_earliest = -1;
    }
    out.finish_earliest = job.finish_time;
    out.finish_latest = job.finish_time;
    out.confidence = 1.0;
    return out;
  }

  const common::DurationNs tau =
      std::max<common::DurationNs>(out.batch_latency, 1);

  if (job.state == DaemonJobState::kRunning) {
    out.start_earliest = job.first_dispatch_time;
    out.start_latest = job.first_dispatch_time;
    const std::uint64_t own =
        batches_needed(deps_.policy, job.job_class,
                       job.total_shots - job.shots_done) +
        1;
    out.bounded = !deps_.dispatcher->draining();
    out.confidence = out.bounded ? options_.confidence : 0.0;
    out.finish_earliest = now;
    out.finish_latest =
        out.bounded ? now + options_.finish_slack +
                          static_cast<common::DurationNs>(
                              options_.margin * static_cast<double>(own) *
                              static_cast<double>(tau))
                    : -1;
    return out;
  }

  // Queued: aggregate over the jobs that dispatch before this one.
  // Absent from the queue = a lane claimed it since query(); it is
  // effectively next.
  const QueuePosition position = position_of(job.id, now);
  out.jobs_ahead = position.jobs_ahead;
  out.batches_ahead = position.batches_ahead;
  const bool pinned = position.me.has_value() && position.me->pinned;
  const std::string pinned_resource = pinned ? position.me->resource : "";
  std::vector<std::string> impaired;
  for (const auto& status : deps_.broker->snapshot()) {
    const bool usable = status.healthy && !status.draining;
    if (!usable) impaired.push_back(status.name);
    if (!usable) continue;
    if (pinned && status.name != pinned_resource) continue;
    ++out.active_lanes;
  }
  if (deps_.dispatcher->draining()) out.active_lanes = 0;

  out.bounded = out.active_lanes > 0;
  out.confidence = out.bounded ? options_.confidence : 0.0;
  out.start_earliest = now;
  out.finish_earliest = now;
  if (out.bounded) {
    const double backlog = static_cast<double>(out.batches_ahead) *
                           static_cast<double>(tau) /
                           static_cast<double>(out.active_lanes);
    out.start_latest =
        now + options_.start_slack +
        static_cast<common::DurationNs>(options_.margin * backlog);
    const std::uint64_t own =
        batches_needed(deps_.policy, job.job_class, job.total_shots);
    out.finish_latest =
        out.start_latest + options_.finish_slack +
        static_cast<common::DurationNs>(options_.margin *
                                        static_cast<double>(own) *
                                        static_cast<double>(tau));
  }

  // Live pressure signals (forecasts, not a partition).
  if (deps_.accounting != nullptr) {
    const common::DurationNs retry =
        deps_.accounting->rate_limiter().retry_after(job.user, now);
    if (retry > 0) {
      out.pressures.push_back(telemetry::WaitCause{
          "rate_limited", retry,
          common::format("token bucket empty; refills in %.3fs",
                         common::to_seconds(retry))});
    }
  }
  if (position.better_ranked > 0) {
    std::string detail =
        common::format("%zu job(s) ahead hold better fair-share rank",
                       position.better_ranked);
    out.pressures.push_back(
        telemetry::WaitCause{"fair_share_demotion", 0, std::move(detail)});
  }
  if (!out.bounded || !impaired.empty()) {
    std::string detail = out.bounded ? "impaired: " : "no eligible lane: ";
    detail += impaired.empty() ? std::string("dispatch drained")
                               : common::join(impaired, ", ");
    out.pressures.push_back(
        telemetry::WaitCause{"resource_drain", 0, std::move(detail)});
  }
  out.pressures.push_back(telemetry::WaitCause{
      "queue_depth", 0,
      common::format("%zu job(s) / %llu batch(es) ahead in dispatch order",
                     out.jobs_ahead,
                     static_cast<unsigned long long>(out.batches_ahead))});
  return out;
}

Result<telemetry::ExplainReport> EtaEngine::explain(
    std::uint64_t job_id) const {
  auto queried = deps_.dispatcher->query(job_id);
  if (!queried.ok()) return queried.error();
  const DaemonJob job = std::move(queried).value();
  const common::TimeNs now = deps_.clock->now();

  telemetry::ExplainReport report;
  report.job_id = job.id;
  report.trace_id = job.trace_id;
  report.user = job.user;
  report.state = to_string(job.state);

  // The observed wait: submit to first dispatch. Jobs that died in the
  // queue (cancelled/failed before any dispatch) waited until their
  // terminal transition; pending jobs' wait is still open.
  const common::TimeNs w0 = job.submit_time;
  common::TimeNs w1;
  if (job.first_dispatch_time > 0) {
    w1 = job.first_dispatch_time;
    report.wait_closed = true;
  } else if (is_terminal(job.state)) {
    w1 = job.finish_time > 0 ? job.finish_time : w0;
    report.wait_closed = true;
  } else {
    w1 = std::max(now, w0);
    report.wait_closed = false;
  }
  const common::DurationNs observed = w1 > w0 ? w1 - w0 : 0;
  report.observed_wait = observed;

  // Queue position (pending jobs only): fair-share evidence.
  QueuePosition position;
  if (job.state == DaemonJobState::kQueued) {
    position = position_of(job.id, now);
  }
  const std::size_t ahead = position.jobs_ahead;
  const std::size_t better_ranked = position.better_ranked;
  std::string pinned_resource;
  double my_hook = 0.0;
  if (position.me.has_value()) {
    if (position.me->pinned) pinned_resource = position.me->resource;
    my_hook = position.me->hook;
  }

  // Exact partition: outage overlap first, then the fair-share slice of
  // the remainder (proportional to outranked queue positions), and the
  // rest IS queue depth — nothing invented, nothing dropped.
  const common::DurationNs outage =
      std::min(observed, outage_overlap(w0, w1, pinned_resource));
  const common::DurationNs remaining = observed - outage;
  common::DurationNs fair = 0;
  if (better_ranked > 0 && ahead > 0) {
    fair = static_cast<common::DurationNs>(
        static_cast<double>(remaining) * static_cast<double>(better_ranked) /
        static_cast<double>(ahead));
    fair = std::min(fair, remaining);
  }
  const common::DurationNs depth = remaining - fair;

  if (outage > 0) {
    report.causes.push_back(telemetry::WaitCause{
        "resource_drain", outage,
        common::format("no eligible lane (drain/outage) for %.3fs of the "
                       "wait",
                       common::to_seconds(outage))});
  }
  if (fair > 0) {
    std::string detail = "outranked by ";
    std::size_t listed = 0;
    for (const auto& [user, hook] : position.outranking) {
      if (listed == 3) break;
      if (listed > 0) detail += ", ";
      detail += user;
      if (my_hook > 0.0) {
        detail += common::format(" (x%.2f)", hook / my_hook);
      }
      ++listed;
    }
    report.causes.push_back(
        telemetry::WaitCause{"fair_share_demotion", fair, std::move(detail)});
  }
  report.causes.push_back(telemetry::WaitCause{
      "queue_depth", depth,
      job.state == DaemonJobState::kQueued
          ? common::format("%zu job(s) ahead in dispatch order", ahead)
          : std::string("dispatch backlog while queued")});
  if (deps_.accounting != nullptr &&
      job.state == DaemonJobState::kQueued) {
    const common::DurationNs retry =
        deps_.accounting->rate_limiter().retry_after(job.user, now);
    if (retry > 0) {
      // Zero duration on purpose: submission already succeeded, so the
      // limiter charged none of THIS job's wait — but the live signal
      // explains why follow-up submissions would stall.
      report.causes.push_back(telemetry::WaitCause{
          "rate_limited", 0,
          common::format("currently rate-limited; next token in %.3fs",
                         common::to_seconds(retry))});
    }
  }
  return report;
}

}  // namespace qcenv::daemon

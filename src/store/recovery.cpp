#include "store/recovery.hpp"

#include <algorithm>
#include <map>

#include "quantum/samples.hpp"

#define QCENV_LOG_COMPONENT "store.recovery"
#include "common/logging.hpp"

namespace qcenv::store {

using common::Json;
using common::Result;

namespace {

std::uint64_t uint_field(const Json& data, const std::string& key) {
  return static_cast<std::uint64_t>(int_or(data, key, 0));
}

/// Folds one batch's samples into the job's accumulated samples.
void merge_samples(JobRecord& job, const Json& batch_samples) {
  if (batch_samples.is_null()) return;
  if (job.samples.is_null()) {
    job.samples = batch_samples;
    return;
  }
  auto base = quantum::Samples::from_json(job.samples);
  auto delta = quantum::Samples::from_json(batch_samples);
  if (!base.ok() || !delta.ok()) {
    QCENV_LOG(Warn) << "job " << job.id
                    << ": undecodable samples in journal, batch dropped";
    return;
  }
  auto merged_metadata = delta.value().metadata();
  const auto merged = base.value().merge(delta.value());
  if (!merged.ok()) {
    QCENV_LOG(Warn) << "job " << job.id
                    << ": samples merge failed during replay: "
                    << merged.to_string();
    return;
  }
  base.value().set_metadata(std::move(merged_metadata));
  job.samples = base.value().to_json();
}

}  // namespace

Json ReplayStats::to_json() const {
  Json out = Json::object();
  out["snapshot_jobs"] = snapshot_jobs;
  out["snapshot_sessions"] = snapshot_sessions;
  out["journal_events"] = journal_events;
  out["applied_events"] = applied_events;
  out["skipped_events"] = skipped_events;
  out["unknown_events"] = unknown_events;
  out["recovered_jobs"] = recovered_jobs;
  out["recovered_sessions"] = recovered_sessions;
  out["requeued_jobs"] = requeued_jobs;
  out["evicted_jobs"] = evicted_jobs;
  out["replay_seconds"] = replay_seconds;
  return out;
}

Result<RecoveredState> RecoveryReplayer::replay(
    const std::string& journal_path, const std::string& snapshot_path,
    std::vector<JournalEntry>* parsed_entries,
    std::uint64_t* parsed_prefix_bytes, common::Clock* clock) {
  common::WallClock wall;
  if (clock == nullptr) clock = &wall;
  const common::TimeNs t0 = clock->now();
  auto snapshot = StoreSnapshot::load(snapshot_path);
  if (!snapshot.ok()) return snapshot.error();
  auto entries = JobJournal::read_file(journal_path, parsed_prefix_bytes);
  if (!entries.ok()) return entries.error();
  RecoveredState state =
      apply(std::move(snapshot).value(), entries.value());
  state.stats.replay_seconds = common::to_seconds(clock->now() - t0);
  if (parsed_entries != nullptr) {
    *parsed_entries = std::move(entries).value();
  }
  return state;
}

RecoveredState RecoveryReplayer::apply(
    std::optional<StoreSnapshot> snapshot,
    const std::vector<JournalEntry>& entries) {
  RecoveredState state;
  std::uint64_t jobs_seq = 0;
  std::uint64_t sessions_seq = 0;
  std::map<std::uint64_t, JobRecord> jobs;
  std::map<std::string, SessionRecord> sessions;  // keyed by token
  /// Content-addressed payload bodies (the journal dedupes repeats),
  /// keyed "<user>|<fingerprint>" to match the journal's per-user scope.
  std::map<std::string, Json> payload_bodies;
  const auto payload_key = [](const JobRecord& job) {
    return job.user + "|" + std::to_string(job.payload_hash);
  };

  if (snapshot.has_value()) {
    jobs_seq = snapshot->jobs_seq;
    sessions_seq = snapshot->sessions_seq;
    state.next_job_id = snapshot->next_job_id;
    state.last_seq = std::max(jobs_seq, sessions_seq);
    state.stats.snapshot_jobs = snapshot->jobs.size();
    state.stats.snapshot_sessions = snapshot->sessions.size();
    state.usage = std::move(snapshot->usage);
    snapshot->materialize();
    for (auto& [key, body] : snapshot->payloads) {
      payload_bodies[key] = std::move(std::get<Json>(body));
    }
    for (auto& job : snapshot->jobs) {
      if (job.payload_hash != 0) {
        if (!job.payload.is_null()) {
          payload_bodies[payload_key(job)] = job.payload;
        } else {
          // Snapshot jobs reference the deduped payload table.
          const auto body = payload_bodies.find(payload_key(job));
          if (body != payload_bodies.end()) job.payload = body->second;
        }
      }
      jobs.emplace(job.id, std::move(job));
    }
    for (auto& session : snapshot->sessions) {
      sessions.emplace(session.token, std::move(session));
    }
  }

  state.stats.journal_events = entries.size();
  for (const auto& entry : entries) {
    state.last_seq = std::max(state.last_seq, entry.seq);
    const bool session_event = entry.type == "session_created" ||
                               entry.type == "session_closed";
    if (session_event ? entry.seq <= sessions_seq : entry.seq <= jobs_seq) {
      ++state.stats.skipped_events;
      continue;
    }

    if (entry.type == "session_created") {
      auto session = SessionRecord::from_json(entry.data.at_or_null("session"));
      if (session.ok()) {
        // Upsert by token: re-applying an event already reflected in the
        // snapshot must be harmless.
        sessions[session.value().token] = std::move(session).value();
        ++state.stats.applied_events;
      } else {
        ++state.stats.unknown_events;
      }
    } else if (entry.type == "session_closed") {
      sessions.erase(string_or(entry.data, "token"));
      ++state.stats.applied_events;
    } else if (entry.type == "job_submitted") {
      auto job = JobRecord::from_json(entry.data.at_or_null("job"));
      if (job.ok()) {
        const std::uint64_t id = job.value().id;
        state.next_job_id = std::max(state.next_job_id, id + 1);
        JobRecord& record = (jobs[id] = std::move(job).value());
        if (record.payload_hash != 0) {
          if (!record.payload.is_null()) {
            // First sighting of this program: remember its body for the
            // deduped repeats that follow.
            payload_bodies[payload_key(record)] = record.payload;
          } else {
            const auto body = payload_bodies.find(payload_key(record));
            if (body != payload_bodies.end()) {
              record.payload = body->second;
            } else {
              QCENV_LOG(Warn)
                  << "job " << id << ": payload hash "
                  << record.payload_hash
                  << " unresolved (defining event lost?)";
            }
          }
        }
        ++state.stats.applied_events;
      } else {
        QCENV_LOG(Warn) << "seq " << entry.seq << ": bad job_submitted ("
                        << job.error().message() << ")";
        ++state.stats.unknown_events;
      }
    } else {
      // Per-job lifecycle event.
      const auto it = jobs.find(uint_field(entry.data, "id"));
      if (it == jobs.end()) {
        QCENV_LOG(Warn) << "seq " << entry.seq << ": event '" << entry.type
                        << "' for unknown job "
                        << uint_field(entry.data, "id");
        ++state.stats.unknown_events;
        continue;
      }
      JobRecord& job = it->second;
      if (entry.type == "job_placed") {
        job.resource = string_or(entry.data, "resource");
      } else if (entry.type == "batch_dispatched") {
        job.phase = JobPhase::kRunning;
        if (job.first_dispatch_time == 0) {
          job.first_dispatch_time = entry.time;
        }
      } else if (entry.type == "batch_done") {
        job.shots_done += uint_field(entry.data, "shots");
        merge_samples(job, entry.data.at_or_null("samples"));
        // Executed work newer than the snapshot's usage records: the
        // accounting ledger re-charges it during restore.
        state.usage_deltas.push_back({job.user,
                                      uint_field(entry.data, "shots"),
                                      int_or(entry.data, "qpu_ns", 0), 0,
                                      entry.time});
      } else if (entry.type == "batch_failed") {
        // The shots were never executed: the job returns to the queue.
        job.phase = JobPhase::kQueued;
      } else if (entry.type == "cancel_requested") {
        // The terminal job_cancelled may never have been journaled; the
        // post-process below must not resurrect this job.
        job.cancel_requested = true;
      } else if (entry.type == "job_completed") {
        job.phase = JobPhase::kCompleted;
        job.finish_time = entry.time;
        state.usage_deltas.push_back({job.user, 0, 0, 1, entry.time});
      } else if (entry.type == "job_failed") {
        job.phase = JobPhase::kFailed;
        job.finish_time = entry.time;
        job.error = string_or(entry.data, "error");
      } else if (entry.type == "job_cancelled") {
        job.phase = JobPhase::kCancelled;
        job.finish_time = entry.time;
        job.error = string_or(entry.data, "error");
      } else if (entry.type == "job_evicted") {
        // The GC dropped this terminal job; its usage stays charged (the
        // deltas above already captured it) but the record is gone.
        jobs.erase(it);
        ++state.stats.evicted_jobs;
      } else {
        ++state.stats.unknown_events;
        continue;
      }
      ++state.stats.applied_events;
    }
  }

  // Post-process: in-flight work becomes queued work with exactly its
  // un-executed shots; fully-executed jobs that died between the last
  // batch_done and the job_completed append are completed (nothing left to
  // run, samples are whole).
  for (auto& [_, job] : jobs) {
    if (job.phase == JobPhase::kRunning) job.phase = JobPhase::kQueued;
    if (job.phase == JobPhase::kQueued) {
      if (job.cancel_requested) {
        // The cancel beat the crash; honour it instead of re-running.
        job.phase = JobPhase::kCancelled;
        job.finish_time = job.submit_time;
      } else if (job.total_shots > 0 && job.shots_done >= job.total_shots) {
        job.phase = JobPhase::kCompleted;
        job.finish_time = job.submit_time;
      } else {
        // The last journaled placement stands: replay reports what the
        // journal says. The restarted daemon re-binds or unplaces at
        // restore, and journals that too (Dispatcher::restore).
        ++state.stats.requeued_jobs;
      }
    }
  }

  state.stats.recovered_jobs = jobs.size();
  state.stats.recovered_sessions = sessions.size();
  state.jobs.reserve(jobs.size());
  for (auto& [_, job] : jobs) state.jobs.push_back(std::move(job));
  state.sessions.reserve(sessions.size());
  for (auto& [_, session] : sessions) {
    state.sessions.push_back(std::move(session));
  }
  return state;
}

}  // namespace qcenv::store

// StoreSnapshot: a point-in-time image of the daemon's durable state.
//
// Snapshots bound journal growth: compaction writes the full current state
// (sessions + jobs, including accumulated samples) atomically and then
// drops every journal event the snapshot already covers. The two
// watermarks record which journal prefix is folded in — job events are
// appended under the dispatcher lock so `jobs_seq` is exact, while session
// events are applied idempotently on replay so `sessions_seq` only needs
// the read-watermark-before-list ordering guarantee.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "quantum/payload.hpp"
#include "quantum/samples.hpp"
#include "store/records.hpp"

namespace qcenv::store {

struct StoreSnapshot {
  static constexpr const char* kVersion = "qcenv.store.v1";

  /// Journal events with seq <= jobs_seq are reflected in `jobs`.
  std::uint64_t jobs_seq = 0;
  /// Journal events with seq <= sessions_seq are reflected in `sessions`.
  std::uint64_t sessions_seq = 0;
  /// Next daemon job id to allocate after recovery.
  std::uint64_t next_job_id = 1;
  common::TimeNs created = 0;
  std::vector<SessionRecord> sessions;
  std::vector<JobRecord> jobs;
  /// A payload-table body: the parsed Json of a loaded snapshot, or the
  /// live shared payload, which compaction serializes only as it streams
  /// the table out.
  using PayloadBody =
      std::variant<common::Json, std::shared_ptr<const quantum::Payload>>;
  /// Content-deduped payload bodies keyed "<user>|<fingerprint>" (the
  /// same scope the journal uses): a 10k-job parameter sweep snapshots
  /// its program once, and jobs reference it via payload_hash.
  std::map<std::string, PayloadBody> payloads;
  /// Per-user decayed accounting usage, consistent with jobs_seq (captured
  /// under the dispatcher lock, where batches charge the ledger).
  std::vector<UsageRecord> usage;
  /// Live compaction's accumulated samples: empty, or parallel to `jobs`.
  /// Shared (immutable) with the dispatcher's records and serialized one
  /// record at a time, in place of the record's null `samples`, as the
  /// snapshot streams out. Null entries leave `samples` as it is.
  std::vector<std::shared_ptr<const quantum::Samples>> live_samples;

  /// `jobs[index]` with its live samples (if any) filled in.
  JobRecord job(std::size_t index) const;
  static common::Json payload_json(const PayloadBody& body);
  /// Folds the live forms into the plain Json fields (a no-op for loaded
  /// snapshots): afterwards every payload body holds Json and
  /// `live_samples` is empty.
  void materialize();

  common::Json to_json() const;
  static common::Result<StoreSnapshot> from_json(const common::Json& json);

  /// Streams the to_json().dump() bytes record by record through a bounded
  /// buffer into a tmp file, then fsync + rename, so a crash never leaves
  /// a partial snapshot in place of a good one and no whole-snapshot tree
  /// or string is ever built.
  common::Status write_atomic(const std::string& path) const;
  /// Loads a snapshot; nullopt when no snapshot exists yet.
  static common::Result<std::optional<StoreSnapshot>> load(
      const std::string& path);
};

}  // namespace qcenv::store

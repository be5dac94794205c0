// JobJournal: append-only write-ahead log of job/session lifecycle events.
//
// On-disk format: the 8-byte magic "QCWAL2\n", then length-prefixed
// binary frames `[u32 len][u32 crc32c][u64 seq][u64 t][u32 tlen][type]
// [body]` (all little-endian). The CRC covers everything after itself, so
// a torn final frame (crash mid-write) OR a bit-rotted tail is detected
// and dropped on replay, while a corrupt frame in the middle of the file
// is rejected at its frame boundary instead of poisoning everything after
// it. One frame check in journal.cpp decides clean / torn tail / corrupt
// for every reader: replay, compaction, segment shipping and the
// follower's validate_frames. The body is the event's JSON dump (first
// byte '{') or, for job_submitted, a flat binary record (first byte 0x01 —
// see journal.cpp) that replay decodes into JSON. A file that does not
// start with the magic is an error, never rewritten. Sequence numbers are
// strictly increasing.
//
// Durability modes:
//   kAlways       write + fsync inline on every append (slow baseline),
//   kGroupCommit  appends buffer in memory and return immediately; a writer
//                 thread flushes the batch and issues ONE fsync per group
//                 (at most every `group_commit_interval`, sooner when
//                 `group_commit_max_batch` events pile up). This is the
//                 classic group-commit trade: the hot submit path pays a
//                 buffered string append, and the crash-loss window is
//                 bounded by the interval,
//   kNone         writes are batched like kGroupCommit but never fsynced
//                 except on explicit flush() (tests, benches).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "quantum/payload.hpp"
#include "store/records.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"

namespace qcenv::store {

enum class SyncMode { kNone, kAlways, kGroupCommit };

/// The 8-byte segment header, for components that mirror raw frames
/// into a journal file of their own (the standby replicator).
std::string_view wal_v2_magic() noexcept;

const char* to_string(SyncMode mode) noexcept;

struct JournalOptions {
  SyncMode sync = SyncMode::kGroupCommit;
  /// Longest an appended event sits in memory before the group fsync —
  /// i.e. the crash-loss window. 5 ms is noise next to a QPU batch but
  /// keeps fsync duty low even on slow disks.
  common::DurationNs group_commit_interval = 5 * common::kMillisecond;
  /// Flush earlier once this many events are pending.
  std::size_t group_commit_max_batch = 512;
};

/// One decoded journal event.
struct JournalEntry {
  std::uint64_t seq = 0;
  common::TimeNs time = 0;
  std::string type;
  common::Json data;
};

/// One shipped chunk of a journal for standby replication: verbatim
/// whole frames (CRCs intact end to end), contiguous with the follower's
/// cursor, never extending past the durable watermark — a standby must
/// not hold events the leader has not acknowledged as durable.
struct WalSegment {
  /// The cursor precedes the file's first frame (compaction dropped those
  /// events): the follower must catch up from a snapshot before resuming
  /// WAL pulls.
  bool snapshot_needed = false;
  std::uint64_t first_seq = 0;  ///< first frame in `bytes` (0 = none)
  std::uint64_t end_seq = 0;    ///< last frame in `bytes` (0 = none)
  /// Leader's durable high-water mark at read time; follower replication
  /// lag in events = durable_seq - its applied seq.
  std::uint64_t durable_seq = 0;
  /// Absolute file offset just past the last served frame (0 = none):
  /// lets a file-based puller resume the next scan there instead of
  /// re-walking the whole journal.
  std::uint64_t next_offset = 0;
  std::string bytes;  ///< raw frame bytes, exactly as on the leader's disk
};

class JobJournal {
 public:
  JobJournal(JournalOptions options, common::Clock* clock,
             telemetry::MetricsRegistry* metrics);
  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Opens (creating if absent) the journal file and scans it so new
  /// sequence numbers continue after the existing tail.
  common::Status open(const std::string& path);
  /// Same, reusing what the caller already decoded via read_file — the
  /// entries plus the complete-frame prefix length it reports — so
  /// the recovery path reads and parses the journal exactly once at
  /// startup (everything past the prefix is a torn tail to truncate).
  common::Status open(const std::string& path,
                      const std::vector<JournalEntry>& preparsed,
                      std::uint64_t complete_prefix_bytes);
  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }

  /// Appends one event; returns its sequence number. Durability depends on
  /// the sync mode (see header comment). Serialization happens on the
  /// writer thread (except kAlways), so appending is cheap for callers
  /// holding hot-path locks. `at` (when >= 0) stamps the event instead of
  /// a fresh clock read: callers whose in-memory mutation carries its own
  /// timestamp (finish times, ledger charges) pass the SAME value so
  /// replaying the journal reproduces that state exactly — two clock
  /// reads are two different virtual instants.
  std::uint64_t append(const std::string& type, common::Json data,
                       common::TimeNs at = -1);

  /// Same, but even *building* the event body is deferred to the writer
  /// thread. `build` must be safe to call from another thread later (own
  /// its data or reference only immutable state). This keeps large bodies
  /// — a submitted job's full payload — entirely off the submit path.
  std::uint64_t append_deferred(const std::string& type,
                                std::function<common::Json()> build,
                                common::TimeNs at = -1);

  /// Specialized zero-type-erasure variant of append_deferred for the
  /// hottest event: a submitted job. The writer thread fingerprints the
  /// payload and embeds its body only on its first sighting in the
  /// current journal segment (compaction resets the sighting set — the
  /// snapshot carries every payload whose defining event it swallowed).
  /// The submit path pays one deque push, nothing more.
  std::uint64_t append_job_submitted(
      JobRecord meta, std::shared_ptr<const quantum::Payload> payload);

  /// Structured-event sink for operator-facing incidents: group-commit
  /// stalls ("fsync_stall") and the sticky fail-stop ("journal_fail_stop").
  /// Call before open(); the log must outlive this journal.
  void set_event_log(telemetry::EventLog* events) { events_ = events; }

  /// Invoked exactly once, after the sticky fail-stop is recorded and its
  /// journal_fail_stop event logged — the flight-recorder dump trigger.
  /// Runs on the thread that hit the failure with the journal mutex held,
  /// so the hook must not call back into this journal.
  void set_fail_stop_hook(std::function<void(const std::string&)> hook) {
    std::scoped_lock lock(mutex_);
    fail_hook_ = std::move(hook);
  }

  /// Invoked on every writer-thread wakeup (the journal-writer watchdog
  /// heartbeat). Same reentrancy rule as set_fail_stop_hook.
  void set_heartbeat(std::function<void()> heartbeat) {
    std::scoped_lock lock(mutex_);
    heartbeat_ = std::move(heartbeat);
  }

  /// Blocks until every event appended so far is written AND fsynced.
  /// Errs once the journal has failed (see io_error()).
  common::Status flush();

  /// Fail-stop: after the first write/fsync failure the journal stops
  /// writing (so the file keeps at most one torn tail frame and replay
  /// recovers the durable prefix), acknowledges nothing further, and
  /// reports the sticky error here and from every flush().
  std::optional<common::Error> io_error() const;

  /// Lock-free equivalent of io_error().has_value(), for per-submission
  /// health checks on the hot path: one relaxed-ish atomic load instead
  /// of a global mutex acquisition. Set strictly after io_error_, so a
  /// true here guarantees io_error() is populated.
  bool has_failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  /// Whether the event with this append seq is written AND fsynced.
  /// Distinguishes "my append landed before the journal fail-stopped"
  /// from "my append was swallowed by the failure" — io_error() alone
  /// cannot: it is a global flag another thread's append may have set
  /// right after this one's frame became durable.
  bool is_durable(std::uint64_t seq) const;

  /// Rewrites the journal keeping only events with seq > `watermark`
  /// (compaction: everything at or below the watermark is covered by a
  /// snapshot). Pending events are flushed first; appends continue with
  /// their sequence numbers unchanged.
  common::Status drop_through(std::uint64_t watermark);

  /// Never hand out sequence numbers at or below `seq` (used after loading
  /// a snapshot whose watermark outruns a truncated journal).
  void reserve_through(std::uint64_t seq);

  std::uint64_t last_seq() const;
  /// Events currently in the journal file + pending buffer.
  std::uint64_t event_count() const;
  std::uint64_t appends_total() const;
  std::uint64_t fsyncs_total() const;
  /// Bytes in the journal file (pending events contribute an estimate —
  /// they are not serialized until the writer thread picks them up).
  std::uint64_t size_bytes() const;

  /// Decodes every well-formed event of a journal file, in order. A torn
  /// tail (incomplete final frame, or a final frame failing its CRC) is
  /// dropped with a warning; a corrupt frame before the tail, or a file
  /// without the magic, is an error naming the frame or the path. A
  /// non-null `complete_prefix_bytes` receives the byte length of the
  /// well-formed prefix the entries came from (for the preparsed open() —
  /// no second read of the file).
  static common::Result<std::vector<JournalEntry>> read_file(
      const std::string& path,
      std::uint64_t* complete_prefix_bytes = nullptr);

  /// Live-journal read for replication: frames with seq > `after_seq`,
  /// capped at the durable watermark and ~`max_bytes` (always at least
  /// one frame when one qualifies). Safe against concurrent appends and
  /// compaction. A follower advancing one segment at a time hits a cursor
  /// fast path that reads only bytes past what it was already served, so
  /// the io_mutex_ hold (shared with the group-commit writer) stays
  /// O(new data), not O(file).
  common::Result<WalSegment> read_segment(std::uint64_t after_seq,
                                          std::uint64_t max_bytes);

  /// Same scan over a journal file with no live journal behind it
  /// (post-mortem shipping from a dead leader's disk, tests). Serves the
  /// complete-frame prefix; a torn tail is ignored exactly like replay
  /// ignores it, and durable_seq reports the prefix's last frame.
  static common::Result<WalSegment> read_segment_file(
      const std::string& path, std::uint64_t after_seq,
      std::uint64_t max_bytes);

  /// Validation verdict on a buffer of raw shipped frames (no magic
  /// header): the byte length of the whole-frame CRC-clean prefix whose
  /// seqs strictly increase from `after_seq`, plus its frame count and
  /// last seq. bytes < buffer size means the tail was torn in transit —
  /// the receiver appends the clean prefix and re-requests from end_seq.
  struct FramePrefix {
    std::uint64_t bytes = 0;
    std::uint64_t frames = 0;
    std::uint64_t end_seq = 0;
  };
  static FramePrefix validate_frames(std::string_view bytes,
                                     std::uint64_t after_seq);

 private:
  /// One event waiting for the writer thread. Exactly one of data/build/
  /// submit_payload-with-meta is meaningful (see serialize_pending).
  struct PendingEvent {
    std::uint64_t seq = 0;
    common::TimeNs time = 0;
    std::string type;
    common::Json data;
    std::function<common::Json()> build;
    std::optional<JobRecord> submit_meta;
    std::shared_ptr<const quantum::Payload> submit_payload;
  };

  std::uint64_t enqueue(const std::string& type, PendingEvent event,
                        common::TimeNs at = -1);
  /// Records the first (sticky) I/O failure and flips the failure gauge
  /// so /metrics shows the fail-stop. Caller must hold mutex_.
  void fail_locked(common::Error error);
  /// Serializes the event body (writer thread / kAlways inline path). A
  /// job_submitted event is encoded as a flat binary record instead of a
  /// JSON dump — the dominant per-event cost on the writer thread — and
  /// replay decodes it back into Json. Everything else dumps as JSON text.
  std::string serialize_pending(const PendingEvent& event);
  void writer_loop();
  /// Writes `block` to the file and optionally fsyncs. Caller must hold
  /// io_mutex_; returns bytes written.
  common::Status write_block(const std::string& block, bool sync);

  JournalOptions options_;
  common::Clock* clock_;
  telemetry::MetricsRegistry* metrics_;
  // Cached handles: registry lookups take a mutex, appends must not.
  telemetry::Counter* appends_counter_ = nullptr;
  telemetry::Counter* fsyncs_counter_ = nullptr;
  telemetry::Gauge* failed_gauge_ = nullptr;
  // Group-commit writer instrumentation (observed off the hot path, on
  // the writer thread): events per fsynced batch, and wall seconds per
  // write+fsync cycle (real IO time — intentionally NOT the virtual
  // clock, which cannot see disk stalls).
  telemetry::HistogramMetric* batch_events_hist_ = nullptr;
  telemetry::HistogramMetric* commit_seconds_hist_ = nullptr;
  telemetry::EventLog* events_ = nullptr;
  std::function<void(const std::string&)> fail_hook_;
  std::function<void()> heartbeat_;

  std::string path_;
  int fd_ = -1;

  mutable std::mutex mutex_;           // pending buffer + counters
  std::condition_variable work_cv_;    // appenders -> writer
  std::condition_variable durable_cv_; // writer -> flush() waiters
  std::deque<PendingEvent> pending_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_append_seq_ = 0;  // highest seq actually appended
  std::uint64_t durable_seq_ = 0;   // highest seq written + fsynced
  std::uint64_t written_seq_ = 0;   // highest seq written to the fd
  std::uint64_t file_bytes_ = 0;
  std::uint64_t file_events_ = 0;
  /// Bumped by drop_through; the writer skips its byte/event counter
  /// increments when a rewrite already accounted for its block.
  std::uint64_t rewrite_epoch_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::optional<common::Error> io_error_;  // sticky first write failure
  /// Mirrors io_error_.has_value() for the lock-free has_failed(); the
  /// release store in fail_locked() happens after io_error_ is set.
  std::atomic<bool> failed_{false};
  bool flush_requested_ = false;
  bool stop_ = false;

  std::mutex io_mutex_;  // serializes file writes vs. compaction rewrite
  /// Replication ship cursor (guarded by io_mutex_): the last seq served
  /// by read_segment and the file offset just past its frame, so a
  /// follower pulling sequentially re-reads only new bytes. Reset by
  /// drop_through — the rewrite invalidates offsets.
  std::uint64_t ship_cursor_seq_ = 0;
  std::uint64_t ship_cursor_offset_ = 0;
  /// Payloads already embedded in the current journal segment, keyed by
  /// "<user>|<fingerprint>" (writer-thread dedup); cleared by
  /// drop_through(). Scoping by user means a crafted fingerprint
  /// collision can only ever alias a user's own programs, never swap
  /// another user's circuit in at recovery.
  std::mutex payload_mutex_;
  std::unordered_set<std::string> embedded_payloads_;
  /// One-entry fingerprint memo for the serialization path: parameter
  /// sweeps submit thousands of jobs sharing one Payload object (see
  /// Dispatcher's shared_ptr submit overload), and hashing the identical
  /// program body per event was the writer's second-largest cost. Keyed
  /// by object identity; holding the shared_ptr pins the address so it
  /// cannot be recycled by a new payload while cached. Only touched by
  /// the serializing thread (writer thread, or the appender under mutex_
  /// in kAlways mode), so it needs no lock of its own.
  std::shared_ptr<const quantum::Payload> fp_memo_payload_;
  std::uint64_t fp_memo_hash_ = 0;
  std::thread writer_;
};

}  // namespace qcenv::store

#include "store/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "store/crc32c.hpp"
#include "store/fault_injector.hpp"
#include "store/fsio.hpp"

#define QCENV_LOG_COMPONENT "store.journal"
#include "common/logging.hpp"

namespace qcenv::store {

using common::Json;
using common::Result;
using common::Status;

namespace {

/// Segment header: every journal file starts with these 8 bytes.
constexpr char kMagicV2[8] = {'Q', 'C', 'W', 'A', 'L', '2', '\n', '\0'};
constexpr std::size_t kMagicLen = sizeof(kMagicV2);
/// Frame header: u32 payload length + u32 CRC32C of the payload.
constexpr std::size_t kFrameHeaderLen = 8;
/// Fixed payload prelude: u64 seq + u64 time + u32 type length.
constexpr std::size_t kFramePreludeLen = 20;

/// A group-commit cycle (write + fsync) slower than this is an operator
/// incident: either the disk is saturated or the device is dying. The
/// crash-loss window is supposed to be ~the commit interval (5 ms).
constexpr double kFsyncStallSeconds = 0.1;

void put_le32(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

void put_le64(std::string& out, std::uint64_t value) {
  put_le32(out, static_cast<std::uint32_t>(value & 0xFFFFFFFFu));
  put_le32(out, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t get_le32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_le64(const char* p) {
  return static_cast<std::uint64_t>(get_le32(p)) |
         (static_cast<std::uint64_t>(get_le32(p + 4)) << 32);
}

/// One frame, appended to `out`: the metadata fields are fixed-width
/// stores instead of decimal formatting, and replay gets them back
/// without a JSON parse.
void encode_frame(std::string& out, std::uint64_t seq, common::TimeNs time,
                  const std::string& type, const std::string& data_dump) {
  const std::size_t payload_len =
      kFramePreludeLen + type.size() + data_dump.size();
  out.reserve(out.size() + kFrameHeaderLen + payload_len);
  put_le32(out, static_cast<std::uint32_t>(payload_len));
  const std::size_t crc_at = out.size();
  put_le32(out, 0);  // CRC patched below, once the payload is in place
  const std::size_t payload_at = out.size();
  put_le64(out, seq);
  put_le64(out, static_cast<std::uint64_t>(time));
  put_le32(out, static_cast<std::uint32_t>(type.size()));
  out += type;
  out += data_dump;
  const std::uint32_t crc = crc32c(
      std::string_view(out.data() + payload_at, out.size() - payload_at));
  out[crc_at + 0] = static_cast<char>(crc & 0xFF);
  out[crc_at + 1] = static_cast<char>((crc >> 8) & 0xFF);
  out[crc_at + 2] = static_cast<char>((crc >> 16) & 0xFF);
  out[crc_at + 3] = static_cast<char>((crc >> 24) & 0xFF);
}

/// What check_frame found at one frame boundary.
enum class FrameVerdict {
  kClean,     ///< whole, CRC-clean, prelude consistent with its length
  kTornTail,  ///< incomplete, or CRC-failing as the FINAL frame: the
              ///< crash-mid-write shape, dropped by every reader
  kCorrupt,   ///< CRC-failing with bytes after it, or CRC-clean but with a
              ///< prelude its length contradicts: never a crash artefact
};

struct Frame {
  FrameVerdict verdict = FrameVerdict::kTornTail;
  const char* defect = nullptr;  ///< why the frame is not clean
  std::size_t end = 0;           ///< offset just past a clean frame
  std::uint64_t seq = 0;
  common::TimeNs time = 0;
  std::string_view type;
  std::string_view body;
};

/// The one frame check shared by every walker — replay (read_file),
/// compaction, segment shipping and the follower's validate_frames — so
/// none of them can accept a frame another rejects. `pos` is a frame
/// boundary strictly inside `content`. Each caller keeps its own policy
/// for what is not clean; none decodes the body here.
Frame check_frame(std::string_view content, std::size_t pos) {
  Frame frame;
  const std::size_t left = content.size() - pos;
  if (left < kFrameHeaderLen) {
    frame.defect = "incomplete frame header";
    return frame;
  }
  const std::uint32_t len = get_le32(content.data() + pos);
  if (len > left - kFrameHeaderLen) {
    frame.defect = "declared length runs past the end";
    return frame;
  }
  const std::size_t end = pos + kFrameHeaderLen + len;
  const std::string_view payload = content.substr(pos + kFrameHeaderLen, len);
  if (crc32c(payload) != get_le32(content.data() + pos + 4)) {
    if (end < content.size()) {
      frame.verdict = FrameVerdict::kCorrupt;
      frame.defect = "CRC mismatch before the tail";
    } else {
      frame.defect = "CRC mismatch";
    }
    return frame;
  }
  frame.verdict = FrameVerdict::kCorrupt;
  if (len < kFramePreludeLen) {
    frame.defect = "too short for its prelude";
    return frame;
  }
  const std::uint32_t type_len = get_le32(payload.data() + 16);
  if (type_len > len - kFramePreludeLen) {
    frame.defect = "declares an oversized event type";
    return frame;
  }
  frame.verdict = FrameVerdict::kClean;
  frame.defect = nullptr;
  frame.end = end;
  frame.seq = get_le64(payload.data());
  frame.time = static_cast<common::TimeNs>(get_le64(payload.data() + 8));
  frame.type = payload.substr(kFramePreludeLen, type_len);
  frame.body = payload.substr(kFramePreludeLen + type_len);
  return frame;
}

// --- Binary job_submitted frame body -------------------------------------
//
// The hottest event by far is job_submitted, and profiling shows its cost
// is not the frame encoding but building a Json tree of the JobRecord and
// dumping it to text — a couple of microseconds per event on the writer
// thread, which bounds sustained durable throughput. Inside a frame the
// body is an opaque byte string, so the writer stores the record as a flat
// binary struct instead and replay decodes it back into the exact Json a
// JSON body would have carried. Every other event's body is JSON, which
// always starts with '{' (0x7B), so the marker byte below discriminates
// with one byte of lookahead.

/// First byte of a binary job_submitted body.
constexpr char kSubmitMetaMarker = '\x01';
/// Second byte: codec version, bumped if the field layout ever changes.
constexpr std::uint8_t kSubmitMetaVersion = 1;

constexpr std::uint8_t kMetaCancelRequested = 1u << 0;
constexpr std::uint8_t kMetaPinned = 1u << 1;
constexpr std::uint8_t kMetaHasPayload = 1u << 2;
constexpr std::uint8_t kMetaHasSamples = 1u << 3;

void put_str(std::string& out, const std::string& value) {
  put_le32(out, static_cast<std::uint32_t>(value.size()));
  out += value;
}

/// Binary body layout (all little-endian):
///   marker, version, class u8, phase u8, flags u8,
///   id u64, session u64, total_shots u64, shots_done u64,
///   submit_time u64, first_dispatch_time u64, finish_time u64,
///   payload_hash u64,
///   user / resource / policy / error as [u32 len][bytes],
///   then, gated by flags: payload JSON dump, samples JSON dump.
/// The embedded payload/samples stay JSON text: they are opaque to the
/// store (see records.hpp) and appear on first sighting only, so their
/// serialization cost is per unique program, not per submission.
void encode_submit_meta(std::string& out, const JobRecord& meta,
                        std::uint64_t payload_hash,
                        const std::string& payload_dump,
                        const std::string& samples_dump) {
  out.reserve(out.size() + 96 + meta.user.size() + meta.resource.size() +
              meta.policy.size() + meta.error.size() + payload_dump.size() +
              samples_dump.size());
  out.push_back(kSubmitMetaMarker);
  out.push_back(static_cast<char>(kSubmitMetaVersion));
  out.push_back(static_cast<char>(meta.job_class));
  out.push_back(static_cast<char>(meta.phase));
  std::uint8_t flags = 0;
  if (meta.cancel_requested) flags |= kMetaCancelRequested;
  if (meta.pinned) flags |= kMetaPinned;
  if (!payload_dump.empty()) flags |= kMetaHasPayload;
  if (!samples_dump.empty()) flags |= kMetaHasSamples;
  out.push_back(static_cast<char>(flags));
  put_le64(out, meta.id);
  put_le64(out, meta.session);
  put_le64(out, meta.total_shots);
  put_le64(out, meta.shots_done);
  put_le64(out, static_cast<std::uint64_t>(meta.submit_time));
  put_le64(out, static_cast<std::uint64_t>(meta.first_dispatch_time));
  put_le64(out, static_cast<std::uint64_t>(meta.finish_time));
  put_le64(out, payload_hash);
  put_str(out, meta.user);
  put_str(out, meta.resource);
  put_str(out, meta.policy);
  put_str(out, meta.error);
  if (!payload_dump.empty()) put_str(out, payload_dump);
  if (!samples_dump.empty()) put_str(out, samples_dump);
}

/// Decodes a binary job_submitted body back into `{"job":{...}}`, the
/// record's to_json() carrying its payload_hash and, on first sighting,
/// its embedded payload — the Json replay hands the recovery code. Any
/// truncation, bad enum value or trailing garbage is a protocol error —
/// the frame CRC already passed, so a malformed body is corruption (or a
/// future codec version), not a torn tail.
Result<Json> decode_submit_meta(std::string_view body) {
  std::size_t pos = 1;  // caller matched the marker byte
  const auto bad = [](const char* what) -> common::Error {
    return common::err::protocol(
        std::string("binary job_submitted body: ") + what);
  };
  const auto need = [&](std::size_t n) { return body.size() - pos >= n; };
  if (!need(4 + 8 * 8)) return bad("truncated fixed fields");
  const auto version = static_cast<std::uint8_t>(body[pos++]);
  if (version != kSubmitMetaVersion) return bad("unknown codec version");
  const auto cls = static_cast<std::uint8_t>(body[pos++]);
  const auto phase = static_cast<std::uint8_t>(body[pos++]);
  const auto flags = static_cast<std::uint8_t>(body[pos++]);
  if (cls > static_cast<std::uint8_t>(daemon::JobClass::kDevelopment)) {
    return bad("job class out of range");
  }
  if (phase > static_cast<std::uint8_t>(JobPhase::kCancelled)) {
    return bad("phase out of range");
  }
  JobRecord record;
  record.job_class = static_cast<daemon::JobClass>(cls);
  record.phase = static_cast<JobPhase>(phase);
  record.cancel_requested = (flags & kMetaCancelRequested) != 0;
  record.pinned = (flags & kMetaPinned) != 0;
  const auto u64 = [&] {
    const std::uint64_t value = get_le64(body.data() + pos);
    pos += 8;
    return value;
  };
  record.id = u64();
  record.session = u64();
  record.total_shots = u64();
  record.shots_done = u64();
  record.submit_time = static_cast<common::TimeNs>(u64());
  record.first_dispatch_time = static_cast<common::TimeNs>(u64());
  record.finish_time = static_cast<common::TimeNs>(u64());
  record.payload_hash = u64();
  const auto str = [&](std::string& into) {
    if (!need(4)) return false;
    const std::uint32_t len = get_le32(body.data() + pos);
    pos += 4;
    if (!need(len)) return false;
    into.assign(body.data() + pos, len);
    pos += len;
    return true;
  };
  if (!str(record.user) || !str(record.resource) || !str(record.policy) ||
      !str(record.error)) {
    return bad("truncated string field");
  }
  std::string dump;
  if ((flags & kMetaHasPayload) != 0) {
    if (!str(dump)) return bad("truncated payload body");
    auto parsed = Json::parse(dump);
    if (!parsed.ok()) return bad("embedded payload is not valid JSON");
    record.payload = std::move(parsed).value();
  }
  if ((flags & kMetaHasSamples) != 0) {
    if (!str(dump)) return bad("truncated samples body");
    auto parsed = Json::parse(dump);
    if (!parsed.ok()) return bad("embedded samples are not valid JSON");
    record.samples = std::move(parsed).value();
  }
  if (pos != body.size()) return bad("trailing bytes after the record");
  Json data = Json::object();
  data["job"] = record.to_json();
  return data;
}

common::Error make_io_error(const std::string& what, const std::string& path) {
  return common::err::io(what + " '" + path + "': " + std::strerror(errno));
}

/// Rejects a file that does not start with the segment magic. A prefix of
/// the magic passes: that is a header torn by a crash, read as empty.
Status check_magic(std::string_view content, const std::string& path) {
  const std::size_t have = std::min(content.size(), kMagicLen);
  if (std::memcmp(content.data(), kMagicV2, have) != 0) {
    return common::err::protocol("unrecognized journal header in '" + path +
                                 "' (not a QCWAL2 journal)");
  }
  return Status::ok_status();
}

/// Whole-file read; absent reads as empty.
std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads `[offset, offset + max_bytes)` of `path` (short read at EOF).
std::string read_range(const std::string& path, std::uint64_t offset,
                       std::uint64_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open() || max_bytes == 0) return {};
  in.seekg(static_cast<std::streamoff>(offset));
  std::string out(max_bytes, '\0');
  in.read(out.data(), static_cast<std::streamsize>(max_bytes));
  out.resize(static_cast<std::size_t>(std::max<std::streamsize>(
      in.gcount(), 0)));
  return out;
}

/// Plain full write with EINTR retry — used for the one-time segment
/// header, which deliberately bypasses the fault injector so injected
/// journal-write faults keep hitting event N, not event N-1.
Status write_fully(int fd, const char* data, std::size_t size,
                   const std::string& path) {
  while (size > 0) {
    const ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return make_io_error("cannot write journal header to", path);
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return Status::ok_status();
}

}  // namespace

std::string_view wal_v2_magic() noexcept {
  return std::string_view(kMagicV2, kMagicLen);
}

const char* to_string(SyncMode mode) noexcept {
  switch (mode) {
    case SyncMode::kNone: return "none";
    case SyncMode::kAlways: return "always";
    case SyncMode::kGroupCommit: return "group_commit";
  }
  return "?";
}

JobJournal::JobJournal(JournalOptions options, common::Clock* clock,
                       telemetry::MetricsRegistry* metrics)
    : options_(options), clock_(clock), metrics_(metrics) {}

JobJournal::~JobJournal() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
    flush_requested_ = true;
  }
  work_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status JobJournal::open(const std::string& path) {
  // Scan any existing tail first so sequence numbers keep increasing
  // across restarts (snapshot watermarks compare against them).
  std::uint64_t prefix_bytes = 0;
  auto existing = read_file(path, &prefix_bytes);
  if (!existing.ok()) return existing.error();
  return open(path, existing.value(), prefix_bytes);
}

Status JobJournal::open(const std::string& path,
                        const std::vector<JournalEntry>& preparsed,
                        std::uint64_t complete_prefix_bytes) {
  if (fd_ >= 0) {
    return common::err::failed_precondition("journal already open");
  }
  // 0600: the journal carries session bearer tokens and user payloads.
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
               0600);
  if (fd_ < 0) return make_io_error("cannot open journal", path);
  // Make the file's directory entry itself durable before acknowledging
  // any append as such.
  QCENV_RETURN_IF_ERROR(fsync_parent_dir(path));
  path_ = path;
  if (metrics_ != nullptr) {
    appends_counter_ =
        &metrics_->counter("store_journal_appends_total", {},
                           "events appended to the job journal");
    fsyncs_counter_ =
        &metrics_->counter("store_fsyncs_total", {},
                           "group-commit fsyncs issued by the journal");
    failed_gauge_ = &metrics_->gauge(
        "store_journal_failed", {},
        "1 once the journal has fail-stopped on a write/fsync error "
        "(new events are no longer durable)");
    batch_events_hist_ = &metrics_->histogram(
        "store_group_commit_batch_events",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, {},
        "events folded into one group-commit write");
    commit_seconds_hist_ = &metrics_->histogram(
        "store_group_commit_seconds",
        {1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1, 5}, {},
        "wall seconds per group-commit write+fsync cycle");
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  file_bytes_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
  // Cut any torn tail fragment off NOW: appending after it would splice
  // the first new event onto garbage and poison the file for replay.
  const std::uint64_t valid_bytes = complete_prefix_bytes;
  if (valid_bytes < file_bytes_) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
      return make_io_error("cannot truncate torn journal tail of", path);
    }
    QCENV_LOG(Warn) << "truncated torn tail: " << (file_bytes_ - valid_bytes)
                    << " byte(s) after the last complete frame of '" << path
                    << "'";
    file_bytes_ = valid_bytes;
  }
  if (file_bytes_ == 0) {
    // New (or fully torn) file: it starts with the magic so the very first
    // crash-restart can tell "empty journal" from "unrecognized garbage".
    QCENV_RETURN_IF_ERROR(write_fully(fd_, kMagicV2, kMagicLen, path));
    if (::fsync(fd_) != 0) {
      return make_io_error("cannot fsync journal header of", path);
    }
    file_bytes_ = kMagicLen;
  }
  file_events_ = preparsed.size();
  if (!preparsed.empty()) {
    const std::uint64_t tail = preparsed.back().seq;
    next_seq_ = tail + 1;
    written_seq_ = durable_seq_ = last_append_seq_ = tail;
  }
  if (options_.sync != SyncMode::kAlways) {
    writer_ = std::thread([this] { writer_loop(); });
  }
  return Status::ok_status();
}

std::uint64_t JobJournal::append(const std::string& type, Json data,
                                 common::TimeNs at) {
  PendingEvent event;
  event.data = std::move(data);
  return enqueue(type, std::move(event), at);
}

std::uint64_t JobJournal::append_deferred(
    const std::string& type, std::function<Json()> build, common::TimeNs at) {
  PendingEvent event;
  event.build = std::move(build);
  return enqueue(type, std::move(event), at);
}

std::uint64_t JobJournal::append_job_submitted(
    JobRecord meta, std::shared_ptr<const quantum::Payload> payload) {
  PendingEvent event;
  event.submit_meta = std::move(meta);
  event.submit_payload = std::move(payload);
  return enqueue("job_submitted", std::move(event));
}

std::string JobJournal::serialize_pending(const PendingEvent& event) {
  if (event.submit_meta.has_value()) {
    const JobRecord& meta = *event.submit_meta;
    std::uint64_t hash = meta.payload_hash;
    bool first_sighting = false;
    if (event.submit_payload != nullptr) {
      // Content-addressed dedup: only the first submission of a program
      // in this journal segment embeds its (large) body; repeats — the
      // common shape for parameter sweeps and multi-user production
      // programs — reference the fingerprint instead. Repeats from the
      // same shared Payload object skip even the fingerprint hash.
      if (event.submit_payload == fp_memo_payload_) {
        hash = fp_memo_hash_;
      } else {
        hash = payload_fingerprint(*event.submit_payload);
        fp_memo_payload_ = event.submit_payload;
        fp_memo_hash_ = hash;
      }
      // Dedup is scoped per user (see embedded_payloads_).
      std::string key = meta.user;
      key += '|';
      key += std::to_string(hash);
      std::scoped_lock lock(payload_mutex_);
      first_sighting = embedded_payloads_.insert(std::move(key)).second;
    }
    // Flat binary body, no Json tree, no text dump of the metadata: the
    // decode happens once at recovery, not once per submission.
    std::string payload_dump;
    if (first_sighting) {
      payload_dump = event.submit_payload->to_json().dump();
    } else if (!meta.payload.is_null()) {
      payload_dump = meta.payload.dump();
    }
    std::string samples_dump;
    if (!meta.samples.is_null()) samples_dump = meta.samples.dump();
    std::string out;
    encode_submit_meta(out, meta, hash, payload_dump, samples_dump);
    return out;
  }
  if (event.build) return event.build().dump();
  return event.data.dump();
}

std::uint64_t JobJournal::enqueue(const std::string& type,
                                  PendingEvent event, common::TimeNs at) {
  const common::TimeNs now = at >= 0 ? at : clock_->now();
  std::uint64_t seq = 0;
  {
    std::unique_lock lock(mutex_);
    seq = next_seq_++;
    last_append_seq_ = seq;
    ++appends_;
    event.seq = seq;
    event.time = now;
    event.type = type;
    if (io_error_.has_value()) {
      // Fail-stop: writing past the first failure would interleave new
      // lines with a torn fragment and poison the whole file for replay.
      return seq;
    }
    if (options_.sync == SyncMode::kAlways) {
      std::string frame;
      encode_frame(frame, seq, now, type, serialize_pending(event));
      Status wrote = Status::ok_status();
      {
        std::scoped_lock io(io_mutex_);
        wrote = write_block(frame, /*sync=*/true);
      }
      if (!wrote.ok()) {
        QCENV_LOG(Error) << "journal write failed: " << wrote.to_string();
        fail_locked(wrote.error());
        durable_cv_.notify_all();
        return seq;
      }
      file_bytes_ += frame.size();
      ++file_events_;
      ++fsyncs_;
      written_seq_ = durable_seq_ = seq;
      if (fsyncs_counter_ != nullptr) fsyncs_counter_->increment();
    } else {
      pending_.push_back(std::move(event));
      if (pending_.size() >= options_.group_commit_max_batch) {
        work_cv_.notify_one();
      }
    }
  }
  if (appends_counter_ != nullptr) appends_counter_->increment();
  return seq;
}

Status JobJournal::flush() {
  if (fd_ < 0) return common::err::failed_precondition("journal not open");
  std::unique_lock lock(mutex_);
  if (io_error_.has_value()) return *io_error_;
  // Target what was appended, not the raw counter: reserve_through() may
  // have advanced next_seq_ past anything that will ever hit the disk.
  const std::uint64_t target = last_append_seq_;
  if (durable_seq_ >= target) return Status::ok_status();
  if (options_.sync == SyncMode::kAlways) return Status::ok_status();
  flush_requested_ = true;
  work_cv_.notify_all();
  durable_cv_.wait(lock, [&] {
    return durable_seq_ >= target || io_error_.has_value() || stop_;
  });
  if (io_error_.has_value()) return *io_error_;
  return Status::ok_status();
}

std::optional<common::Error> JobJournal::io_error() const {
  std::scoped_lock lock(mutex_);
  return io_error_;
}

bool JobJournal::is_durable(std::uint64_t seq) const {
  std::scoped_lock lock(mutex_);
  return durable_seq_ >= seq;
}

void JobJournal::fail_locked(common::Error error) {
  if (io_error_.has_value()) return;
  io_error_ = std::move(error);
  failed_.store(true, std::memory_order_release);
  if (failed_gauge_ != nullptr) failed_gauge_->set(1);
  if (events_ != nullptr) {
    events_->log(clock_->now(), telemetry::Severity::kError,
                 "journal_fail_stop", io_error_->to_string());
  }
  // After the event is logged, so a flight-recorder dump triggered here
  // captures the journal_fail_stop event itself.
  if (fail_hook_) fail_hook_(io_error_->to_string());
}

void JobJournal::reserve_through(std::uint64_t seq) {
  std::scoped_lock lock(mutex_);
  if (next_seq_ <= seq) next_seq_ = seq + 1;
}

std::uint64_t JobJournal::last_seq() const {
  std::scoped_lock lock(mutex_);
  return next_seq_ - 1;
}

std::uint64_t JobJournal::event_count() const {
  std::scoped_lock lock(mutex_);
  return file_events_ + pending_.size();
}

std::uint64_t JobJournal::appends_total() const {
  std::scoped_lock lock(mutex_);
  return appends_;
}

std::uint64_t JobJournal::fsyncs_total() const {
  std::scoped_lock lock(mutex_);
  return fsyncs_;
}

std::uint64_t JobJournal::size_bytes() const {
  std::scoped_lock lock(mutex_);
  // Pending events are not serialized yet; estimate their footprint.
  return file_bytes_ + pending_.size() * 128;
}

Status JobJournal::write_block(const std::string& block, bool sync) {
  const char* data = block.data();
  std::size_t remaining = block.size();
  // Where this block starts: if the fsync below fails, the bytes were
  // written but their durability is unknown — a restart would replay a
  // line the caller is about to be told failed. Compensate by truncating
  // back to this offset (best effort: on a truly dead disk the truncate
  // fails too and the ambiguity is inherent).
  const off_t block_start = ::lseek(fd_, 0, SEEK_END);
  if (FaultInjector* injector = fault_injector()) {
    const FaultDecision decision =
        injector->on_write(FsOp::kJournalWrite, path_, block.size());
    switch (decision.kind) {
      case FaultDecision::Kind::kPass:
        break;
      case FaultDecision::Kind::kFail:
        errno = EIO;
        return make_io_error("cannot append to journal", path_);
      case FaultDecision::Kind::kShortWrite:
        // The torn-tail crash model: part of the block reaches the disk,
        // then the device dies. Whatever lands must really land so replay
        // sees exactly what a crashed daemon would have left behind.
        remaining = decision.bytes;
        break;
    }
    if (decision.kind == FaultDecision::Kind::kShortWrite) {
      while (remaining > 0) {
        const ssize_t wrote = ::write(fd_, data, remaining);
        if (wrote < 0) {
          if (errno == EINTR) continue;
          break;
        }
        data += wrote;
        remaining -= static_cast<std::size_t>(wrote);
      }
      errno = EIO;
      return make_io_error("cannot append to journal", path_);
    }
  }
  while (remaining > 0) {
    const ssize_t wrote = ::write(fd_, data, remaining);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return make_io_error("cannot append to journal", path_);
    }
    data += wrote;
    remaining -= static_cast<std::size_t>(wrote);
  }
  if (sync) {
    FaultInjector* injector = fault_injector();
    const bool injected_failure =
        injector != nullptr && injector->on_fsync(FsOp::kJournalFsync, path_);
    if (injected_failure || ::fsync(fd_) != 0) {
      if (injected_failure) errno = EIO;
      const auto error = make_io_error("fsync failed on journal", path_);
      // The block is fully written but not durable: shear it back off so
      // the file cannot resurrect events whose append was reported
      // failed. (Failed/short write()s are left as-is — that is the
      // disk-died-mid-write crash model, and replay drops the torn tail.)
      if (block_start >= 0) (void)::ftruncate(fd_, block_start);
      return error;
    }
  }
  return Status::ok_status();
}

void JobJournal::writer_loop() {
  const auto interval =
      std::chrono::nanoseconds(options_.group_commit_interval);
  std::unique_lock lock(mutex_);
  while (true) {
    work_cv_.wait_for(lock, interval, [&] {
      return stop_ || flush_requested_ ||
             pending_.size() >= options_.group_commit_max_batch;
    });
    if (heartbeat_) heartbeat_();
    if (pending_.empty()) {
      if (flush_requested_) {
        // Everything is written; make it durable.
        const std::uint64_t target = written_seq_;
        flush_requested_ = false;
        lock.unlock();
        bool synced = false;
        {
          std::scoped_lock io(io_mutex_);
          FaultInjector* injector = fault_injector();
          const bool injected_failure =
              injector != nullptr &&
              injector->on_fsync(FsOp::kJournalFsync, path_);
          if (injected_failure) errno = EIO;
          synced = !injected_failure && fd_ >= 0 && ::fsync(fd_) == 0;
        }
        lock.lock();
        if (synced) {
          ++fsyncs_;
          if (fsyncs_counter_ != nullptr) fsyncs_counter_->increment();
          if (durable_seq_ < target) durable_seq_ = target;
        } else {
          fail_locked(make_io_error("fsync failed on journal", path_));
          QCENV_LOG(Error) << "journal failed: " << io_error_->to_string();
        }
        durable_cv_.notify_all();
      }
      if (stop_) return;
      continue;
    }
    if (io_error_.has_value()) {
      // Fail-stop: drop the batch rather than splice lines after a torn
      // fragment; waiters are told via flush().
      pending_.clear();
      durable_cv_.notify_all();
      if (stop_) return;
      continue;
    }

    // Drain the whole pending batch into one write (and one fsync).
    // Serialization happens here, off every appender's hot path.
    const std::uint64_t target = last_append_seq_;
    const std::uint64_t epoch = rewrite_epoch_;
    std::deque<PendingEvent> batch;
    batch.swap(pending_);
    const std::uint64_t batch_events = batch.size();
    const bool want_sync =
        options_.sync == SyncMode::kGroupCommit || flush_requested_;
    flush_requested_ = false;
    lock.unlock();
    // Serialize and frame the batch (the expensive part: payload bodies,
    // JSON dumps, CRCs) without holding any lock.
    std::string block;
    block.reserve(batch.size() * 128);
    for (const auto& event : batch) {
      encode_frame(block, event.seq, event.time, event.type,
                   serialize_pending(event));
    }
    batch.clear();
    Status wrote = Status::ok_status();
    const auto io_start = std::chrono::steady_clock::now();
    {
      std::scoped_lock io(io_mutex_);
      wrote = write_block(block, want_sync);
    }
    const double io_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      io_start)
            .count();
    if (batch_events_hist_ != nullptr) {
      batch_events_hist_->observe(static_cast<double>(batch_events));
      commit_seconds_hist_->observe(io_seconds);
    }
    if (events_ != nullptr && wrote.ok() && io_seconds >= kFsyncStallSeconds) {
      events_->log(clock_->now(), telemetry::Severity::kWarn, "fsync_stall",
                   "group commit took " + std::to_string(io_seconds) +
                       " s for " + std::to_string(batch_events) +
                       " event(s)");
    }
    lock.lock();
    if (!wrote.ok()) {
      QCENV_LOG(Error) << "journal group write failed: " << wrote.to_string();
      // Nothing past this point is acknowledged: the block may be torn on
      // disk and no further writes will follow it.
      fail_locked(wrote.error());
      durable_cv_.notify_all();
      if (stop_) return;
      continue;
    }
    written_seq_ = target;
    if (rewrite_epoch_ == epoch) {
      file_bytes_ += block.size();
      file_events_ += batch_events;
    } else {
      // A drop_through rewrite raced this block (either side of it):
      // its totals may or may not include us. Bytes re-sync from the
      // file; the event count self-corrects at the next rewrite.
      const off_t size = ::lseek(fd_, 0, SEEK_END);
      if (size >= 0) file_bytes_ = static_cast<std::uint64_t>(size);
    }
    if (want_sync) {
      ++fsyncs_;
      if (fsyncs_counter_ != nullptr) fsyncs_counter_->increment();
      durable_seq_ = target;
      durable_cv_.notify_all();
    }
    if (stop_) return;
  }
}

namespace {

/// Compaction's walk: appends every frame from `pos` with seq > watermark
/// to `kept` as a raw byte copy — no body is decoded, this runs on a live
/// daemon. A torn tail ends the walk (replay drops it too); corruption
/// before the tail is an error — compaction must not silently launder it
/// into a clean-looking file.
Status filter_journal_frames(std::string_view content, std::size_t pos,
                             std::uint64_t watermark, std::string& kept,
                             std::uint64_t& kept_events,
                             const std::string& path) {
  while (pos < content.size()) {
    const Frame frame = check_frame(content, pos);
    if (frame.verdict == FrameVerdict::kTornTail) break;
    if (frame.verdict == FrameVerdict::kCorrupt) {
      return common::err::protocol("corrupt journal frame in '" + path +
                                   "' found during compaction: " +
                                   frame.defect);
    }
    if (frame.seq > watermark) {
      kept.append(content.substr(pos, frame.end - pos));
      ++kept_events;
    }
    pos = frame.end;
  }
  return Status::ok_status();
}

}  // namespace

Status JobJournal::drop_through(std::uint64_t watermark) {
  QCENV_RETURN_IF_ERROR(flush());
  // Phase 1 — no locks held: filter everything currently in the file.
  // The journal is append-only between compactions (drop_through calls
  // are serialized by StateStore's compact mutex, and fail-stop means an
  // errored fd is never written again), and the writer only writes whole
  // blocks of complete frames under io_mutex_, so the size sampled here
  // is a stable event boundary. Appends keep flowing while we filter.
  std::uint64_t stable_bytes = 0;
  {
    std::scoped_lock io(io_mutex_);
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    stable_bytes = size > 0 ? static_cast<std::uint64_t>(size) : 0;
  }
  std::string kept(kMagicV2, kMagicLen);
  std::uint64_t kept_events = 0;
  {
    const std::string content = read_range(path_, 0, stable_bytes);
    QCENV_RETURN_IF_ERROR(check_magic(content, path_));
    QCENV_RETURN_IF_ERROR(filter_journal_frames(
        content, std::min(content.size(), kMagicLen), watermark, kept,
        kept_events, path_));
  }

  // Phase 2 — under the locks: fold in the (small) suffix appended while
  // phase 1 ran, then swap the compacted file in. Appenders block only
  // for this delta, not for the full-journal rewrite.
  std::scoped_lock lock(mutex_);
  std::scoped_lock io(io_mutex_);
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  const std::uint64_t total_bytes =
      end > 0 ? static_cast<std::uint64_t>(end) : 0;
  if (total_bytes > stable_bytes) {
    const std::string delta =
        read_range(path_, stable_bytes, total_bytes - stable_bytes);
    QCENV_RETURN_IF_ERROR(filter_journal_frames(delta, 0, watermark, kept,
                                                kept_events, path_));
  }

  QCENV_RETURN_IF_ERROR(write_file_atomic(path_, kept));
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0600);
  if (fd_ < 0) return make_io_error("cannot reopen compacted journal", path_);
  ++fsyncs_;
  // Invalidate any writer-thread counter update that raced this rewrite:
  // a block written just before we took io_mutex_ is already included in
  // `kept`, and the writer must not add it again after we release.
  ++rewrite_epoch_;
  // The rewrite moved every surviving frame; replication followers fall
  // back to a full scan (and a snapshot catch-up if their cursor now
  // precedes the compacted watermark).
  ship_cursor_seq_ = 0;
  ship_cursor_offset_ = 0;
  file_bytes_ = kept.size();
  file_events_ = kept_events;
  {
    // The dropped prefix may have held payload-defining events; the
    // snapshot that justified this truncation carries those payloads, so
    // future submissions must re-embed on first sighting.
    std::scoped_lock payloads(payload_mutex_);
    embedded_payloads_.clear();
  }
  return Status::ok_status();
}

namespace {

/// Shared frame walk for segment shipping: collects whole valid frames
/// with seq in (after_seq, durable_cap] into `segment`, stopping
/// collection (but not the walk — durable_seq must still reflect the full
/// scanned prefix) once ~max_bytes are gathered. `content` starts at a
/// frame boundary, magic already skipped. A torn or corrupt frame ends
/// the walk: only the clean prefix ships, and replay on the follower
/// applies the same frame verdicts the leader would. With `check_gap`, a
/// cursor below the first frame's predecessor flags snapshot_needed —
/// the events between were compacted away.
void scan_segment_frames(std::string_view content, std::uint64_t after_seq,
                         std::uint64_t max_bytes, std::uint64_t durable_cap,
                         bool check_gap, WalSegment& segment,
                         std::uint64_t& served_end,
                         std::uint64_t& first_seen) {
  std::size_t pos = 0;
  first_seen = 0;
  bool collecting = true;
  while (pos < content.size()) {
    const Frame frame = check_frame(content, pos);
    if (frame.verdict != FrameVerdict::kClean) break;
    const std::uint64_t seq = frame.seq;
    if (seq > durable_cap) break;
    if (first_seen == 0) first_seen = seq;
    segment.durable_seq = std::max(segment.durable_seq, seq);
    if (collecting && seq > after_seq) {
      if (!segment.bytes.empty() &&
          segment.bytes.size() + (frame.end - pos) > max_bytes) {
        collecting = false;
      } else {
        if (segment.first_seq == 0) segment.first_seq = seq;
        segment.end_seq = seq;
        segment.bytes.append(content.substr(pos, frame.end - pos));
        served_end = frame.end;
      }
    }
    pos = frame.end;
  }
  if (check_gap && first_seen > 0 && after_seq + 1 < first_seen) {
    segment.snapshot_needed = true;
    segment.first_seq = 0;
    segment.end_seq = 0;
    segment.bytes.clear();
    served_end = 0;
  }
}

}  // namespace

Result<WalSegment> JobJournal::read_segment(std::uint64_t after_seq,
                                            std::uint64_t max_bytes) {
  std::uint64_t durable = 0;
  {
    std::scoped_lock lock(mutex_);
    durable = durable_seq_;
  }
  if (fd_ < 0) {
    return common::err::failed_precondition("journal is not open");
  }
  WalSegment segment;
  segment.durable_seq = durable;
  std::scoped_lock io(io_mutex_);
  std::uint64_t start = kMagicLen;
  bool check_gap = true;
  if (after_seq != 0 && after_seq == ship_cursor_seq_ &&
      ship_cursor_offset_ >= kMagicLen) {
    start = ship_cursor_offset_;
    check_gap = false;  // the cursor is known-contiguous with after_seq
  }
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  const std::uint64_t file_size = end > 0 ? static_cast<std::uint64_t>(end)
                                          : 0;
  if (file_size < start) {
    // Stale cursor (should not happen — compaction resets it); rescan.
    start = kMagicLen;
    check_gap = true;
  }
  if (file_size <= start) {
    // Durable events above the cursor with an empty journal means
    // compaction folded them into the snapshot — the follower must
    // bridge the gap there, not wait for frames that will never appear.
    if (check_gap && durable > after_seq) segment.snapshot_needed = true;
    return segment;
  }
  const std::string content = read_range(path_, start, file_size - start);
  std::uint64_t served_end = 0;
  std::uint64_t first_seen = 0;
  scan_segment_frames(content, after_seq, max_bytes, durable, check_gap,
                      segment, served_end, first_seen);
  segment.durable_seq = durable;
  if (check_gap && first_seen == 0 && durable > after_seq) {
    // Same compacted-away case, but the file still holds the magic header
    // plus torn bytes only.
    segment.snapshot_needed = true;
  }
  if (segment.end_seq != 0) {
    ship_cursor_seq_ = segment.end_seq;
    ship_cursor_offset_ = start + served_end;
    segment.next_offset = ship_cursor_offset_;
  }
  return segment;
}

Result<WalSegment> JobJournal::read_segment_file(const std::string& path,
                                                 std::uint64_t after_seq,
                                                 std::uint64_t max_bytes) {
  WalSegment segment;
  const std::string content = read_all(path);
  QCENV_RETURN_IF_ERROR(check_magic(content, path));
  if (content.size() <= kMagicLen) return segment;
  std::uint64_t served_end = 0;
  std::uint64_t first_seen = 0;
  scan_segment_frames(std::string_view(content).substr(kMagicLen),
                      after_seq, max_bytes,
                      std::numeric_limits<std::uint64_t>::max(), true,
                      segment, served_end, first_seen);
  if (served_end > 0) segment.next_offset = kMagicLen + served_end;
  return segment;
}

JobJournal::FramePrefix JobJournal::validate_frames(std::string_view bytes,
                                                    std::uint64_t after_seq) {
  FramePrefix prefix;
  std::uint64_t last_seq = after_seq;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const Frame frame = check_frame(bytes, pos);
    if (frame.verdict != FrameVerdict::kClean) break;
    if (frame.seq <= last_seq) break;  // out of order / replayed frame
    last_seq = frame.seq;
    pos = frame.end;
    prefix.bytes = pos;
    ++prefix.frames;
    prefix.end_seq = frame.seq;
  }
  return prefix;
}

Result<std::vector<JournalEntry>> JobJournal::read_file(
    const std::string& path, std::uint64_t* complete_prefix_bytes) {
  if (complete_prefix_bytes != nullptr) *complete_prefix_bytes = 0;
  std::vector<JournalEntry> entries;
  const std::string content = read_all(path);
  if (content.empty()) return entries;  // absent = empty
  QCENV_RETURN_IF_ERROR(check_magic(content, path));
  if (content.size() < kMagicLen) {
    QCENV_LOG(Warn) << "dropping torn journal header (" << content.size()
                    << " byte(s)) of '" << path << "'";
    return entries;  // prefix 0: open() truncates back to an empty file
  }
  // A frame that runs past EOF or fails its CRC as the final frame is a
  // torn tail (dropped; the prefix stops before it); anything else that is
  // not clean is corruption, reported at that frame boundary.
  std::size_t pos = kMagicLen;
  std::size_t frame_index = 0;
  while (pos < content.size()) {
    ++frame_index;
    const Frame frame = check_frame(content, pos);
    if (frame.verdict == FrameVerdict::kTornTail) {
      QCENV_LOG(Warn) << "dropping torn journal tail frame " << frame_index
                      << " of '" << path << "' (" << frame.defect << ", "
                      << (content.size() - pos) << " byte(s))";
      break;
    }
    const auto corrupt = [&](const std::string& what) {
      return common::err::protocol("corrupt journal frame " +
                                   std::to_string(frame_index) + " of '" +
                                   path + "': " + what);
    };
    if (frame.verdict == FrameVerdict::kCorrupt) return corrupt(frame.defect);
    JournalEntry entry;
    entry.seq = frame.seq;
    entry.time = frame.time;
    entry.type = frame.type;
    if (!frame.body.empty() && frame.body[0] == kSubmitMetaMarker) {
      auto decoded = decode_submit_meta(frame.body);
      if (!decoded.ok()) {
        return corrupt("undecodable binary body: " +
                       decoded.error().message());
      }
      entry.data = std::move(decoded).value();
    } else {
      auto parsed = Json::parse(frame.body);
      if (!parsed.ok()) {
        return corrupt("invalid JSON data: " + parsed.error().message());
      }
      entry.data = std::move(parsed).value();
    }
    entries.push_back(std::move(entry));
    pos = frame.end;
  }
  if (complete_prefix_bytes != nullptr) *complete_prefix_bytes = pos;
  return entries;
}

}  // namespace qcenv::store

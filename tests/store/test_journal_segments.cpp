// WAL segment shipping: the journal-side half of standby replication.
// read_segment must serve contiguous, CRC-clean v2 frames strictly after
// the follower's cursor and never past the durable watermark; compaction
// gaps must flag snapshot_needed instead of shipping a hole;
// read_segment_file must salvage the clean prefix of a dead leader's torn
// journal and reject a file that is not a QCWAL2 journal; and
// validate_frames — the follower's acceptance check — must reject
// corruption, torn tails, replayed frames and any frame recovery would
// reject.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/temp_dir.hpp"
#include "store/journal.hpp"
#include "wal_bytes.hpp"

namespace qcenv::store {
namespace {

using common::Json;
using common::TempDir;

constexpr std::uint64_t kNoCap = std::numeric_limits<std::uint64_t>::max();

using wal_test::read_raw;
using wal_test::write_raw;

Json event_body(std::uint64_t n) {
  Json data = Json::object();
  data["n"] = static_cast<long long>(n);
  return data;
}

/// A fully-durable v2 journal with `events` appended events.
class SegmentFixture : public ::testing::Test {
 protected:
  void append_events(JobJournal& journal, std::uint64_t events) {
    for (std::uint64_t n = 1; n <= events; ++n) {
      journal.append("segment_test", event_body(n));
    }
    ASSERT_TRUE(journal.flush().ok());
  }

  JournalOptions durable_options() {
    JournalOptions options;
    options.sync = SyncMode::kAlways;  // durable watermark == last append
    return options;
  }

  common::WallClock clock_;
  TempDir dir_{"qcenv-segments-"};
  std::string path_ = dir_.path() + "/journal.log";
};

TEST_F(SegmentFixture, ReadSegmentServesFramesAfterCursor) {
  JobJournal journal(durable_options(), &clock_, nullptr);
  ASSERT_TRUE(journal.open(path_).ok());
  append_events(journal, 5);

  auto segment = journal.read_segment(0, kNoCap);
  ASSERT_TRUE(segment.ok()) << segment.error().to_string();
  EXPECT_FALSE(segment.value().snapshot_needed);
  EXPECT_EQ(segment.value().first_seq, 1u);
  EXPECT_EQ(segment.value().end_seq, 5u);
  EXPECT_EQ(segment.value().durable_seq, 5u);

  // The shipped bytes are exactly the frames the follower's own
  // validation accepts: five of them, ending at the same seq.
  const auto prefix =
      JobJournal::validate_frames(segment.value().bytes, 0);
  EXPECT_EQ(prefix.frames, 5u);
  EXPECT_EQ(prefix.end_seq, 5u);
  EXPECT_EQ(prefix.bytes, segment.value().bytes.size());

  // A cursor mid-stream serves only the remainder.
  auto tail = journal.read_segment(3, kNoCap);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().first_seq, 4u);
  EXPECT_EQ(tail.value().end_seq, 5u);

  // A caught-up cursor serves nothing.
  auto done = journal.read_segment(5, kNoCap);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().first_seq, 0u);
  EXPECT_EQ(done.value().end_seq, 0u);
  EXPECT_TRUE(done.value().bytes.empty());
  EXPECT_EQ(done.value().durable_seq, 5u);
}

TEST_F(SegmentFixture, ChunkedPullsReassembleTheWholeJournal) {
  JobJournal journal(durable_options(), &clock_, nullptr);
  ASSERT_TRUE(journal.open(path_).ok());
  append_events(journal, 20);

  // A tiny max_bytes still makes progress: every pull ships at least one
  // frame, and sequential pulls reassemble the journal without gaps.
  std::string mirror;
  std::uint64_t cursor = 0;
  std::size_t pulls = 0;
  while (cursor < 20) {
    auto segment = journal.read_segment(cursor, 1);
    ASSERT_TRUE(segment.ok());
    ASSERT_GT(segment.value().end_seq, cursor)
        << "pull made no progress at cursor " << cursor;
    ASSERT_EQ(segment.value().first_seq, cursor + 1)
        << "pull skipped frames";
    mirror += segment.value().bytes;
    cursor = segment.value().end_seq;
    ASSERT_LT(++pulls, 100u);
  }
  EXPECT_GT(pulls, 1u) << "cap never split the stream";

  const auto prefix = JobJournal::validate_frames(mirror, 0);
  EXPECT_EQ(prefix.frames, 20u);
  EXPECT_EQ(prefix.end_seq, 20u);
  EXPECT_EQ(prefix.bytes, mirror.size());
}

TEST_F(SegmentFixture, CompactionGapFlagsSnapshotNeeded) {
  JobJournal journal(durable_options(), &clock_, nullptr);
  ASSERT_TRUE(journal.open(path_).ok());
  append_events(journal, 8);
  ASSERT_TRUE(journal.drop_through(5).ok());

  // A follower whose cursor predates the compaction cannot be served from
  // the WAL — the events between were dropped. It must take a snapshot.
  auto stale = journal.read_segment(2, kNoCap);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().snapshot_needed);
  EXPECT_TRUE(stale.value().bytes.empty());

  // A follower at the watermark resumes streaming normally.
  auto resumed = journal.read_segment(5, kNoCap);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed.value().snapshot_needed);
  EXPECT_EQ(resumed.value().first_seq, 6u);
  EXPECT_EQ(resumed.value().end_seq, 8u);
}

TEST_F(SegmentFixture, JsonLinesJournalIsRejected) {
  write_raw(path_,
            "{\"seq\":1,\"t\":10,\"e\":\"job_submitted\",\"d\":{}}\n");
  auto segment = JobJournal::read_segment_file(path_, 0, kNoCap);
  ASSERT_FALSE(segment.ok());
  EXPECT_NE(segment.error().message().find(path_), std::string::npos)
      << segment.error().message();
}

TEST_F(SegmentFixture, ReadSegmentFileSalvagesCleanPrefixOfTornTail) {
  {
    JobJournal journal(durable_options(), &clock_, nullptr);
    ASSERT_TRUE(journal.open(path_).ok());
    append_events(journal, 6);
  }
  // Tear the dead leader's journal mid-frame: cut the last 5 bytes and
  // corrupt the new final byte, as a crash mid-write would.
  std::string content = read_raw(path_);
  ASSERT_GT(content.size(), 5u);
  content.resize(content.size() - 5);
  content.back() = static_cast<char>(content.back() ^ 0x5a);
  write_raw(path_, content);

  auto segment = JobJournal::read_segment_file(path_, 0, kNoCap);
  ASSERT_TRUE(segment.ok()) << segment.error().to_string();
  EXPECT_FALSE(segment.value().snapshot_needed);
  EXPECT_EQ(segment.value().first_seq, 1u);
  EXPECT_EQ(segment.value().end_seq, 5u) << "torn final frame shipped";

  const auto prefix =
      JobJournal::validate_frames(segment.value().bytes, 0);
  EXPECT_EQ(prefix.frames, 5u);
  EXPECT_EQ(prefix.end_seq, 5u);
}

TEST_F(SegmentFixture, ReadSegmentFileRejectsUnknownHeader) {
  write_raw(path_, "not a journal at all");
  auto segment = JobJournal::read_segment_file(path_, 0, kNoCap);
  EXPECT_FALSE(segment.ok());
}

TEST_F(SegmentFixture, ValidateFramesRejectsCorruptionAndReplay) {
  JobJournal journal(durable_options(), &clock_, nullptr);
  ASSERT_TRUE(journal.open(path_).ok());
  append_events(journal, 4);
  auto segment = journal.read_segment(0, kNoCap);
  ASSERT_TRUE(segment.ok());
  const std::string frames = segment.value().bytes;

  // The journal file is magic + frames, nothing else.
  EXPECT_EQ(read_raw(path_),
            std::string(wal_v2_magic()) + frames);

  // Clean buffer: all four frames accepted.
  auto clean = JobJournal::validate_frames(frames, 0);
  EXPECT_EQ(clean.frames, 4u);
  EXPECT_EQ(clean.end_seq, 4u);

  // Torn tail: the clean prefix survives, the partial frame does not.
  auto torn = JobJournal::validate_frames(
      std::string_view(frames).substr(0, frames.size() - 3), 0);
  EXPECT_EQ(torn.frames, 3u);
  EXPECT_EQ(torn.end_seq, 3u);

  // A flipped byte mid-stream fails that frame's CRC and ends the prefix
  // there — nothing after a corrupt frame is trusted.
  std::string corrupt = frames;
  corrupt[corrupt.size() / 2] ^= 0x40;
  auto cut = JobJournal::validate_frames(corrupt, 0);
  EXPECT_LT(cut.frames, 4u);

  // Replayed frames (seq at or below the cursor) are rejected outright:
  // a chunk that starts at seq 1 is no use to a follower already at 4.
  auto replayed = JobJournal::validate_frames(frames, 4);
  EXPECT_EQ(replayed.frames, 0u);
  EXPECT_EQ(replayed.end_seq, 0u);
}

TEST_F(SegmentFixture, ValidateFramesStopsWhereRecoveryWouldFail) {
  // A shipped frame whose CRC is valid but whose declared type length
  // runs past the frame: recovery rejects it, so the follower must not
  // append it to its mirror (promotion would then fail to replay).
  const std::string good_1 = wal_test::frame(1, "segment_test", "{}");
  const std::string bad = wal_test::frame(2, "segment_test", "{}", 4096);
  const std::string good_3 = wal_test::frame(3, "segment_test", "{}");
  const std::string shipped = good_1 + bad + good_3;

  const auto prefix = JobJournal::validate_frames(shipped, 0);
  EXPECT_EQ(prefix.frames, 1u);
  EXPECT_EQ(prefix.bytes, good_1.size());
  EXPECT_EQ(prefix.end_seq, 1u);

  // The same bytes as a journal file: replay names the frame, shipping
  // serves only the frame before it.
  write_raw(path_, std::string(wal_v2_magic()) + shipped);
  auto replay = JobJournal::read_file(path_);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.error().message().find("frame 2"), std::string::npos)
      << replay.error().message();
  auto segment = JobJournal::read_segment_file(path_, 0, kNoCap);
  ASSERT_TRUE(segment.ok()) << segment.error().to_string();
  EXPECT_EQ(segment.value().end_seq, 1u);
  EXPECT_EQ(segment.value().bytes, good_1);
}

}  // namespace
}  // namespace qcenv::store

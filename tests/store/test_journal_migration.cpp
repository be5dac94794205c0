// Journal on-disk format: a file without the QCWAL2 magic (a JSON-lines
// journal included) is rejected and left byte-identical; compaction
// keeps frames byte for byte; corrupt frames are rejected at their frame
// boundary; and the binary job_submitted body decodes to exactly the
// record's JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/temp_dir.hpp"
#include "quantum/payload.hpp"
#include "store/journal.hpp"
#include "store/recovery.hpp"
#include "store/records.hpp"
#include "wal_bytes.hpp"

namespace qcenv::store {
namespace {

using common::Json;
using common::TempDir;

using wal_test::frame_offsets;
using wal_test::kFrameHeaderLen;
using wal_test::read_raw;
using wal_test::write_raw;

quantum::Payload small_payload(std::uint64_t shots) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(50, 2.0),
                               quantum::Waveform::constant(50, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, shots);
}

TEST(JournalMigration, JsonLinesFileIsRejectedAndLeftIntact) {
  TempDir dir("qcenv-migration-");
  const std::string path = dir.path() + "/journal.log";
  const std::string lines =
      "{\"seq\":1,\"t\":10,\"e\":\"job_evicted\",\"d\":{\"id\":7}}\n";
  write_raw(path, lines);

  auto entries = JobJournal::read_file(path);
  ASSERT_FALSE(entries.ok());
  EXPECT_NE(entries.error().message().find(path), std::string::npos)
      << entries.error().message();

  common::WallClock clock;
  JournalOptions options;
  options.sync = SyncMode::kAlways;
  JobJournal journal(options, &clock, nullptr);
  EXPECT_FALSE(journal.open(path).ok());
  EXPECT_EQ(read_raw(path), lines) << "open must never rewrite a foreign file";
}

TEST(JournalMigration, CompactionKeepingEverythingIsByteIdentical) {
  TempDir dir("qcenv-migration-");
  const std::string path = dir.path() + "/journal.log";
  common::WallClock clock;
  JournalOptions options;
  options.sync = SyncMode::kAlways;
  JobJournal journal(options, &clock, nullptr);
  ASSERT_TRUE(journal.open(path).ok());
  JobRecord job;
  job.id = 7;
  job.session = 1;
  job.user = "alice";
  job.total_shots = 100;
  job.submit_time = 10;
  journal.append_job_submitted(
      job, std::make_shared<const quantum::Payload>(small_payload(100)));
  journal.append("batch_dispatched",
                 Json::parse(R"({"id":7,"resource":"emu0","shots":100})")
                     .value());
  journal.append("batch_done", Json::parse(R"({"id":7,"shots":100})").value());
  journal.append("job_completed", Json::parse(R"({"id":7})").value());

  const std::string raw_before = read_raw(path);
  auto before = JobJournal::read_file(path);
  ASSERT_TRUE(before.ok()) << before.error().to_string();
  ASSERT_EQ(before.value().size(), 4u);

  ASSERT_TRUE(journal.drop_through(0).ok());  // keep everything
  EXPECT_EQ(read_raw(path), raw_before)
      << "compaction must copy kept frames as raw bytes";
  EXPECT_EQ(journal.event_count(), 4u);

  auto after = JobJournal::read_file(path);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), before.value().size());
  for (std::size_t i = 0; i < after.value().size(); ++i) {
    EXPECT_EQ(after.value()[i].seq, before.value()[i].seq);
    EXPECT_EQ(after.value()[i].type, before.value()[i].type);
    EXPECT_EQ(after.value()[i].data.dump(), before.value()[i].data.dump())
        << "event " << i << " must replay identically after compaction";
  }

  // The replayer agrees: same recovered job either way.
  RecoveredState replayed =
      RecoveryReplayer::apply(std::nullopt, after.value());
  ASSERT_EQ(replayed.jobs.size(), 1u);
  EXPECT_EQ(replayed.jobs[0].id, 7u);
  EXPECT_EQ(replayed.jobs[0].phase, JobPhase::kCompleted);
  EXPECT_EQ(replayed.jobs[0].shots_done, 100u);
}

TEST(JournalMigration, CorruptCrcFrameIsRejectedAtItsBoundary) {
  TempDir dir("qcenv-migration-");
  const std::string path = dir.path() + "/journal.wal";
  common::WallClock clock;
  {
    JournalOptions options;
    options.sync = SyncMode::kAlways;
    JobJournal journal(options, &clock, nullptr);
    ASSERT_TRUE(journal.open(path).ok());
    for (int i = 1; i <= 3; ++i) {
      Json data = Json::object();
      data["id"] = i;
      journal.append("job_evicted", std::move(data));
    }
  }
  std::string content = read_raw(path);
  const std::vector<std::size_t> offsets = frame_offsets(content);
  ASSERT_EQ(offsets.size(), 3u);

  // Flip one payload byte of the MIDDLE frame: corruption before the
  // tail must be an error naming the frame, not a silent truncation that
  // also discards the intact frame after it.
  std::string corrupted = content;
  corrupted[offsets[1] + kFrameHeaderLen + 2] ^= 0x40;
  write_raw(path, corrupted);
  auto entries = JobJournal::read_file(path);
  ASSERT_FALSE(entries.ok());
  EXPECT_NE(entries.error().message().find("frame 2"), std::string::npos)
      << entries.error().message();

  // The same flip in the FINAL frame is indistinguishable from a torn
  // tail: dropped, everything before it replays.
  corrupted = content;
  corrupted[offsets[2] + kFrameHeaderLen + 2] ^= 0x40;
  write_raw(path, corrupted);
  entries = JobJournal::read_file(path);
  ASSERT_TRUE(entries.ok()) << entries.error().to_string();
  EXPECT_EQ(entries.value().size(), 2u);
}

TEST(JournalMigration, BinaryBodyMatchesJsonBodyExactly) {
  TempDir dir("qcenv-migration-");
  common::WallClock clock;
  const auto payload =
      std::make_shared<const quantum::Payload>(small_payload(64));
  JobRecord meta;
  meta.id = 1;
  meta.session = 2;
  meta.user = "alice";
  meta.job_class = daemon::JobClass::kProduction;
  meta.total_shots = 64;
  meta.submit_time = 1234;
  meta.resource = "emu0";
  meta.policy = "round_robin";
  JobRecord second = meta;
  second.id = 2;

  JournalOptions options;
  options.sync = SyncMode::kAlways;
  JobJournal journal(options, &clock, nullptr);
  const std::string path = dir.path() + "/journal.wal";
  ASSERT_TRUE(journal.open(path).ok());
  // Two submissions of the same program: the first embeds the payload
  // body, the second dedups to the fingerprint.
  journal.append_job_submitted(meta, payload);
  journal.append_job_submitted(second, payload);
  auto entries = JobJournal::read_file(path);
  ASSERT_TRUE(entries.ok()) << entries.error().to_string();
  ASSERT_EQ(entries.value().size(), 2u);

  // The reference is the record's own JSON plus the payload fingerprint
  // and, on first sighting only, the payload itself.
  const auto fingerprint =
      static_cast<long long>(payload_fingerprint(*payload));
  const auto expected = [&](const JobRecord& record, bool embeds) {
    Json job = record.to_json();
    job["payload_hash"] = fingerprint;
    if (embeds) job["payload"] = payload->to_json();
    Json data = Json::object();
    data["job"] = std::move(job);
    return data.dump();
  };
  EXPECT_EQ(entries.value()[0].data.dump(), expected(meta, true));
  EXPECT_EQ(entries.value()[1].data.dump(), expected(second, false));
}

TEST(JournalMigration, MalformedBinaryBodyIsRejectedAtItsFrame) {
  TempDir dir("qcenv-migration-");
  const std::string path = dir.path() + "/journal.wal";
  common::WallClock clock;
  {
    JournalOptions options;
    options.sync = SyncMode::kAlways;
    JobJournal journal(options, &clock, nullptr);
    ASSERT_TRUE(journal.open(path).ok());
    Json data = Json::object();
    data["id"] = 1;
    journal.append("job_evicted", std::move(data));
  }
  // Hand-craft a frame whose CRC is valid but whose body is a truncated
  // binary record (marker byte then garbage): the decoder, not the CRC,
  // must reject it, and the error must name this frame.
  std::string content = read_raw(path);
  const std::string frame =
      wal_test::frame(2, "job_submitted", std::string("\x01") + "junk");
  // Mid-file position: append one more valid-looking frame after it so
  // the rejection cannot masquerade as a dropped torn tail.
  write_raw(path, content + frame + frame);
  auto entries = JobJournal::read_file(path);
  ASSERT_FALSE(entries.ok());
  EXPECT_NE(entries.error().message().find("frame 2"), std::string::npos)
      << entries.error().message();
  EXPECT_NE(entries.error().message().find("binary"), std::string::npos)
      << entries.error().message();
}

}  // namespace
}  // namespace qcenv::store

// Seeded mutation test of the WAL boundary. The seed is a real journal:
// a binary job_submitted body that embeds its payload, a second one that
// dedups to the fingerprint, and JSON-bodied events. Every truncation
// length and every single-bit and whole-byte flip of it goes through the
// four frame walkers. Nothing may crash, and replay (read_file) is the
// reference: when it accepts a file, the follower's validate_frames,
// post-mortem shipping (read_segment_file) and compaction (drop_through)
// keep exactly its frames; when it rejects frame k, they keep the k - 1
// frames before it or fail. CI also runs this target under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/temp_dir.hpp"
#include "quantum/payload.hpp"
#include "store/journal.hpp"
#include "store/records.hpp"
#include "wal_bytes.hpp"

namespace qcenv::store {
namespace {

using common::Json;
using common::TempDir;
using wal_test::kMagicLen;
using wal_test::read_raw;
using wal_test::write_raw;

constexpr std::uint64_t kNoCap = std::numeric_limits<std::uint64_t>::max();

quantum::Payload small_payload(std::uint64_t shots) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(40, 1.5),
                               quantum::Waveform::constant(40, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, shots);
}

/// The frame a read_file error names ("... journal frame k of ..."), or 0
/// when it names none (the file does not start with the magic).
std::size_t named_frame(const std::string& message) {
  const std::string marker = "journal frame ";
  const auto at = message.find(marker);
  if (at == std::string::npos) return 0;
  return std::stoul(message.substr(at + marker.size()));
}

class WalMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    JournalOptions options;
    options.sync = SyncMode::kAlways;
    const std::string seed_path = dir_.path() + "/seed.wal";
    {
      JobJournal journal(options, &clock_, nullptr);
      ASSERT_TRUE(journal.open(seed_path).ok());
      const auto payload =
          std::make_shared<const quantum::Payload>(small_payload(20));
      JobRecord job;
      job.id = 1;
      job.session = 1;
      job.user = "alice";
      job.total_shots = 20;
      job.resource = "emu0";
      journal.append_job_submitted(job, payload);  // embeds the payload
      job.id = 2;
      journal.append_job_submitted(job, payload);  // dedups to its hash
      journal.append("batch_done",
                     Json::parse(R"({"id":1,"shots":20})").value());
      journal.append("job_completed", Json::parse(R"({"id":1})").value());
    }
    seed_ = read_raw(seed_path);
    const auto entries = JobJournal::read_file(seed_path);
    ASSERT_TRUE(entries.ok()) << entries.error().to_string();
    ASSERT_EQ(entries.value().size(), 4u);
    ASSERT_TRUE(entries.value()[0].data.at_or_null("job").at_or_null(
        "payload").is_object())
        << "the seed must carry a binary body with an embedded payload";
    boundaries_ = wal_test::frame_offsets(seed_);
    boundaries_.push_back(seed_.size());

    // One live journal compacts every mutant: each case rewrites its file
    // in place (the journal's descriptor follows the inode) and calls
    // drop_through(0), which walks whatever bytes it finds there.
    compactor_path_ = dir_.path() + "/compactor.wal";
    write_raw(compactor_path_, seed_);
    compactor_ = std::make_unique<JobJournal>(options, &clock_, nullptr);
    ASSERT_TRUE(compactor_->open(compactor_path_).ok());
  }

  /// The seed's magic plus its first `frames` frames.
  std::string seed_prefix(std::size_t frames) const {
    return seed_.substr(0, boundaries_[frames]);
  }

  void check(const std::string& mutant, const std::string& what) {
    SCOPED_TRACE(what);
    write_raw(probe_path_, mutant);
    const auto replay = JobJournal::read_file(probe_path_);
    bool header_ok = true;
    std::size_t frames = 0;
    if (replay.ok()) {
      frames = replay.value().size();
    } else {
      const std::size_t k = named_frame(replay.error().message());
      header_ok = k > 0;
      frames = header_ok ? k - 1 : 0;
    }
    ASSERT_LT(frames, boundaries_.size());
    const std::string kept = seed_prefix(frames).substr(kMagicLen);

    // The follower's check sees shipped bytes, which carry no header.
    if (header_ok) {
      const auto prefix = JobJournal::validate_frames(
          std::string_view(mutant).substr(std::min(kMagicLen, mutant.size())),
          0);
      EXPECT_EQ(prefix.frames, frames);
      EXPECT_EQ(prefix.bytes, kept.size());
    }

    const auto segment = JobJournal::read_segment_file(probe_path_, 0, kNoCap);
    if (segment.ok()) {
      EXPECT_TRUE(header_ok) << "shipping served a file replay rejects";
      EXPECT_EQ(segment.value().bytes, kept);
    } else {
      EXPECT_FALSE(replay.ok()) << segment.error().to_string();
    }

    write_raw(compactor_path_, mutant);
    const common::Status compacted = compactor_->drop_through(0);
    if (compacted.ok()) {
      EXPECT_EQ(read_raw(compactor_path_), seed_prefix(frames));
    } else {
      EXPECT_FALSE(replay.ok()) << compacted.to_string();
    }
  }

  common::WallClock clock_;
  TempDir dir_{"qcenv-wal-mutation-"};
  std::string probe_path_ = dir_.path() + "/probe.wal";
  std::string compactor_path_;
  std::unique_ptr<JobJournal> compactor_;
  std::string seed_;
  /// Offset of every frame of the seed, then its size: boundaries_[i] is
  /// where the seed's first i frames end.
  std::vector<std::size_t> boundaries_;
};

TEST_F(WalMutation, EveryTruncationKeepsTheWholeFramesBeforeTheCut) {
  for (std::size_t length = 0; length < seed_.size(); ++length) {
    check(seed_.substr(0, length), "truncated to " + std::to_string(length));
    if (HasFatalFailure()) return;
  }
}

TEST_F(WalMutation, EveryByteFlipIsCaughtAtItsFrame) {
  const unsigned char masks[] = {0x01, 0x02, 0x04, 0x08,
                                 0x10, 0x20, 0x40, 0x80, 0xFF};
  for (std::size_t at = 0; at < seed_.size(); ++at) {
    for (const unsigned char mask : masks) {
      std::string mutant = seed_;
      mutant[at] = static_cast<char>(mutant[at] ^ mask);
      check(mutant, "byte " + std::to_string(at) + " ^ " +
                        std::to_string(static_cast<int>(mask)));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace qcenv::store

// Durable state store: journal append/flush/compaction, snapshot
// round-trips and the recovery replayer's semantics.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "accounting/accounting.hpp"
#include "broker/broker.hpp"
#include "common/temp_dir.hpp"
#include "daemon/dispatcher.hpp"
#include "qrmi/local_emulator.hpp"
#include "quantum/payload.hpp"
#include "quantum/samples.hpp"
#include "store/fsio.hpp"
#include "store/journal.hpp"
#include "store/recovery.hpp"
#include "store/snapshot.hpp"
#include "store/state_store.hpp"

namespace qcenv::store {
namespace {

using common::Json;
using common::ManualClock;

using common::TempDir;

Json event_payload(int value) {
  Json data = Json::object();
  data["value"] = value;
  return data;
}

quantum::Payload small_payload(std::uint64_t shots) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(200, 2.0),
                               quantum::Waveform::constant(200, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, shots);
}

Json samples_json(std::uint64_t zeros, std::uint64_t ones) {
  quantum::Samples samples(2);
  if (zeros > 0) samples.record("00", zeros);
  if (ones > 0) samples.record("11", ones);
  return samples.to_json();
}

JobRecord make_job(std::uint64_t id, std::uint64_t shots) {
  JobRecord job;
  job.id = id;
  job.session = 1;
  job.user = "alice";
  job.job_class = daemon::JobClass::kTest;
  job.total_shots = shots;
  job.submit_time = 123;
  job.payload = small_payload(shots).to_json();
  return job;
}

JournalEntry event(std::uint64_t seq, const std::string& type, Json data) {
  JournalEntry entry;
  entry.seq = seq;
  entry.time = static_cast<common::TimeNs>(seq) * 10;
  entry.type = type;
  entry.data = std::move(data);
  return entry;
}

Json job_event(const JobRecord& job) {
  Json data = Json::object();
  data["job"] = job.to_json();
  return data;
}

Json id_event(std::uint64_t id) {
  Json data = Json::object();
  data["id"] = id;
  return data;
}

Json batch_done_event(std::uint64_t id, std::uint64_t shots, Json samples) {
  Json data = Json::object();
  data["id"] = id;
  data["shots"] = shots;
  data["final"] = false;
  data["samples"] = std::move(samples);
  return data;
}

// ---- JobJournal -------------------------------------------------------------

TEST(JobJournalTest, GroupCommitAppendFlushReadback) {
  TempDir dir;
  ManualClock clock;
  JournalOptions options;
  options.sync = SyncMode::kGroupCommit;
  JobJournal journal(options, &clock, nullptr);
  ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
  for (int i = 1; i <= 100; ++i) {
    EXPECT_EQ(journal.append("test_event", event_payload(i)),
              static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(journal.flush().ok());
  EXPECT_EQ(journal.appends_total(), 100u);
  EXPECT_GE(journal.fsyncs_total(), 1u);
  // Group commit must not degenerate into one fsync per append.
  EXPECT_LT(journal.fsyncs_total(), 100u);
  EXPECT_EQ(journal.last_seq(), 100u);

  auto entries = JobJournal::read_file(dir.file("journal.log"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 100u);
  EXPECT_EQ(entries.value().front().seq, 1u);
  EXPECT_EQ(entries.value().front().type, "test_event");
  EXPECT_EQ(entries.value().front().data.at_or_null("value").as_int(), 1);
  EXPECT_EQ(entries.value().back().seq, 100u);
}

TEST(JobJournalTest, FailStopSetsStickyErrorAndFailureGauge) {
  TempDir dir;
  ManualClock clock;
  telemetry::MetricsRegistry metrics;
  JournalOptions options;
  options.sync = SyncMode::kAlways;
  JobJournal journal(options, &clock, &metrics);
  ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
  EXPECT_EQ(metrics.gauge("store_journal_failed").value(), 0.0);

  // Cap the file size so a large append's write() fails with EFBIG — the
  // portable way to make a real fd fail mid-run. SIGXFSZ must be ignored
  // or the kernel kills the process instead of failing the write.
  signal(SIGXFSZ, SIG_IGN);
  struct rlimit old_limit;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit capped = old_limit;
  capped.rlim_cur = 256;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  Json big = Json::object();
  big["pad"] = std::string(4096, 'x');
  for (int i = 0; i < 4 && !journal.io_error().has_value(); ++i) {
    journal.append("event", big);
  }
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  signal(SIGXFSZ, SIG_DFL);

  ASSERT_TRUE(journal.io_error().has_value());
  EXPECT_EQ(metrics.gauge("store_journal_failed").value(), 1.0);
  EXPECT_FALSE(journal.flush().ok());
  // Fail-stop is sticky: lifting the limit does not resume writes.
  journal.append("event", event_payload(1));
  EXPECT_FALSE(journal.flush().ok());
}

TEST(JobJournalTest, AlwaysModeIsDurableWithoutFlush) {
  TempDir dir;
  ManualClock clock;
  JournalOptions options;
  options.sync = SyncMode::kAlways;
  JobJournal journal(options, &clock, nullptr);
  ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
  for (int i = 0; i < 5; ++i) journal.append("e", event_payload(i));
  // No flush: kAlways fsyncs inline.
  auto entries = JobJournal::read_file(dir.file("journal.log"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 5u);
  EXPECT_EQ(journal.fsyncs_total(), 5u);
}

TEST(JobJournalTest, ReopenContinuesSequenceNumbers) {
  TempDir dir;
  ManualClock clock;
  {
    JobJournal journal({}, &clock, nullptr);
    ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
    journal.append("a", event_payload(1));
    journal.append("a", event_payload(2));
    ASSERT_TRUE(journal.flush().ok());
  }
  JobJournal journal({}, &clock, nullptr);
  ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
  EXPECT_EQ(journal.last_seq(), 2u);
  EXPECT_EQ(journal.append("a", event_payload(3)), 3u);
}

TEST(JobJournalTest, TornTailLineIsDropped) {
  TempDir dir;
  ManualClock clock;
  {
    JobJournal journal({}, &clock, nullptr);
    ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
    journal.append("a", event_payload(1));
    journal.append("a", event_payload(2));
    ASSERT_TRUE(journal.flush().ok());
  }
  {
    // Simulate a crash mid-append: garbage half-line at the tail.
    std::ofstream out(dir.file("journal.log"), std::ios::app);
    out << R"({"seq":3,"t":0,"e":"a","d":{"va)";
  }
  auto entries = JobJournal::read_file(dir.file("journal.log"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 2u);
  // Reopening continues above the surviving tail.
  JobJournal journal({}, &clock, nullptr);
  ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
  EXPECT_EQ(journal.append("a", event_payload(3)), 3u);
}

TEST(JobJournalTest, DropThroughCompactsPrefix) {
  TempDir dir;
  ManualClock clock;
  JobJournal journal({}, &clock, nullptr);
  ASSERT_TRUE(journal.open(dir.file("journal.log")).ok());
  for (int i = 1; i <= 10; ++i) journal.append("a", event_payload(i));
  const std::uint64_t before = journal.size_bytes();
  ASSERT_TRUE(journal.drop_through(7).ok());
  EXPECT_LT(journal.size_bytes(), before);
  EXPECT_EQ(journal.event_count(), 3u);
  auto entries = JobJournal::read_file(dir.file("journal.log"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 3u);
  EXPECT_EQ(entries.value().front().seq, 8u);
  // Appends continue with unbroken sequence numbers.
  EXPECT_EQ(journal.append("a", event_payload(11)), 11u);
  ASSERT_TRUE(journal.flush().ok());
  entries = JobJournal::read_file(dir.file("journal.log"));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().back().seq, 11u);
}

// ---- StoreSnapshot ----------------------------------------------------------

TEST(StoreSnapshotTest, AtomicWriteAndLoadRoundTrip) {
  TempDir dir;
  StoreSnapshot snapshot;
  snapshot.jobs_seq = 42;
  snapshot.sessions_seq = 40;
  snapshot.next_job_id = 7;
  snapshot.created = 999;
  SessionRecord session;
  session.id = 3;
  session.user = "alice";
  session.token = "tok-abc";
  session.job_class = daemon::JobClass::kProduction;
  snapshot.sessions.push_back(session);
  JobRecord job = make_job(5, 100);
  job.phase = JobPhase::kCompleted;
  job.shots_done = 100;
  job.samples = samples_json(60, 40);
  snapshot.jobs.push_back(job);

  ASSERT_TRUE(snapshot.write_atomic(dir.file("snapshot.json")).ok());
  auto loaded = StoreSnapshot::load(dir.file("snapshot.json"));
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  const StoreSnapshot& got = *loaded.value();
  EXPECT_EQ(got.jobs_seq, 42u);
  EXPECT_EQ(got.sessions_seq, 40u);
  EXPECT_EQ(got.next_job_id, 7u);
  ASSERT_EQ(got.sessions.size(), 1u);
  EXPECT_EQ(got.sessions.front().token, "tok-abc");
  EXPECT_EQ(got.sessions.front().job_class, daemon::JobClass::kProduction);
  ASSERT_EQ(got.jobs.size(), 1u);
  EXPECT_EQ(got.jobs.front().id, 5u);
  EXPECT_EQ(got.jobs.front().phase, JobPhase::kCompleted);
  EXPECT_EQ(got.jobs.front().samples, samples_json(60, 40));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Compaction streams snapshot.json record by record from live dispatcher
// state (shared payload handles, in-memory samples). The bytes must be
// exactly what the whole-tree serializer would have written for the same
// state, loading must round-trip them, and a restart must recover it.
TEST(StoreSnapshotTest, StreamedCompactionIsByteIdenticalAndRecovers) {
  TempDir dir;
  ManualClock clock(5 * common::kSecond);
  StoreOptions options;
  options.data_dir = dir.path();
  options.compact_every_events = 0;  // manual compaction only
  StateStore store(options, &clock, nullptr);
  ASSERT_TRUE(store.open().ok());

  auto emulator = qrmi::LocalEmulatorQrmi::create("emu0", "sv").value();
  // Final 10-shot slices are rejected: a pinned 60-shot job runs two
  // 25-shot batches, then fails with their samples kept.
  qrmi::EmulatorFaultHooks hooks;
  hooks.on_start =
      [](const quantum::Payload& slice) -> std::optional<common::Error> {
    if (slice.shots() == 10) return common::err::invalid_argument("rejected");
    return std::nullopt;
  };
  emulator->set_fault_hooks(std::move(hooks));
  auto broker = std::make_shared<broker::ResourceBroker>(
      broker::BrokerOptions{}, &clock, nullptr);
  ASSERT_TRUE(broker->add("emu0", emulator).ok());
  accounting::AccountingManager accounting(accounting::AccountingOptions{},
                                           &clock, nullptr);
  daemon::QueuePolicy policy;
  policy.non_production_batch_shots = 25;
  daemon::Dispatcher dispatcher(broker, policy, &clock, nullptr, &store,
                                &accounting);

  std::vector<SessionRecord> sessions;
  for (const char* user : {"alice", "bob"}) {
    SessionRecord session;
    session.id = sessions.size() + 1;
    session.user = user;
    session.token = std::string("tok-") + user;
    session.created = clock.now();
    sessions.push_back(session);
  }
  // Sweep-style submissions share one payload object (deduped per user).
  const auto shared = std::make_shared<const quantum::Payload>(
      small_payload(30));
  const auto submit = [&](const std::string& user, daemon::JobClass cls,
                          std::shared_ptr<const quantum::Payload> payload,
                          const std::string& pin = "") {
    daemon::Dispatcher::SubmitOptions hints;
    hints.resource = pin;
    auto id = dispatcher.submit(common::SessionId{1}, user, cls,
                                std::move(payload), hints);
    EXPECT_TRUE(id.ok());
    return id.ok() ? id.value() : 0;
  };
  std::vector<std::uint64_t> ran;
  for (int i = 0; i < 6; ++i) {
    ran.push_back(submit(i % 2 == 0 ? "alice" : "bob",
                         daemon::JobClass::kTest, shared));
  }
  ran.push_back(submit("alice", daemon::JobClass::kProduction,
                       std::make_shared<const quantum::Payload>(
                           small_payload(40)),
                       "emu0"));
  const std::uint64_t failed =
      submit("bob", daemon::JobClass::kDevelopment,
             std::make_shared<const quantum::Payload>(small_payload(60)),
             "emu0");
  for (const std::uint64_t id : ran) {
    ASSERT_TRUE(dispatcher.wait(id, 60 * common::kSecond).ok()) << id;
  }
  EXPECT_FALSE(dispatcher.wait(failed, 60 * common::kSecond).ok());
  ASSERT_EQ(dispatcher.query(failed).value().state,
            daemon::DaemonJobState::kFailed);
  ASSERT_EQ(dispatcher.query(failed).value().shots_done, 50u);

  // A queued backlog (large enough that the stream drains its buffer
  // many times), some of it cancelled.
  dispatcher.drain();
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t id =
        submit(i % 3 == 0 ? "carol" : "alice", daemon::JobClass::kDevelopment,
               i % 4 == 0 ? shared
                          : std::make_shared<const quantum::Payload>(
                                small_payload(20 + static_cast<std::uint64_t>(
                                                       i))));
    if (i % 50 == 0) {
      ASSERT_TRUE(dispatcher.cancel(id).ok());
    }
  }
  ASSERT_TRUE(store.flush().ok());

  const auto provide = [&] {
    StoreSnapshot snapshot = dispatcher.durable_snapshot();
    snapshot.sessions_seq = store.journal().last_seq();
    snapshot.sessions = sessions;
    return snapshot;
  };
  store.set_snapshot_provider(provide);
  ASSERT_TRUE(store.compact().ok());
  const std::string bytes = read_file(dir.file("snapshot.json"));
  EXPECT_GT(bytes.size(), 2 * AtomicFileWriter::kFlushBytes);

  // The same (quiescent) state through the whole-tree serializer.
  StoreSnapshot expected = provide();
  expected.created = clock.now();
  EXPECT_FALSE(expected.live_samples.empty());
  EXPECT_EQ(bytes, expected.to_json().dump());

  // Loading parses the streamed bytes back to the same document, and the
  // loaded (plain Json) form streams out the same bytes again.
  auto loaded = StoreSnapshot::load(dir.file("snapshot.json"));
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->to_json().dump(), bytes);
  ASSERT_TRUE(loaded.value()->write_atomic(dir.file("again.json")).ok());
  EXPECT_EQ(read_file(dir.file("again.json")), bytes);

  // Restart: recovery rebuilds every job from the snapshot alone.
  expected.materialize();
  StateStore revived(options, &clock, nullptr);
  auto recovered = revived.open();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().stats.snapshot_jobs, expected.jobs.size());
  EXPECT_EQ(recovered.value().stats.journal_events, 0u);
  ASSERT_EQ(recovered.value().jobs.size(), expected.jobs.size());
  std::map<JobPhase, int> phases;
  for (std::size_t i = 0; i < expected.jobs.size(); ++i) {
    const JobRecord& want = expected.jobs[i];
    const JobRecord& got = recovered.value().jobs[i];
    ASSERT_EQ(got.id, want.id);
    EXPECT_EQ(got.phase, want.phase) << "job " << want.id;
    EXPECT_EQ(got.shots_done, want.shots_done) << "job " << want.id;
    EXPECT_EQ(got.samples, want.samples) << "job " << want.id;
    EXPECT_EQ(got.pinned, want.pinned) << "job " << want.id;
    EXPECT_EQ(got.error, want.error) << "job " << want.id;
    EXPECT_FALSE(got.payload.is_null()) << "job " << want.id;
    ++phases[got.phase];
  }
  EXPECT_EQ(phases[JobPhase::kCompleted], 7);
  EXPECT_EQ(phases[JobPhase::kFailed], 1);
  EXPECT_EQ(phases[JobPhase::kCancelled], 6);
  ASSERT_EQ(recovered.value().sessions.size(), sessions.size());
  ASSERT_EQ(recovered.value().usage.size(), expected.usage.size());
  EXPECT_FALSE(expected.usage.empty());
  for (std::size_t i = 0; i < expected.usage.size(); ++i) {
    EXPECT_EQ(recovered.value().usage[i].to_json(),
              expected.usage[i].to_json());
  }
}

TEST(StoreSnapshotTest, MissingFileLoadsAsEmpty) {
  TempDir dir;
  auto loaded = StoreSnapshot::load(dir.file("nope.json"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
}

// ---- RecoveryReplayer -------------------------------------------------------

TEST(RecoveryReplayerTest, RebuildsJobsSessionsAndRequeuesInFlight) {
  std::vector<JournalEntry> entries;
  SessionRecord alice;
  alice.id = 1;
  alice.user = "alice";
  alice.token = "tok-alice";
  SessionRecord bob;
  bob.id = 2;
  bob.user = "bob";
  bob.token = "tok-bob";
  Json alice_event = Json::object();
  alice_event["session"] = alice.to_json();
  Json bob_event = Json::object();
  bob_event["session"] = bob.to_json();
  Json bob_closed = Json::object();
  bob_closed["token"] = bob.token;

  entries.push_back(event(1, "session_created", alice_event));
  entries.push_back(event(2, "session_created", bob_event));
  // Job 1: partially executed, then the daemon died mid-batch.
  entries.push_back(event(3, "job_submitted", job_event(make_job(1, 100))));
  entries.push_back(
      event(4, "batch_done", batch_done_event(1, 40, samples_json(25, 15))));
  entries.push_back(event(5, "batch_dispatched", id_event(1)));
  // Job 2: ran to completion.
  entries.push_back(event(6, "job_submitted", job_event(make_job(2, 50))));
  entries.push_back(
      event(7, "batch_done", batch_done_event(2, 50, samples_json(30, 20))));
  entries.push_back(event(8, "job_completed", id_event(2)));
  // Job 3: cancelled.
  entries.push_back(event(9, "job_submitted", job_event(make_job(3, 10))));
  entries.push_back(event(10, "job_cancelled", id_event(3)));
  entries.push_back(event(11, "session_closed", bob_closed));

  RecoveredState state = RecoveryReplayer::apply(std::nullopt, entries);
  EXPECT_EQ(state.stats.recovered_jobs, 3u);
  EXPECT_EQ(state.stats.recovered_sessions, 1u);
  EXPECT_EQ(state.stats.requeued_jobs, 1u);
  EXPECT_EQ(state.last_seq, 11u);
  EXPECT_EQ(state.next_job_id, 4u);
  ASSERT_EQ(state.sessions.size(), 1u);
  EXPECT_EQ(state.sessions.front().token, "tok-alice");

  ASSERT_EQ(state.jobs.size(), 3u);
  const JobRecord* partial = nullptr;
  const JobRecord* complete = nullptr;
  const JobRecord* cancelled = nullptr;
  for (const auto& job : state.jobs) {
    if (job.id == 1) partial = &job;
    if (job.id == 2) complete = &job;
    if (job.id == 3) cancelled = &job;
  }
  ASSERT_NE(partial, nullptr);
  // In-flight work folds back to queued with exactly the done-shot count:
  // the 60 un-executed shots (100 - 40) will be requeued.
  EXPECT_EQ(partial->phase, JobPhase::kQueued);
  EXPECT_EQ(partial->shots_done, 40u);
  EXPECT_TRUE(partial->resource.empty());
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->phase, JobPhase::kCompleted);
  auto complete_samples = quantum::Samples::from_json(complete->samples);
  ASSERT_TRUE(complete_samples.ok());
  EXPECT_EQ(complete_samples.value().total_shots(), 50u);
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->phase, JobPhase::kCancelled);
}

TEST(RecoveryReplayerTest, MergesBatchSamplesAcrossEvents) {
  std::vector<JournalEntry> entries;
  entries.push_back(event(1, "job_submitted", job_event(make_job(1, 100))));
  entries.push_back(
      event(2, "batch_done", batch_done_event(1, 40, samples_json(25, 15))));
  entries.push_back(
      event(3, "batch_done", batch_done_event(1, 60, samples_json(33, 27))));
  entries.push_back(event(4, "job_completed", id_event(1)));
  RecoveredState state = RecoveryReplayer::apply(std::nullopt, entries);
  ASSERT_EQ(state.jobs.size(), 1u);
  EXPECT_EQ(state.jobs.front().shots_done, 100u);
  auto samples = quantum::Samples::from_json(state.jobs.front().samples);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 100u);
  EXPECT_EQ(samples.value().counts().at("00"), 58u);
  EXPECT_EQ(samples.value().counts().at("11"), 42u);
}

TEST(RecoveryReplayerTest, SnapshotWatermarksSkipFoldedEvents) {
  StoreSnapshot snapshot;
  snapshot.jobs_seq = 5;
  snapshot.sessions_seq = 5;
  snapshot.next_job_id = 3;
  JobRecord job = make_job(1, 100);
  job.shots_done = 40;
  snapshot.jobs.push_back(job);

  std::vector<JournalEntry> entries;
  // Already folded into the snapshot: must NOT double-count.
  entries.push_back(
      event(4, "batch_done", batch_done_event(1, 40, samples_json(40, 0))));
  // Above the watermark: applies.
  entries.push_back(
      event(6, "batch_done", batch_done_event(1, 25, samples_json(25, 0))));
  RecoveredState state =
      RecoveryReplayer::apply(std::optional<StoreSnapshot>(snapshot),
                              entries);
  EXPECT_EQ(state.stats.skipped_events, 1u);
  ASSERT_EQ(state.jobs.size(), 1u);
  EXPECT_EQ(state.jobs.front().shots_done, 65u);  // 40 (snapshot) + 25
}

TEST(RecoveryReplayerTest, CancelIntentSurvivesCrash) {
  // cancel() on a running job journals the intent immediately; if the
  // daemon dies before the batch boundary writes job_cancelled, replay
  // must not resurrect the job.
  std::vector<JournalEntry> entries;
  entries.push_back(event(1, "job_submitted", job_event(make_job(1, 100))));
  entries.push_back(
      event(2, "batch_done", batch_done_event(1, 40, samples_json(40, 0))));
  entries.push_back(event(3, "batch_dispatched", id_event(1)));
  entries.push_back(event(4, "cancel_requested", id_event(1)));
  RecoveredState state = RecoveryReplayer::apply(std::nullopt, entries);
  ASSERT_EQ(state.jobs.size(), 1u);
  EXPECT_EQ(state.jobs.front().phase, JobPhase::kCancelled);
  EXPECT_EQ(state.stats.requeued_jobs, 0u);
}

TEST(RecoveryReplayerTest, FullyExecutedJobWithoutTerminalEventCompletes) {
  std::vector<JournalEntry> entries;
  entries.push_back(event(1, "job_submitted", job_event(make_job(1, 50))));
  entries.push_back(
      event(2, "batch_done", batch_done_event(1, 50, samples_json(50, 0))));
  // Crash before job_completed was journaled: nothing is left to run.
  RecoveredState state = RecoveryReplayer::apply(std::nullopt, entries);
  ASSERT_EQ(state.jobs.size(), 1u);
  EXPECT_EQ(state.jobs.front().phase, JobPhase::kCompleted);
  EXPECT_EQ(state.stats.requeued_jobs, 0u);
}

// ---- StateStore end-to-end --------------------------------------------------

TEST(StateStoreTest, OpenReplayAndCompactCycle) {
  TempDir dir;
  ManualClock clock;
  StoreOptions options;
  options.data_dir = dir.path();
  options.compact_every_events = 0;  // manual compaction only

  // First life: journal some state.
  {
    StateStore store(options, &clock, nullptr);
    auto recovered = store.open();
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value().stats.recovered_jobs, 0u);
    SessionRecord session;
    session.id = 1;
    session.user = "alice";
    session.token = "tok";
    store.session_created(session);
    store.job_submitted(make_job(1, 100));
    store.batch_done(1, 40, 2 * common::kMillisecond, false,
                     samples_json(40, 0));
    store.job_submitted(make_job(2, 10));
    store.job_cancelled(2);
    ASSERT_TRUE(store.flush().ok());
  }

  // Second life: state comes back; compact folds it into a snapshot.
  {
    StateStore store(options, &clock, nullptr);
    auto recovered = store.open();
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value().stats.recovered_jobs, 2u);
    EXPECT_EQ(recovered.value().stats.recovered_sessions, 1u);
    EXPECT_EQ(recovered.value().stats.requeued_jobs, 1u);
    const std::uint64_t journal_before = store.journal().size_bytes();
    EXPECT_GT(journal_before, 0u);

    // Compact with a provider that mirrors the recovered state.
    RecoveredState state = std::move(recovered).value();
    store.set_snapshot_provider([&] {
      StoreSnapshot snapshot;
      snapshot.jobs_seq = store.journal().last_seq();
      snapshot.sessions_seq = snapshot.jobs_seq;
      snapshot.next_job_id = state.next_job_id;
      snapshot.jobs = state.jobs;
      snapshot.sessions = state.sessions;
      return snapshot;
    });
    ASSERT_TRUE(store.compact().ok());
    EXPECT_LT(store.journal().size_bytes(), journal_before);
    EXPECT_EQ(store.journal().event_count(), 0u);
    EXPECT_EQ(store.status().compactions_total, 1u);
  }

  // Third life: recovery now reads from the snapshot alone.
  {
    StateStore store(options, &clock, nullptr);
    auto recovered = store.open();
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered.value().stats.recovered_jobs, 2u);
    EXPECT_EQ(recovered.value().stats.snapshot_jobs, 2u);
    EXPECT_EQ(recovered.value().stats.journal_events, 0u);
    bool saw_partial = false;
    for (const auto& job : recovered.value().jobs) {
      if (job.id == 1) {
        saw_partial = true;
        EXPECT_EQ(job.phase, JobPhase::kQueued);
        EXPECT_EQ(job.shots_done, 40u);
      }
    }
    EXPECT_TRUE(saw_partial);
  }
}

TEST(StateStoreTest, PayloadDedupEmbedsEachProgramOnce) {
  TempDir dir;
  ManualClock clock;
  StoreOptions options;
  options.data_dir = dir.path();
  options.compact_every_events = 0;
  const auto payload =
      std::make_shared<const quantum::Payload>(small_payload(100));
  {
    StateStore store(options, &clock, nullptr);
    ASSERT_TRUE(store.open().ok());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      JobRecord meta;
      meta.id = id;
      meta.user = "alice";
      meta.total_shots = 100;
      store.job_submitted(meta, payload);
    }
    // Dedup is scoped per user: bob's first sighting re-embeds.
    JobRecord meta;
    meta.id = 4;
    meta.user = "bob";
    meta.total_shots = 100;
    store.job_submitted(meta, payload);
    ASSERT_TRUE(store.flush().ok());
  }
  auto entries = JobJournal::read_file(dir.path() + "/journal.log");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 4u);
  int embedded = 0;
  for (const auto& entry : entries.value()) {
    const Json& job = entry.data.at_or_null("job");
    EXPECT_EQ(static_cast<std::uint64_t>(
                  job.at_or_null("payload_hash").as_int()),
              payload_fingerprint(*payload));
    if (!job.at_or_null("payload").is_null()) ++embedded;
  }
  EXPECT_EQ(embedded, 2);  // one embed per user; repeats reference it

  // Recovery resolves the deduped repeats back to the full payload.
  // (Compare via program_hash: the text round-trip may turn whole-number
  // doubles into ints, which dump identically.)
  StateStore store(options, &clock, nullptr);
  auto recovered = store.open();
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().jobs.size(), 4u);
  for (const auto& job : recovered.value().jobs) {
    auto decoded = quantum::Payload::from_json(job.payload);
    ASSERT_TRUE(decoded.ok()) << "job " << job.id;
    EXPECT_EQ(decoded.value().program_hash(), payload->program_hash())
        << "job " << job.id;
  }
}

TEST(StateStoreTest, PayloadDedupNeverAliasesDifferingMetadataOrShots) {
  // The fingerprint covers the FULL payload identity: two submissions of
  // the same program body with different metadata (or shots) must not
  // share a dedup key, or recovery would hand job 2 job 1's annotations.
  TempDir dir;
  ManualClock clock;
  StoreOptions options;
  options.data_dir = dir.path();
  options.compact_every_events = 0;
  quantum::Payload run_a = small_payload(100);
  run_a.metadata()["name"] = "run-A";
  quantum::Payload run_b = small_payload(100);
  run_b.metadata()["name"] = "run-B";
  quantum::Payload more_shots = small_payload(500);
  more_shots.metadata()["name"] = "run-A";
  EXPECT_NE(payload_fingerprint(run_a), payload_fingerprint(run_b));
  EXPECT_NE(payload_fingerprint(run_a), payload_fingerprint(more_shots));
  {
    StateStore store(options, &clock, nullptr);
    ASSERT_TRUE(store.open().ok());
    std::uint64_t id = 0;
    for (const auto* payload : {&run_a, &run_b, &more_shots}) {
      JobRecord meta;
      meta.id = ++id;
      meta.user = "alice";
      meta.total_shots = payload->shots();
      store.job_submitted(
          meta, std::make_shared<const quantum::Payload>(*payload));
    }
    ASSERT_TRUE(store.flush().ok());
  }
  StateStore store(options, &clock, nullptr);
  auto recovered = store.open();
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().jobs.size(), 3u);
  for (const auto& job : recovered.value().jobs) {
    auto decoded = quantum::Payload::from_json(job.payload);
    ASSERT_TRUE(decoded.ok()) << "job " << job.id;
    const std::string expected = job.id == 2 ? "run-B" : "run-A";
    EXPECT_EQ(decoded.value().metadata().at_or_null("name").as_string(),
              expected)
        << "job " << job.id;
    EXPECT_EQ(decoded.value().shots(), job.id == 3 ? 500u : 100u)
        << "job " << job.id;
  }
}

TEST(RecoveryReplayerTest, ResolvesPayloadHashFromSnapshot) {
  // Compaction can swallow the payload-defining event; the snapshot then
  // carries the body and journal-only references must resolve against it.
  const quantum::Payload payload = small_payload(50);
  StoreSnapshot snapshot;
  snapshot.jobs_seq = 10;
  snapshot.sessions_seq = 10;
  snapshot.next_job_id = 2;
  JobRecord defining = make_job(1, 50);
  defining.payload_hash = payload_fingerprint(payload);
  defining.payload = payload.to_json();
  snapshot.jobs.push_back(defining);

  JobRecord reference = make_job(2, 50);
  reference.payload_hash = defining.payload_hash;
  reference.payload = Json();  // deduped away in the journal
  std::vector<JournalEntry> entries;
  entries.push_back(event(11, "job_submitted", job_event(reference)));

  RecoveredState state = RecoveryReplayer::apply(
      std::optional<StoreSnapshot>(snapshot), entries);
  ASSERT_EQ(state.jobs.size(), 2u);
  for (const auto& job : state.jobs) {
    EXPECT_EQ(job.payload, payload.to_json()) << "job " << job.id;
  }
}

TEST(StateStoreTest, AutoCompactionBoundsJournal) {
  TempDir dir;
  ManualClock clock;
  StoreOptions options;
  options.data_dir = dir.path();
  options.compact_every_events = 64;
  StateStore store(options, &clock, nullptr);
  ASSERT_TRUE(store.open().ok());
  store.set_snapshot_provider([&] {
    StoreSnapshot snapshot;
    snapshot.jobs_seq = store.journal().last_seq();
    snapshot.sessions_seq = snapshot.jobs_seq;
    return snapshot;  // steady state: nothing live, journal fully folds
  });
  for (int i = 1; i <= 1000; ++i) {
    store.job_submitted(make_job(static_cast<std::uint64_t>(i), 10));
    store.job_cancelled(static_cast<std::uint64_t>(i));
  }
  ASSERT_TRUE(store.flush().ok());
  // The compactor had 2000 events / 64-event windows to act on; however
  // the race with the final appends resolves, the journal must stay far
  // below the un-compacted total.
  for (int tries = 0; tries < 200 && store.journal().event_count() > 200;
       ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(store.journal().event_count(), 200u);
  EXPECT_GE(store.status().compactions_total, 1u);
}

}  // namespace
}  // namespace qcenv::store

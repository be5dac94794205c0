// Journal-shipping benchmark: how far behind the leader does a hot
// standby actually run?
//
// A leader StateStore takes real dispatcher traffic (64 tenants, drained
// lanes — the same durable submit path bench_submit_path measures) while
// a StandbyReplicator pulls WAL segments off the live store dir into a
// mirror every few milliseconds. The replicator's LagTracker records the
// lag-in-events trajectory after every pull; the run then reports mean
// and max lag under load, shipping volume (segments/frames/bytes), and
// the time the final catch-up needed once the writers stopped.
//
// Two phases run back to back:
//   clean   an unmolested link
//   torn    every second pull's chunk arrives torn (short read + flipped
//           byte); the replicator must keep each chunk's clean prefix,
//           re-request the rest, and still converge — torn_segments
//           counts the rejected chunks
//
// The run FAILS (exit 1) if either phase's mirror does not converge to
// the leader's durable high-water mark — a lag benchmark that silently
// under-ships would otherwise report flattering numbers.
//
// Usage:
//   bench_federation [--quick] [--out FILE]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "broker/broker.hpp"
#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/temp_dir.hpp"
#include "daemon/dispatcher.hpp"
#include "federation/replication.hpp"
#include "qrmi/local_emulator.hpp"
#include "store/state_store.hpp"

namespace {
using namespace qcenv;
using namespace qcenv::bench;
using common::Json;

quantum::Payload tiny_payload(std::uint64_t shots) {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(100, 2.0),
                               quantum::Waveform::constant(100, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, shots);
}

struct PhaseResult {
  bool converged = false;
  std::uint64_t leader_seq = 0;
  std::uint64_t applied_seq = 0;
  telemetry::LagTracker::Summary lag;
  federation::StandbyReplicator::Stats ship;
  double load_wall_s = 0.0;
  double catchup_ms = 0.0;

  Json to_json() const {
    Json out = Json::object();
    out["converged"] = converged;
    out["leader_seq"] = static_cast<long long>(leader_seq);
    out["applied_seq"] = static_cast<long long>(applied_seq);
    out["lag"] = lag.to_json();
    out["segments"] = static_cast<long long>(ship.segments);
    out["frames"] = static_cast<long long>(ship.frames);
    out["bytes"] = static_cast<long long>(ship.bytes);
    out["torn_segments"] = static_cast<long long>(ship.torn_segments);
    out["snapshot_catchups"] =
        static_cast<long long>(ship.snapshot_catchups);
    out["load_wall_s"] = load_wall_s;
    out["catchup_ms"] = catchup_ms;
    return out;
  }
};

PhaseResult run_phase(bool torn_link, std::size_t tenants,
                      std::size_t jobs_per_tenant) {
  common::TempDir leader_dir("qcenv-bench-fed-leader-");
  common::TempDir standby_dir("qcenv-bench-fed-standby-");
  common::WallClock clock;

  store::StoreOptions store_options;
  store_options.data_dir = leader_dir.path();
  store_options.compact_every_events = 0;
  store::StateStore store(store_options, &clock, nullptr);
  (void)store.open();

  auto broker = std::make_shared<broker::ResourceBroker>(
      broker::BrokerOptions{}, &clock, nullptr);
  (void)broker->add("emu0",
                    qrmi::LocalEmulatorQrmi::create("emu0", "sv").value());
  daemon::Dispatcher dispatcher(broker, daemon::QueuePolicy{}, &clock,
                                nullptr, &store, nullptr, nullptr, nullptr);
  dispatcher.drain();  // journal traffic only, no execution

  // Small segments so one load generates a long segment stream (a 256 KB
  // cap would ship this workload in one or two pulls and measure nothing).
  federation::FileReplicationSource source(leader_dir.path());
  federation::StandbyReplicator replicator(
      {standby_dir.path(), 16 * 1024}, &source, &clock, nullptr, nullptr);

  std::atomic<bool> stop{false};
  std::thread shipper([&] {
    std::uint64_t pulls = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Torn link: every second pull's chunk arrives cut + corrupted; the
      // replicator keeps each chunk's clean prefix and re-requests.
      if (torn_link && pulls % 2 == 0) source.tear_next_segment();
      (void)replicator.poll_once();
      ++pulls;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const auto payload =
      std::make_shared<const quantum::Payload>(tiny_payload(64));
  std::vector<std::thread> writers;
  writers.reserve(tenants);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < tenants; ++t) {
    writers.emplace_back([&, t] {
      const std::string user = "tenant" + std::to_string(t);
      for (std::size_t j = 0; j < jobs_per_tenant; ++j) {
        (void)dispatcher.submit(common::SessionId{0}, user,
                                daemon::JobClass::kDevelopment, payload,
                                {});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  (void)store.flush();
  PhaseResult result;
  result.load_wall_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  stop.store(true, std::memory_order_release);
  shipper.join();
  const auto c0 = std::chrono::steady_clock::now();
  (void)replicator.catch_up();
  result.catchup_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - c0)
                          .count();

  result.leader_seq = store.journal().last_seq();
  result.applied_seq = replicator.applied_seq();
  result.converged = result.applied_seq == result.leader_seq;
  result.lag = replicator.lag().summary();
  result.ship = replicator.stats();
  store.shutdown();
  return result;
}

void print_phase(const char* name, const PhaseResult& result) {
  Table table({"phase", "events", "segments", "bytes", "mean lag",
               "max lag", "catch-up"});
  table.add_row({name, std::to_string(result.leader_seq),
                 std::to_string(result.ship.segments),
                 std::to_string(result.ship.bytes),
                 fmt("%.1f ev", result.lag.mean),
                 std::to_string(result.lag.max) + " ev",
                 fmt("%.1f ms", result.catchup_ms)});
  table.print();
  print_note(std::string("  converged: ") +
             (result.converged ? "yes" : "NO") + " (applied " +
             std::to_string(result.applied_seq) + " / leader " +
             std::to_string(result.leader_seq) + ")" +
             (result.ship.torn_segments > 0
                  ? ", " + std::to_string(result.ship.torn_segments) +
                        " torn segment(s) re-requested"
                  : ""));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"--quick"}, {"--out"});
  const bool quick = flags.has("--quick");
  const std::size_t tenants = quick ? 16 : 64;
  const std::size_t jobs_per_tenant = quick ? 100 : 400;

  print_title("federation | journal shipping under load: " +
              std::to_string(tenants) + " tenants x " +
              std::to_string(jobs_per_tenant) +
              " durable submits, replicator pulling every 2 ms");

  const PhaseResult clean = run_phase(false, tenants, jobs_per_tenant);
  print_phase("clean link", clean);
  const PhaseResult torn = run_phase(true, tenants, jobs_per_tenant);
  print_phase("torn link (every 2nd pull)", torn);

  Json report = Json::object();
  report["bench"] = std::string("bench_federation");
  report["tenants"] = static_cast<long long>(tenants);
  report["jobs_per_tenant"] = static_cast<long long>(jobs_per_tenant);
  report["clean"] = clean.to_json();
  report["torn"] = torn.to_json();

  if (const char* out = flags.value("--out")) {
    std::ofstream file(out);
    file << report.dump(2) << "\n";
    print_note("wrote " + std::string(out));
  }

  if (!clean.converged || !torn.converged) {
    std::fprintf(stderr,
                 "REPLICATION FAILURE: mirror did not converge to the "
                 "leader's durable WAL (clean %s, torn %s)\n",
                 clean.converged ? "ok" : "DIVERGED",
                 torn.converged ? "ok" : "DIVERGED");
    return 1;
  }
  if (torn.ship.torn_segments == 0) {
    std::fprintf(stderr,
                 "torn-link phase shipped no torn segments — the fault "
                 "hook never fired\n");
    return 1;
  }
  print_note("\nreplication gate: OK");
  return 0;
}

#include "simtest/sweep.hpp"

#include <fstream>
#include <ostream>

namespace qcenv::simtest {

std::string summary_line(const ScenarioResult& result) {
  const ScenarioStats& stats = result.stats;
  std::string out = "seed " + std::to_string(result.seed) + ": " +
                    std::to_string(stats.submitted) + " jobs (" +
                    std::to_string(stats.completed) + " completed, " +
                    std::to_string(stats.failed) + " failed, " +
                    std::to_string(stats.cancelled) + " cancelled, " +
                    std::to_string(stats.rejected) + " rejected), " +
                    std::to_string(stats.restarts) + " restart(s), " +
                    std::to_string(stats.flaps) + " flap(s), " +
                    std::to_string(stats.disk_faults) + " disk fault(s), " +
                    std::to_string(stats.calib_drifts) + " drift(s), " +
                    std::to_string(stats.alerts_fired) + " alert(s), " +
                    std::to_string(stats.promotions) + " promotion(s), " +
                    std::to_string(stats.virtual_end /
                                   common::kMillisecond) +
                    " virtual ms";
  if (!result.ok()) {
    out += " — " + std::to_string(result.violations.size()) +
           " VIOLATION(S)";
  }
  return out;
}

namespace {

void report_failure(const ScenarioResult& result, std::ostream& out) {
  out << "FAILED " << summary_line(result) << "\n";
  out << "  replay: simtest_sweep --seed " << result.seed << "\n";
  out << "  fault schedule:\n" << result.plan;
  for (const auto& violation : result.violations) {
    out << "  violation: " << violation << "\n";
  }
  if (!result.trace_dump.empty()) {
    out << "  trace dump (events + per-job span trees):\n"
        << result.trace_dump << "\n";
  }
  if (!result.flight_dump.empty()) {
    out << "  flight dump (crash forensics from the failing run):\n"
        << result.flight_dump << "\n";
  }
}

/// The calibration-drift alert timeline as comparable strings. Only drift
/// rules qualify: their inputs are pure functions of the seed and the
/// scrape grid, so two runs of the same seed must reproduce them record
/// for record. SLO burn alerts ride queue occupancy, which is the host
/// scheduler's to interleave — deliberately excluded.
std::vector<std::string> drift_timeline(const ScenarioResult& result) {
  std::vector<std::string> timeline;
  for (const auto& alert : result.alerts) {
    if (alert.rule.rfind("calibration_drift", 0) != 0) continue;
    timeline.push_back(alert.rule + "/" + alert.label + " " +
                       to_string(alert.severity) + " @" +
                       std::to_string(alert.fired_at));
  }
  return timeline;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += ", ";
    out += part;
  }
  return out.empty() ? "(none)" : out;
}

/// First divergence between two eta-probe transcripts, rendered for the
/// failure report (the full responses are JSON — print only the pair that
/// differs, not every probe).
std::string probe_divergence(const std::vector<std::string>& first,
                             const std::vector<std::string>& second) {
  if (first.size() != second.size()) {
    return std::to_string(first.size()) + " probe(s) vs " +
           std::to_string(second.size());
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i] != second[i]) {
      return "probe " + std::to_string(i) + ": run1 <" + first[i] +
             "> vs run2 <" + second[i] + ">";
    }
  }
  return "(identical)";
}

}  // namespace

SweepOutcome run_sweep(const SweepOptions& options, std::ostream& log) {
  SweepOutcome outcome;
  for (std::size_t i = 0; i < options.seeds; ++i) {
    const std::uint64_t seed = options.first_seed + i;
    ScenarioOptions scenario = scenario_for_seed(seed, options.quick);
    scenario.trace_dump = options.trace;
    if (options.ha) {
      // The HA slice: every seed runs durable + federated and loses its
      // leader at least once, on top of whatever it drew organically.
      scenario.durable = true;
      scenario.federation = true;
      scenario.faults.leader_kills =
          std::max<std::size_t>(scenario.faults.leader_kills, 1);
    }
    ScenarioResult result = run_scenario(scenario);
    // Double-run determinism: a seed that injected calibration drift is
    // replayed and must fire the identical drift-alert timeline at the
    // identical virtual timestamps — any divergence means wall time or
    // interleaving leaked into the alerting path. Every replay (plus a
    // deterministic quarter of drift-free seeds, so the check covers
    // every schedule shape) also compares the post-scenario eta/explain
    // probe byte for byte.
    const bool replay_for_drift = scenario.observability &&
                                  scenario.faults.calib_drifts > 0;
    if (result.ok() && (replay_for_drift || seed % 4 == 0)) {
      const ScenarioResult replay = run_scenario(scenario);
      if (replay_for_drift) {
        const auto first = drift_timeline(result);
        const auto second = drift_timeline(replay);
        if (first != second) {
          result.violations.push_back(
              "drift-alert timeline not reproducible: run1 [" +
              join(first) + "] vs run2 [" + join(second) + "]");
        }
      }
      if (result.eta_probe != replay.eta_probe) {
        result.violations.push_back(
            "eta probe not bit-identical across replays: " +
            probe_divergence(result.eta_probe, replay.eta_probe));
      }
    }
    ++outcome.ran;
    if (result.ok()) {
      if (options.verbose) log << summary_line(result) << "\n";
      // A single-seed replay with --trace is a debugging session: show
      // the timeline dump even when every invariant held.
      if (options.trace && options.seeds == 1 &&
          !result.trace_dump.empty()) {
        log << "trace dump (events + per-job span trees):\n"
            << result.trace_dump << "\n";
      }
      continue;
    }
    report_failure(result, log);
    outcome.failures.push_back(std::move(result));
  }
  if (!outcome.failures.empty() && !options.artifact_path.empty()) {
    std::ofstream artifact(options.artifact_path, std::ios::app);
    for (const auto& failure : outcome.failures) {
      report_failure(failure, artifact);
    }
  }
  log << "sweep: " << outcome.ran << " seed(s), "
      << outcome.failures.size() << " failure(s)\n";
  return outcome;
}

}  // namespace qcenv::simtest

// Count-based regression gate over flow run reports.
//
// CI compares a fresh RunReport (place/report.h) against a checked-in
// baseline of *deterministic count invariants* — never wall-times, which
// vary with the machine. Example invariants: one forward DCT per Poisson
// solve, one density-solver workspace allocation per flow, zero atomic
// wirelength allocations under the merged kernel, zero dropped trace
// events. tools/check_report.cpp is the CLI wrapper; the logic lives here
// so tests can drive it in-process.
//
// Both documents are parsed with a dependency-free flattening JSON
// parser: nested keys join with '.', array elements use their index
// ("gp_runs.0.iterations"), booleans map to 0/1, null is skipped.
//
// Baseline schema (tools/report_baseline.json):
//   {"schema": "dreamplace.report_baseline.v1",
//    "checks": [
//      {"path": "counters.trace/dropped", "op": "eq", "value": 0},
//      {"path": "counters.fft/dct2d", "op": "eq_path",
//       "other": "counters.ops/electrostatics/solve"},
//      ...]}
// Ops: eq / le / ge compare against "value"; eq_path / le_path / ge_path
// compare against the report value at "other", times the check's
// optional "scale" (default 1).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace dreamplace {

/// A JSON document flattened to dotted-path leaves.
struct FlatJson {
  std::map<std::string, double> numbers;  ///< Numbers and booleans (0/1).
  std::map<std::string, std::string> strings;

  bool hasNumber(const std::string& path) const {
    return numbers.find(path) != numbers.end();
  }
};

/// Parses `text` into `out`. Returns false and sets `error` (if non-null)
/// on malformed input.
bool parseJsonFlat(const std::string& text, FlatJson& out,
                   std::string* error = nullptr);

/// Outcome of one baseline check.
struct CheckResult {
  std::string description;
  bool passed = false;
  std::string detail;  ///< Observed vs expected, or the failure reason.
};

/// Runs every baseline check against the report. Returns false (with
/// `error`) when the baseline itself is malformed; individual check
/// failures are reported through the results, not the return value.
bool checkReport(const FlatJson& report, const FlatJson& baseline,
                 std::vector<CheckResult>& results,
                 std::string* error = nullptr);

/// True when the parsed document is a PlacementEngine batch report
/// (schema dreamplace.batch_report.v1, place/engine.h) rather than a
/// single run report.
bool isBatchReport(const FlatJson& document);

/// Outcome of checking one job of a batch report.
struct BatchJobCheck {
  std::string name;
  std::string status;    ///< "succeeded" / "failed" / "timed_out" /
                         ///< "diverged" / "stalled".
  std::string expected;  ///< Status this job was required to reach.
  bool succeeded = false;  ///< status == expected.
  /// Per-run baseline results over the job's embedded report; empty when
  /// the job did not succeed (there is no report to check).
  std::vector<CheckResult> results;
};

/// Per-job expectations for checkBatchReport. Jobs not listed must reach
/// "succeeded"; a listed job must land in exactly the given terminal
/// status (e.g. "diverged" for the CI health-gate's injected divergence
/// job) and is exempt from the per-run baseline, which only applies to
/// succeeded jobs' embedded reports.
struct BatchCheckOptions {
  std::map<std::string, std::string> expectedStatus;
};

/// Applies the per-run baseline to every job of a batch report: the
/// batch passes only when every job reached its expected status AND
/// every succeeded job's embedded RunReport passes every baseline check.
/// Returns false (with `error`) when the batch has no jobs or the
/// baseline is malformed.
bool checkBatchReport(const FlatJson& batch, const FlatJson& baseline,
                      std::vector<BatchJobCheck>& jobs,
                      std::string* error = nullptr,
                      const BatchCheckOptions& options = {});

/// Resume-determinism gate: compares two succeeded jobs of a batch report
/// and requires their embedded run reports to agree bit-for-bit on every
/// "result.*" and "design.*" leaf and on every resume-comparable counter
/// ("counters.*" minus isResumeVariantCounter, place/engine.h). Wall-time
/// leaves (suffix "_s") are skipped — a resumed run's timings cover only
/// the resumed segment. A path present on one side but not the other is a
/// failure. Returns false (with `error`) when either job is absent or not
/// succeeded; per-path outcomes land in `results`.
bool compareBatchJobsForResume(const FlatJson& batch, const std::string& jobA,
                               const std::string& jobB,
                               std::vector<CheckResult>& results,
                               std::string* error = nullptr);

}  // namespace dreamplace

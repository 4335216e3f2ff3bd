#include "place/placer.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/flow_context.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "db/metrics.h"
#include "place/pipeline.h"
#include "place/report.h"

namespace dreamplace {

namespace {

/// Collects per-run GP summaries for the end-of-flow report without the
/// per-iteration storage of RecordingTelemetrySink.
class GpSummarySink final : public TelemetrySink {
 public:
  void onIteration(const IterationStats& /*stats*/) override {}
  void onRunEnd(const TelemetryRunSummary& summary) override {
    summaries_.push_back(summary);
  }

  const std::vector<TelemetryRunSummary>& summaries() const {
    return summaries_;
  }

 private:
  std::vector<TelemetryRunSummary> summaries_;
};

/// Builds the telemetry sink stack requested by the options and wires it
/// into the GP options. Owns the file sinks; must outlive the flow run.
/// Constructed (and destroyed) with the flow's context installed, so the
/// trace it enables/writes is the *flow's* recorder, not a global one.
class FlowTelemetry {
 public:
  FlowTelemetry(const PlacerOptions& options, bool wantSummaries) {
    if (!options.telemetryJsonl.empty()) {
      jsonl_ = std::make_unique<JsonlTelemetrySink>(options.telemetryJsonl);
      mux_.addSink(jsonl_.get());
    }
    if (!options.telemetryCsv.empty()) {
      csv_ = std::make_unique<CsvTelemetrySink>(options.telemetryCsv);
      mux_.addSink(csv_.get());
    }
    if (!options.traceFile.empty()) {
      trace_file_ = options.traceFile;
      currentTraceRecorder().setEnabled(true);
      mux_.addSink(&trace_sink_);
    }
    if (wantSummaries) {
      mux_.addSink(&summary_sink_);
    }
    mux_.addSink(options.telemetry);
  }

  ~FlowTelemetry() {
    // Backstop for flows that fail before reaching finishTrace(); a
    // write failure here can only be logged.
    finishTrace();
  }

  /// Stops recording and writes the trace file. Returns "" on success or
  /// when no trace was requested; on failure logs and returns the message
  /// so the caller can surface it (RunReport warnings — a silently
  /// missing trace looks identical to a flow that never emitted scopes).
  /// Idempotent: the file is written (and the failure reported) once.
  std::string finishTrace() {
    if (trace_file_.empty()) {
      return {};
    }
    const std::string trace_file = std::exchange(trace_file_, {});
    TraceRecorder& trace = currentTraceRecorder();
    trace.setEnabled(false);
    if (!trace.writeJson(trace_file)) {
      const std::string error = "trace: cannot write " + trace_file;
      logWarn("%s", error.c_str());
      return error;
    }
    return {};
  }

  /// Null when no sink is configured, so the GP loop skips all telemetry.
  TelemetrySink* sink() { return mux_.empty() ? nullptr : &mux_; }

  /// GP run summaries observed so far (empty unless a report was asked).
  const std::vector<TelemetryRunSummary>& gpSummaries() const {
    return summary_sink_.summaries();
  }

 private:
  TelemetryMux mux_;
  std::unique_ptr<JsonlTelemetrySink> jsonl_;
  std::unique_ptr<CsvTelemetrySink> csv_;
  TraceTelemetrySink trace_sink_;
  GpSummarySink summary_sink_;
  std::string trace_file_;
};

/// A warm start hands its positions straight to LG, which cannot place a
/// cell at NaN or infinity (every comparison with NaN is false, so the
/// cell would slip through LG and the legality check alike).
void requireFinitePositions(const Database& db) {
  for (Index i = 0; i < db.numMovable(); ++i) {
    if (!std::isfinite(db.cellX(i)) || !std::isfinite(db.cellY(i))) {
      throw std::runtime_error(
          "warm start: movable cell '" + db.cellName(i) + "' (index " +
          std::to_string(i) + ") has a non-finite position (" +
          std::to_string(db.cellX(i)) + ", " + std::to_string(db.cellY(i)) +
          ")");
    }
  }
}

template <typename T>
FlowResult runFlow(Database& db, const PlacerOptions& options,
                   FlowTelemetry& telemetry) {
  if (!options.runGlobalPlacement) {
    requireFinitePositions(db);
  }
  FlowResult result;
  FlowPipeline pipeline = buildFlowPipeline<T>(options);
  StageContext context{db, options, result, telemetry.sink()};
  pipeline.run(context);
  logInfo("flow: hpwl gp %.4e -> legal %.4e -> final %.4e, legal=%d, "
          "gp %.1fs lg %.1fs dp %.1fs",
          result.hpwlGp, result.hpwlLegal, result.hpwl, result.legal ? 1 : 0,
          result.gpSeconds, result.lgSeconds, result.dpSeconds);
  if (!std::isfinite(result.hpwl)) {
    throw std::runtime_error("flow: final HPWL is not finite (" +
                             std::to_string(result.hpwl) +
                             "); the placement holds a non-finite position");
  }
  return result;
}

}  // namespace

void PlacerOptions::validate() const {
  std::string errors;
  const auto fail = [&errors](const std::string& message) {
    errors += (errors.empty() ? "" : "; ") + message;
  };

  if (threads < 0) {
    fail("threads must be >= 0 (got " + std::to_string(threads) +
         "); 0 means auto (DREAMPLACE_THREADS or hardware concurrency)");
  }
  if (gp.binsMax <= 0) {
    fail("gp.binsMax must be positive (got " + std::to_string(gp.binsMax) +
         "); the density grid needs at least one bin per axis");
  }
  if (!(gp.targetDensity > 0.0) || gp.targetDensity > 1.0) {
    fail("gp.targetDensity must be in (0, 1] (got " +
         std::to_string(gp.targetDensity) +
         "); it is the bin utilization GP spreads toward");
  }
  if (!(gp.stopOverflow > 0.0) || gp.stopOverflow >= 1.0) {
    fail("gp.stopOverflow must be in (0, 1) (got " +
         std::to_string(gp.stopOverflow) +
         "); GP stops when density overflow falls below it");
  }
  if (gp.maxIterations <= 0) {
    fail("gp.maxIterations must be positive (got " +
         std::to_string(gp.maxIterations) + ")");
  }
  if (gp.minIterations < 0 || gp.minIterations > gp.maxIterations) {
    fail("gp.minIterations must be in [0, maxIterations] (got " +
         std::to_string(gp.minIterations) + " with maxIterations " +
         std::to_string(gp.maxIterations) + ")");
  }
  if (gp.lambdaUpdateEvery < 1) {
    fail("gp.lambdaUpdateEvery must be >= 1 (got " +
         std::to_string(gp.lambdaUpdateEvery) +
         "); it is the eq. (18) update period in iterations");
  }
  if (gp.densitySubdivision < 1) {
    fail("gp.densitySubdivision must be >= 1 (got " +
         std::to_string(gp.densitySubdivision) + ")");
  }
  if (gp.noiseRatio < 0.0) {
    fail("gp.noiseRatio must be non-negative (got " +
         std::to_string(gp.noiseRatio) + ")");
  }
  if (gp.solver != SolverKind::kNesterov && gp.lr <= 0.0) {
    fail("gp.lr must be positive for the " +
         std::string(solverName(gp.solver)) +
         " solver (got " + std::to_string(gp.lr) +
         "); only Nesterov derives its own step size");
  }
  if (gp.lrDecay <= 0.0 || gp.lrDecay > 1.0) {
    fail("gp.lrDecay must be in (0, 1] (got " + std::to_string(gp.lrDecay) +
         "); it multiplies the learning rate each iteration");
  }
  if (gp.fences.empty() && !gp.cellFence.empty()) {
    fail("gp.cellFence assigns cells to fence regions but gp.fences is "
         "empty; provide the fence list or clear cellFence");
  }
  for (const int f : gp.cellFence) {
    if (f < 0 || f > static_cast<int>(gp.fences.size())) {
      fail("gp.cellFence entries must be 0 (default region) or a 1-based "
           "index into gp.fences (got " + std::to_string(f) + " with " +
           std::to_string(gp.fences.size()) + " fences)");
      break;
    }
  }
  if (!runGlobalPlacement && routability) {
    fail("runGlobalPlacement=false is incompatible with routability mode; "
         "the inflation loop *is* a GP loop");
  }
  if (checkpointEveryIterations < 0) {
    fail("checkpointEveryIterations must be >= 0 (got " +
         std::to_string(checkpointEveryIterations) +
         "); 0 checkpoints at stage boundaries only");
  }
  if (checkpointEveryIterations > 0 && checkpointDir.empty()) {
    fail("checkpointEveryIterations requires checkpointDir; mid-GP "
         "snapshots need somewhere to go");
  }
  if (routability) {
    const RouterOptions& router = routabilityOptions.router;
    if (router.gridX <= 0 || router.gridY <= 0) {
      fail("routability mode needs a positive router grid "
           "(routabilityOptions.router.gridX/gridY, got " +
           std::to_string(router.gridX) + "x" + std::to_string(router.gridY) +
           ")");
    }
    if (router.numLayerPairs <= 0) {
      fail("routabilityOptions.router.numLayerPairs must be positive (got " +
           std::to_string(router.numLayerPairs) + ")");
    }
    if (!(routabilityOptions.inflationTrigger > 0.0) ||
        routabilityOptions.inflationTrigger >= 1.0) {
      fail("routabilityOptions.inflationTrigger must be in (0, 1) (got " +
           std::to_string(routabilityOptions.inflationTrigger) +
           "); it is the overflow at which inflation starts");
    }
    if (routabilityOptions.maxRounds < 1) {
      fail("routabilityOptions.maxRounds must be >= 1 (got " +
           std::to_string(routabilityOptions.maxRounds) + ")");
    }
  }

  if (!errors.empty()) {
    throw std::invalid_argument("PlacerOptions: " + errors);
  }
}

FlowResult placeDesign(Database& db, const PlacerOptions& options) {
  // Fresh context per call: the flow's counters/timings start from zero,
  // so sequential flows in one process no longer leak into each other's
  // reports. A trace export gets its own recorder; otherwise scopes keep
  // landing on the shared default recorder (program-wide tracing, e.g. a
  // bench's TelemetrySession, still sees the flow).
  FlowContext::Config config;
  config.privateTrace = !options.traceFile.empty();
  FlowContext context(config);
  return placeDesign(db, options, context, nullptr);
}

FlowResult placeDesign(Database& db, const PlacerOptions& options,
                       FlowContext& context, RunReport* reportOut) {
  options.validate();
  FlowContextScope scope(context);
  // 0 keeps the pool as configured (auto-resolution or a caller's
  // earlier setThreads); only an explicit request reconfigures it.
  if (options.threads > 0) {
    context.pool().setThreads(options.threads);
  }
  context.markFlowStart();
  FlowTelemetry telemetry(options, /*wantSummaries=*/reportOut != nullptr ||
                                       !options.reportJson.empty() ||
                                       !options.reportText.empty());
  const bool want_report = reportOut != nullptr ||
                           !options.reportJson.empty() ||
                           !options.reportText.empty();
  const FlowResult result =
      options.precision == Precision::kFloat32
          ? runFlow<float>(db, options, telemetry)
          : runFlow<double>(db, options, telemetry);
  if (want_report) {
    RunReport report = buildRunReport(db, options, result,
                                      telemetry.gpSummaries(), context);
    // Write the trace now (instead of in FlowTelemetry's destructor) so a
    // failed export lands in the report's warnings array — a run report
    // that looks clean while the trace silently vanished is the bug this
    // closes.
    const std::string trace_error = telemetry.finishTrace();
    if (!trace_error.empty()) {
      report.warnings.push_back(trace_error);
    }
    std::string error;
    if (!writeRunReport(report, options.reportJson, options.reportText,
                        &error)) {
      // The caller asked for a report file; silently dropping it would
      // make the run look observable when it is not. Fail the flow.
      throw std::runtime_error(error);
    }
    if (reportOut != nullptr) {
      *reportOut = std::move(report);
    }
  }
  return result;
}

}  // namespace dreamplace

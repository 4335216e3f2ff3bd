#include "place/pipeline.h"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "db/metrics.h"
#include "lg/macro_legalizer.h"
#include "place/checkpoint.h"
#include "place/engine.h"

namespace dreamplace {

namespace {

// --- Concrete stages -------------------------------------------------------
// Private to this file; callers assemble them through buildFlowPipeline()
// and address them by name() (tests, checkpoint signatures).

/// Standard nonlinear GP (paper Sec. 3). The only stage with mid-run
/// checkpoints: GlobalPlacer snapshots its loop state (optimizer vectors,
/// lambda, EMA, overflow) every checkpointEveryIterations through the
/// sink below, and resumes from the same blob bit-identically.
template <typename T>
class GlobalPlacementStage final : public PipelineStage {
 public:
  const char* name() const override { return "gp"; }
  FlowStage heartbeatStage() const override {
    return FlowStage::kGlobalPlacement;
  }
  double* secondsSlot(FlowResult& r) const override { return &r.gpSeconds; }
  double* hpwlSlot(FlowResult& r) const override { return &r.hpwlGp; }

  void run(StageContext& context) override {
    GlobalPlacerOptions gp = context.options.gp;
    gp.telemetry = context.telemetry;
    gp.telemetryLabel = context.options.telemetryLabel;
    if (!resume_state_.empty()) {
      gp.resumeState = &resume_state_;
    }
    if (context.checkpointer != nullptr &&
        context.options.checkpointEveryIterations > 0) {
      gp.checkpointEveryIterations = context.options.checkpointEveryIterations;
      gp.checkpointSink = [this, &context](const std::string& state) {
        state_ = state;
        context.checkpointer->saveMidStage(context, *this);
      };
    }
    GlobalPlacer<T> placer(context.db, gp);
    const GlobalPlacerResult r = placer.run();
    context.result.gpIterations = r.iterations;
    context.result.overflow = r.overflow;
    resume_state_.clear();
    state_.clear();
  }

  void saveState(ByteWriter& w) const override { w.str(state_); }
  void loadState(ByteReader& r) override { resume_state_ = r.str(); }

 private:
  std::string state_;         ///< Latest mid-run snapshot from the sink.
  std::string resume_state_;  ///< Snapshot to resume from (via loadState).
};

/// Routability-driven GP (paper Table V): the inflation loop owns its GP
/// restarts, so this stage checkpoints only at its boundary.
template <typename T>
class RoutabilityGpStage final : public PipelineStage {
 public:
  const char* name() const override { return "gp_rt"; }
  FlowStage heartbeatStage() const override {
    return FlowStage::kGlobalPlacement;
  }
  double* secondsSlot(FlowResult& r) const override { return &r.gpSeconds; }
  double* hpwlSlot(FlowResult& r) const override { return &r.hpwlGp; }

  void run(StageContext& context) override {
    RoutabilityOptions ropts = context.options.routabilityOptions;
    ropts.gp = context.options.gp;
    ropts.gp.telemetry = context.telemetry;
    ropts.gp.telemetryLabel = context.options.telemetryLabel;
    RoutabilityDrivenPlacer<T> placer(context.db, ropts);
    const RoutabilityResult r = placer.run();
    context.result.gpIterations = r.gp.iterations;
    context.result.overflow = r.gp.overflow;
    context.result.nlSeconds = r.nlSeconds;
    context.result.grSeconds = r.grSeconds;
    context.result.rc = r.congestion.rc;
  }
};

/// Movable macros (mixed-size placement) first; they become obstacles
/// for the standard-cell legalizers.
class MacroLegalizationStage final : public PipelineStage {
 public:
  const char* name() const override { return "macro_lg"; }
  FlowStage heartbeatStage() const override {
    return FlowStage::kLegalization;
  }
  const char* timerKey() const override { return "lg"; }
  double* secondsSlot(FlowResult& r) const override { return &r.lgSeconds; }

  void run(StageContext& context) override {
    MacroLegalizer macro_lg;
    macro_lg.run(context.db);
  }
};

/// Abacus legalizes directly from the GP positions (minimal movement).
/// If any cell fails to fit (pathological fragmentation), fall back to
/// the Tetris-like greedy packing and re-run Abacus from there — and
/// record how that re-run went: a second failure means the placement is
/// not legal, which the flow result must say instead of discovering it
/// later (or never) through checkLegality.
class AbacusLegalizationStage final : public PipelineStage {
 public:
  const char* name() const override { return "lg"; }
  FlowStage heartbeatStage() const override {
    return FlowStage::kLegalization;
  }
  const char* timerKey() const override { return "lg"; }
  double* secondsSlot(FlowResult& r) const override { return &r.lgSeconds; }
  double* hpwlSlot(FlowResult& r) const override { return &r.hpwlLegal; }

  void run(StageContext& context) override {
    Database& db = context.db;
    AbacusLegalizer abacus(context.options.abacus);
    LegalizerResult lg = abacus.run(db);
    if (lg.failed > 0) {
      currentCounterRegistry().add("lg/fallback");
      context.result.lgFallback = true;
      GreedyLegalizer greedy(context.options.greedy);
      greedy.run(db);
      lg = abacus.run(db);
      if (lg.failed > 0) {
        logWarn("lg: %d cells still unplaced after greedy fallback; "
                "placement is not legal",
                lg.failed);
      }
    }
    context.result.lgFailedCells = lg.failed;
  }
};

class DetailedPlacementStage final : public PipelineStage {
 public:
  const char* name() const override { return "dp"; }
  FlowStage heartbeatStage() const override {
    return FlowStage::kDetailedPlacement;
  }
  double* secondsSlot(FlowResult& r) const override { return &r.dpSeconds; }
  double* hpwlSlot(FlowResult& r) const override { return &r.hpwl; }

  void run(StageContext& context) override {
    if (!context.options.runDetailedPlacement) {
      return;
    }
    DetailedPlacer dp(context.options.dp);
    dp.run(context.db);
  }
};

/// Legality verdict and total wall time. A separate stage so a resumed
/// flow re-derives both from the restored database instead of trusting
/// a stale checkpoint value.
class FinalizeStage final : public PipelineStage {
 public:
  const char* name() const override { return "finalize"; }
  FlowStage heartbeatStage() const override { return FlowStage::kDone; }

  void run(StageContext& context) override {
    context.result.legal = checkLegality(context.db).legal;
    context.result.totalSeconds = context.totalTimer->elapsed();
  }
};

/// Routability mode: re-estimate congestion on the final legalized
/// placement (paper Table V's RC / scaled-HPWL columns).
class RouteEstimateStage final : public PipelineStage {
 public:
  const char* name() const override { return "route"; }
  FlowStage heartbeatStage() const override { return FlowStage::kDone; }

  void run(StageContext& context) override {
    GlobalRouter router(context.options.routabilityOptions.router);
    const CongestionReport report = computeCongestion(router.route(context.db));
    context.result.rc = report.rc;
    context.result.sHpwl = scaledHpwl(context.result.hpwl, context.result.rc);
  }
};

/// Restores database positions, counters, partial results, and (mid-stage
/// checkpoints) the in-progress stage's state. Returns the stage cursor to
/// continue from. Throws on any mismatch with the pipeline about to run —
/// resuming an incompatible checkpoint must fail loudly, not converge to
/// a subtly different placement.
std::size_t restoreFromCheckpoint(
    const std::vector<std::unique_ptr<PipelineStage>>& stages,
    const std::string& signature, std::uint8_t precision,
    StageContext& context) {
  const CheckpointData data = loadCheckpointFile(context.options.resumeFrom);
  if (data.precision != precision) {
    throw std::runtime_error(
        "checkpoint: precision mismatch (checkpoint is " +
        std::string(data.precision != 0 ? "float64" : "float32") +
        ", flow runs " + std::string(precision != 0 ? "float64" : "float32") +
        ")");
  }
  if (data.signature != signature) {
    throw std::runtime_error("checkpoint: pipeline mismatch (checkpoint from '" +
                             data.signature + "', this flow runs '" +
                             signature + "')");
  }
  if (data.stageCursor > stages.size()) {
    throw std::runtime_error("checkpoint: stage cursor " +
                             std::to_string(data.stageCursor) +
                             " out of range for " +
                             std::to_string(stages.size()) + " stages");
  }
  Database& db = context.db;
  if (data.cellX.size() != static_cast<std::size_t>(db.numMovable())) {
    throw std::runtime_error(
        "checkpoint: design mismatch (" + std::to_string(data.cellX.size()) +
        " movable cells in checkpoint, " + std::to_string(db.numMovable()) +
        " in database)");
  }
  for (std::size_t i = 0; i < data.cellX.size(); ++i) {
    db.setCellPosition(static_cast<Index>(i), data.cellX[i], data.cellY[i]);
  }
  // Additive restore: the resumed flow runs under a fresh (zeroed)
  // registry, so original-run values + resumed-segment increments equal
  // an uninterrupted run's counters (docs/FLOW.md lists the exceptions).
  CounterRegistry& counters = FlowContext::current().counters();
  for (const auto& [key, value] : data.counters) {
    // Resume-variant counters (allocation splits, checkpoint and
    // scheduling bookkeeping; place/engine.h) stay per-segment: restoring
    // them additively would make e.g. ws_alloc read 2 on a resumed run
    // and break the per-run baseline's exact pins.
    if (!isResumeVariantCounter(key)) {
      counters.add(key, value);
    }
  }
  counters.add("checkpoint/loads");
  context.result = data.result;
  if (data.midStage && data.stageCursor < stages.size() &&
      !data.stageState.empty()) {
    ByteReader r(data.stageState);
    stages[data.stageCursor]->loadState(r);
  }
  logInfo("pipeline: resumed from %s at stage %u/%zu (%s%s)",
          context.options.resumeFrom.c_str(), data.stageCursor, stages.size(),
          data.stageCursor < stages.size()
              ? stages[data.stageCursor]->name()
              : "done",
          data.midStage ? ", mid-stage" : "");
  return data.stageCursor;
}

/// The flow's `parallel/jobs` count and its pool's busy/capacity clocks
/// now; the pipeline charges their change across a step to the step's
/// stage.
FlowContext::StagePool poolClocks(FlowContext& flow) {
  ThreadPool& pool = flow.pool();
  return {flow.counters().value("parallel/jobs"), pool.busyMicros(),
          pool.capacityMicros()};
}

}  // namespace

// --- FlowCheckpointer ------------------------------------------------------

FlowCheckpointer::FlowCheckpointer(std::string path, std::string signature,
                                   std::uint8_t precision)
    : path_(std::move(path)),
      signature_(std::move(signature)),
      precision_(precision) {}

void FlowCheckpointer::saveBoundary(const StageContext& context,
                                    std::size_t nextCursor) {
  save(context, nextCursor, /*midStage=*/false, {});
}

void FlowCheckpointer::saveMidStage(const StageContext& context,
                                    const PipelineStage& stage) {
  ByteWriter w;
  stage.saveState(w);
  save(context, context.stageIndex, /*midStage=*/true, w.take());
}

void FlowCheckpointer::clear() { std::remove(path_.c_str()); }

void FlowCheckpointer::save(const StageContext& context, std::size_t cursor,
                            bool midStage, std::string stageState) {
  // Ticked before the snapshot so the checkpoint accounts for itself;
  // checkpoint/* counters are excluded from resume comparisons anyway
  // (isResumeVariantCounter).
  currentCounterRegistry().add("checkpoint/saves");
  CheckpointData data;
  data.precision = precision_;
  data.signature = signature_;
  data.stageCursor = static_cast<std::uint32_t>(cursor);
  data.midStage = midStage;
  data.stageState = std::move(stageState);
  data.result = context.result;
  const Database& db = context.db;
  const std::size_t movable = static_cast<std::size_t>(db.numMovable());
  data.cellX.reserve(movable);
  data.cellY.reserve(movable);
  for (std::size_t i = 0; i < movable; ++i) {
    data.cellX.push_back(db.cellX(static_cast<Index>(i)));
    data.cellY.push_back(db.cellY(static_cast<Index>(i)));
  }
  for (const auto& [key, value] :
       FlowContext::current().counters().snapshot()) {
    data.counters.emplace_back(key, value);
  }
  std::string error;
  if (!writeCheckpointFile(path_, data, &error)) {
    throw std::runtime_error(error);
  }
}

// --- FlowPipeline ----------------------------------------------------------

FlowPipeline::FlowPipeline(std::vector<std::unique_ptr<PipelineStage>> stages)
    : stages_(std::move(stages)) {}

std::string FlowPipeline::signature() const {
  std::string s;
  for (const auto& stage : stages_) {
    if (!s.empty()) {
      s += '|';
    }
    s += stage->name();
  }
  return s;
}

void FlowPipeline::run(StageContext& context) {
  Timer total;
  context.totalTimer = &total;
  FlowContext& flow = FlowContext::current();

  std::unique_ptr<FlowCheckpointer> checkpointer;
  const std::string checkpoint_path = checkpointFilePath(context.options);
  const std::uint8_t precision =
      context.options.precision == Precision::kFloat64 ? 1 : 0;
  if (!checkpoint_path.empty()) {
    checkpointer = std::make_unique<FlowCheckpointer>(checkpoint_path,
                                                      signature(), precision);
    context.checkpointer = checkpointer.get();
  }

  std::size_t cursor = 0;
  if (!context.options.resumeFrom.empty()) {
    cursor = restoreFromCheckpoint(stages_, signature(), precision, context);
  }

  FlowStage last_stage = FlowStage::kIdle;
  for (std::size_t i = cursor; i < stages_.size(); ++i) {
    PipelineStage& stage = *stages_[i];
    context.stageIndex = i;
    flow.throwIfInterrupted();
    if (stage.heartbeatStage() != last_stage) {
      flow.heartbeat().beginStage(stage.heartbeatStage());
      last_stage = stage.heartbeatStage();
    }
    Timer stage_timer;
    const FlowContext::StagePool pool_before = poolClocks(flow);
    {
      std::optional<ScopedTimer> scope;
      if (stage.timerKey() != nullptr) {
        scope.emplace(stage.timerKey());
      }
      stage.run(context);
    }
    if (stage.heartbeatStage() != FlowStage::kDone) {
      const FlowContext::StagePool pool_after = poolClocks(flow);
      flow.addStagePool(
          flowStageName(stage.heartbeatStage()),
          {pool_after.jobs - pool_before.jobs,
           pool_after.busyMicros - pool_before.busyMicros,
           pool_after.capacityMicros - pool_before.capacityMicros});
    }
    if (double* slot = stage.secondsSlot(context.result)) {
      *slot += stage_timer.elapsed();
    }
    if (double* slot = stage.hpwlSlot(context.result)) {
      *slot = hpwl(context.db);
    }
    if (context.checkpointer != nullptr && i + 1 < stages_.size()) {
      context.checkpointer->saveBoundary(context, i + 1);
    }
  }

  if (context.checkpointer != nullptr) {
    context.checkpointer->clear();
    context.checkpointer = nullptr;
  }
}

template <typename T>
FlowPipeline buildFlowPipeline(const PlacerOptions& options) {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  if (options.runGlobalPlacement) {
    if (options.routability) {
      stages.push_back(std::make_unique<RoutabilityGpStage<T>>());
    } else {
      stages.push_back(std::make_unique<GlobalPlacementStage<T>>());
    }
  }
  stages.push_back(std::make_unique<MacroLegalizationStage>());
  stages.push_back(std::make_unique<AbacusLegalizationStage>());
  stages.push_back(std::make_unique<DetailedPlacementStage>());
  stages.push_back(std::make_unique<FinalizeStage>());
  if (options.routability) {
    stages.push_back(std::make_unique<RouteEstimateStage>());
  }
  return FlowPipeline(std::move(stages));
}

template FlowPipeline buildFlowPipeline<float>(const PlacerOptions& options);
template FlowPipeline buildFlowPipeline<double>(const PlacerOptions& options);

}  // namespace dreamplace

#include "place/report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/flow_context.h"
#include "common/json_writer.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace dreamplace {

namespace {

const char* precisionName(Precision p) {
  return p == Precision::kFloat32 ? "float32" : "float64";
}

const char* wlModelName(WirelengthModel m) {
  return m == WirelengthModel::kWeightedAverage ? "weighted_average"
                                                : "log_sum_exp";
}

const char* wlKernelName(WirelengthKernel k) {
  switch (k) {
    case WirelengthKernel::kNetByNet: return "net_by_net";
    case WirelengthKernel::kAtomic: return "atomic";
    case WirelengthKernel::kMerged: return "merged";
  }
  return "?";
}

const char* densityKernelName(DensityKernel k) {
  return k == DensityKernel::kNaive ? "naive" : "sorted";
}

const char* dctName(fft::Dct2dAlgorithm a) {
  switch (a) {
    case fft::Dct2dAlgorithm::kRowColNaive: return "rowcol_naive";
    case fft::Dct2dAlgorithm::kRowCol2N: return "rowcol_2n";
    case fft::Dct2dAlgorithm::kRowColN: return "rowcol_n";
    case fft::Dct2dAlgorithm::kFft2dN: return "fft2d_n";
  }
  return "?";
}

const char* initName(InitialPlacement i) {
  return i == InitialPlacement::kRandomCenter ? "random_center" : "spread";
}

using json::Json;

std::string formatBytes(std::int64_t bytes) {
  char buf[32];
  if (bytes >= 1 << 20) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= 1 << 10) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRId64 " B", bytes);
  }
  return buf;
}

bool writeFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace

// Defined here rather than placer.cpp so it shares the enum-name helpers
// the report's config summary uses — the two renderings cannot drift.
std::string PlacerOptions::toJson() const {
  Json j;
  j.openObject();
  j.key("precision"); j.value(precisionName(precision));
  j.key("threads"); j.value(threads);
  j.key("run_global_placement"); j.value(runGlobalPlacement);
  j.key("run_detailed_placement"); j.value(runDetailedPlacement);
  j.key("routability"); j.value(routability);
  j.key("telemetry_label"); j.value(telemetryLabel);

  j.key("gp");
  j.openObject();
  j.key("target_density"); j.value(gp.targetDensity);
  j.key("solver"); j.value(solverName(gp.solver));
  j.key("lr"); j.value(gp.lr);
  j.key("lr_decay"); j.value(gp.lrDecay);
  j.key("wl_model"); j.value(wlModelName(gp.wlModel));
  j.key("wl_kernel"); j.value(wlKernelName(gp.wlKernel));
  j.key("density_kernel"); j.value(densityKernelName(gp.densityKernel));
  j.key("density_subdivision"); j.value(gp.densitySubdivision);
  j.key("dct"); j.value(dctName(gp.dct));
  j.key("max_iterations"); j.value(gp.maxIterations);
  j.key("min_iterations"); j.value(gp.minIterations);
  j.key("stop_overflow"); j.value(gp.stopOverflow);
  j.key("seed"); j.value(static_cast<std::int64_t>(gp.seed));
  j.key("init"); j.value(initName(gp.init));
  j.key("noise_ratio"); j.value(gp.noiseRatio);
  j.key("lambda_update_every"); j.value(gp.lambdaUpdateEvery);
  j.key("tcad_mu_variant"); j.value(gp.tcadMuVariant);
  j.key("ignore_net_degree");
  j.value(static_cast<std::int64_t>(gp.ignoreNetDegree));
  j.key("precondition"); j.value(gp.precondition);
  j.key("bins_max"); j.value(gp.binsMax);
  j.key("initial_density_weight"); j.value(gp.initialDensityWeight);
  j.key("fences"); j.value(static_cast<std::int64_t>(gp.fences.size()));
  j.key("inflated_cells");
  j.value(static_cast<std::int64_t>(gp.inflation.size()));
  j.closeObject();

  j.key("greedy");
  j.openObject();
  j.key("row_search_window"); j.value(greedy.rowSearchWindow);
  j.closeObject();

  j.key("abacus");
  j.openObject();
  j.key("row_search_window"); j.value(abacus.rowSearchWindow);
  j.closeObject();

  j.key("dp");
  j.openObject();
  j.key("passes"); j.value(dp.passes);
  j.key("window_size"); j.value(dp.windowSize);
  j.key("swap_radius_rows"); j.value(dp.swapRadiusRows);
  j.key("max_candidates"); j.value(dp.maxCandidates);
  j.key("convergence_tolerance"); j.value(dp.convergenceTolerance);
  j.key("enable_ism"); j.value(dp.enableIsm);
  j.key("ism_set_size"); j.value(dp.ismSetSize);
  j.closeObject();

  if (routability) {
    j.key("routability_options");
    j.openObject();
    j.key("inflation_trigger"); j.value(routabilityOptions.inflationTrigger);
    j.key("inflation_exponent"); j.value(routabilityOptions.inflationExponent);
    j.key("inflation_max"); j.value(routabilityOptions.inflationMax);
    j.key("whitespace_budget"); j.value(routabilityOptions.whitespaceBudget);
    j.key("stop_inflation_ratio");
    j.value(routabilityOptions.stopInflationRatio);
    j.key("max_rounds"); j.value(routabilityOptions.maxRounds);
    j.key("slow_lambda_every"); j.value(routabilityOptions.slowLambdaEvery);
    j.key("router");
    j.openObject();
    j.key("grid_x"); j.value(routabilityOptions.router.gridX);
    j.key("grid_y"); j.value(routabilityOptions.router.gridY);
    j.key("layer_pairs"); j.value(routabilityOptions.router.numLayerPairs);
    j.key("capacity_per_layer");
    j.value(routabilityOptions.router.capacityPerLayer);
    j.key("capacity_factor"); j.value(routabilityOptions.router.capacityFactor);
    j.key("wire_pitch"); j.value(routabilityOptions.router.wirePitch);
    j.key("reroute_rounds"); j.value(routabilityOptions.router.rerouteRounds);
    j.key("max_net_degree");
    j.value(static_cast<std::int64_t>(routabilityOptions.router.maxNetDegree));
    j.closeObject();
    j.closeObject();
  }

  j.key("checkpoint");
  j.openObject();
  j.key("dir"); j.value(checkpointDir);
  j.key("name"); j.value(checkpointName);
  j.key("every_iterations"); j.value(checkpointEveryIterations);
  j.key("resume_from"); j.value(resumeFrom);
  j.closeObject();

  j.key("exports");
  j.openObject();
  j.key("telemetry_jsonl"); j.value(telemetryJsonl);
  j.key("telemetry_csv"); j.value(telemetryCsv);
  j.key("trace_file"); j.value(traceFile);
  j.key("report_json"); j.value(reportJson);
  j.key("report_text"); j.value(reportText);
  j.closeObject();

  j.closeObject();
  return j.out;
}

RunReport buildRunReport(const Database& db, const PlacerOptions& options,
                         const FlowResult& result,
                         const std::vector<TelemetryRunSummary>& gpRuns,
                         FlowContext& context) {
  RunReport report;
  report.label = options.telemetryLabel;

  report.numCells = db.numCells();
  report.numMovable = db.numMovable();
  report.numNets = db.numNets();
  report.numPins = db.numPins();
  report.utilization = static_cast<double>(db.utilization());

  report.precision = precisionName(options.precision);
  report.solver = solverName(options.gp.solver);
  report.wirelengthModel = wlModelName(options.gp.wlModel);
  report.wirelengthKernel = wlKernelName(options.gp.wlKernel);
  report.densityKernel = densityKernelName(options.gp.densityKernel);
  report.dctAlgorithm = dctName(options.gp.dct);
  report.initialPlacement = initName(options.gp.init);
  report.targetDensity = options.gp.targetDensity;
  report.stopOverflow = options.gp.stopOverflow;
  report.maxIterations = options.gp.maxIterations;
  report.binsMax = options.gp.binsMax;
  report.routability = options.routability;
  report.detailedPlacement = options.runDetailedPlacement;
  report.optionsJson = options.toJson();

  report.result = result;
  // IO typically happens before placeDesign (reader scopes land in the
  // default context); fold it in with any flow-local "io/" scopes.
  report.ioSeconds = context.timing().totalPrefix("io");
  if (!context.isDefault()) {
    report.ioSeconds +=
        FlowContext::defaultContext().timing().totalPrefix("io");
  }
  report.gpRuns = gpRuns;

  // Pool time since markFlowStart(). The pool may be shared with
  // concurrent jobs, so busy/capacity are wall-clock facts about this
  // window, not per-flow invariants — the gate never checks them.
  ThreadPool& pool = context.pool();
  report.threads = pool.threads();
  const std::int64_t busy_us =
      pool.busyMicros() - context.poolBusyStartMicros();
  const std::int64_t cap_us =
      pool.capacityMicros() - context.poolCapacityStartMicros();
  report.poolBusySeconds = static_cast<double>(busy_us) * 1e-6;
  report.poolCapacitySeconds = static_cast<double>(cap_us) * 1e-6;
  report.poolUtilization =
      cap_us > 0 ? std::clamp(static_cast<double>(busy_us) / cap_us, 0.0, 1.0)
                 : 0.0;
  report.poolByStage = context.stagePool();

  report.simdEnabled = simd::kEnabled;
  report.simdIsa = simd::activeIsaName();
  report.simdWidthF32 = simd::kNativeWidth<float>;
  report.simdWidthF64 = simd::kNativeWidth<double>;

  // Per-flow registries start empty at flow start, so their contents ARE
  // this run's numbers — no delta arithmetic, no cross-flow leakage.
  for (auto& [key, stat] : context.timing().statsSnapshot()) {
    if (stat.count != 0 || stat.seconds != 0.0) {
      report.timing.emplace(key, stat);
    }
  }
  for (auto& [key, value] : context.counters().snapshot()) {
    if (value != 0) {
      report.counters.emplace(key, value);
    }
  }

  // Conditions a reader should not have to dig out of the counter table.
  const auto dropped = report.counters.find("trace/dropped");
  if (dropped != report.counters.end() && dropped->second > 0) {
    report.warnings.push_back(
        "trace/dropped=" + std::to_string(dropped->second) +
        ": the bounded trace buffer overflowed; raise traceCapacity or "
        "disable tracing for this flow");
  }

  // Memory: merge pre-flow attributions (the database, loaded under the
  // default context before placeDesign) with the flow's own workspaces.
  report.trackedMemory = context.memory().snapshot();
  if (!context.isDefault()) {
    for (const auto& [key, usage] :
         FlowContext::defaultContext().memory().snapshot()) {
      MemoryTracker::Usage& merged = report.trackedMemory[key];
      merged.currentBytes += usage.currentBytes;
      merged.peakBytes += usage.peakBytes;
    }
  }
  report.processMemory = sampleProcessMemory();
  return report;
}

std::string RunReport::toJson() const {
  Json j;
  j.openObject();
  j.key("schema");
  j.value(std::string(kSchema));
  j.key("label");
  j.value(label);

  j.key("design");
  j.openObject();
  j.key("cells"); j.value(static_cast<std::int64_t>(numCells));
  j.key("movable"); j.value(static_cast<std::int64_t>(numMovable));
  j.key("nets"); j.value(static_cast<std::int64_t>(numNets));
  j.key("pins"); j.value(static_cast<std::int64_t>(numPins));
  j.key("utilization"); j.value(utilization);
  j.closeObject();

  j.key("config");
  j.openObject();
  j.key("precision"); j.value(precision);
  j.key("solver"); j.value(solver);
  j.key("wl_model"); j.value(wirelengthModel);
  j.key("wl_kernel"); j.value(wirelengthKernel);
  j.key("density_kernel"); j.value(densityKernel);
  j.key("dct"); j.value(dctAlgorithm);
  j.key("init"); j.value(initialPlacement);
  j.key("target_density"); j.value(targetDensity);
  j.key("stop_overflow"); j.value(stopOverflow);
  j.key("max_iterations"); j.value(maxIterations);
  j.key("bins_max"); j.value(binsMax);
  j.key("routability"); j.value(routability);
  j.key("detailed_placement"); j.value(detailedPlacement);
  if (!optionsJson.empty()) {
    j.key("options");
    j.rawValue(optionsJson);
  }
  j.closeObject();

  j.key("result");
  j.openObject();
  j.key("hpwl_gp"); j.value(result.hpwlGp);
  j.key("hpwl_legal"); j.value(result.hpwlLegal);
  j.key("hpwl"); j.value(result.hpwl);
  j.key("overflow"); j.value(result.overflow);
  j.key("gp_iterations"); j.value(result.gpIterations);
  j.key("legal"); j.value(result.legal);
  j.key("lg_fallback"); j.value(result.lgFallback);
  j.key("lg_failed_cells"); j.value(result.lgFailedCells);
  j.closeObject();

  j.key("stages");
  j.openObject();
  j.key("gp_s"); j.value(result.gpSeconds);
  j.key("lg_s"); j.value(result.lgSeconds);
  j.key("dp_s"); j.value(result.dpSeconds);
  j.key("io_s"); j.value(ioSeconds);
  j.key("total_s"); j.value(result.totalSeconds);
  j.closeObject();

  j.key("parallel");
  j.openObject();
  j.key("threads"); j.value(threads);
  j.key("busy_s"); j.value(poolBusySeconds);
  j.key("capacity_s"); j.value(poolCapacitySeconds);
  j.key("utilization"); j.value(poolUtilization);
  j.key("by_stage");
  j.openObject();
  for (const auto& [stage, pool] : poolByStage) {
    j.key(stage);
    j.openObject();
    j.key("jobs"); j.value(pool.jobs);
    j.key("busy_s"); j.value(static_cast<double>(pool.busyMicros) * 1e-6);
    j.key("capacity_s");
    j.value(static_cast<double>(pool.capacityMicros) * 1e-6);
    j.closeObject();
  }
  j.closeObject();
  j.closeObject();

  j.key("simd");
  j.openObject();
  j.key("enabled"); j.value(simdEnabled);
  j.key("isa"); j.value(simdIsa);
  j.key("width_f32"); j.value(simdWidthF32);
  j.key("width_f64"); j.value(simdWidthF64);
  j.closeObject();

  // Back-end (LG/DP) work summary, lifted out of the counter table so the
  // report states the post-GP effort at a glance.
  {
    const auto counterOr0 = [this](const char* key) -> std::int64_t {
      const auto it = counters.find(key);
      return it == counters.end() ? 0 : it->second;
    };
    j.key("backend");
    j.openObject();
    j.key("lg_segments_tried"); j.value(counterOr0("lg/segments_tried"));
    j.key("dp_reorder_windows"); j.value(counterOr0("dp/reorder_windows"));
    j.key("dp_reorder_moves"); j.value(counterOr0("dp/reorder_moves"));
    j.key("dp_swap_candidates"); j.value(counterOr0("dp/swap_candidates"));
    j.key("dp_swap_moves"); j.value(counterOr0("dp/swap_moves"));
    j.key("dp_ism_moves"); j.value(counterOr0("dp/ism_moves"));
    j.key("dp_bbox_delta"); j.value(counterOr0("dp/bbox_delta"));
    j.key("dp_bbox_rescan"); j.value(counterOr0("dp/bbox_rescan"));
    j.closeObject();
  }

  j.key("gp_runs");
  j.openArray();
  for (const TelemetryRunSummary& run : gpRuns) {
    j.openObject();
    j.key("iterations"); j.value(run.iterations);
    j.key("hpwl"); j.value(run.hpwl);
    j.key("overflow"); j.value(run.overflow);
    j.key("lambda"); j.value(run.lambda);
    j.key("seconds"); j.value(run.seconds);
    j.closeObject();
  }
  j.closeArray();

  j.key("timing");
  j.openObject();
  for (const auto& [key, stat] : timing) {
    j.key(key);
    j.openObject();
    j.key("count"); j.value(stat.count);
    j.key("incl_s"); j.value(stat.seconds);
    j.key("self_s"); j.value(stat.selfSeconds);
    j.closeObject();
  }
  j.closeObject();

  j.key("counters");
  j.openObject();
  for (const auto& [key, value] : counters) {
    j.key(key);
    j.value(value);
  }
  j.closeObject();

  j.key("warnings");
  j.openArray();
  for (const std::string& warning : warnings) {
    j.value(warning);
  }
  j.closeArray();

  j.key("memory");
  j.openObject();
  j.key("tracked");
  j.openObject();
  for (const auto& [key, usage] : trackedMemory) {
    j.key(key);
    j.openObject();
    j.key("current_bytes"); j.value(usage.currentBytes);
    j.key("peak_bytes"); j.value(usage.peakBytes);
    j.closeObject();
  }
  j.closeObject();
  j.key("process");
  j.openObject();
  j.key("vm_rss_bytes"); j.value(processMemory.vmRssBytes);
  j.key("vm_hwm_bytes"); j.value(processMemory.vmHwmBytes);
  j.key("valid"); j.value(processMemory.valid);
  j.closeObject();
  j.closeObject();

  j.closeObject();
  j.out += '\n';
  return j.out;
}

std::string RunReport::toText() const {
  std::string out;
  char line[256];
  const auto add = [&out, &line] { out += line; };

  std::snprintf(line, sizeof(line), "=== flow run report%s%s ===\n",
                label.empty() ? "" : ": ", label.c_str());
  add();
  std::snprintf(line, sizeof(line),
                "design: %d cells (%d movable), %d nets, %d pins\n",
                static_cast<int>(numCells), static_cast<int>(numMovable),
                static_cast<int>(numNets), static_cast<int>(numPins));
  add();
  std::snprintf(line, sizeof(line),
                "config: %s, %s solver, wl %s/%s, density %s, dct %s\n",
                precision.c_str(), solver.c_str(), wirelengthModel.c_str(),
                wirelengthKernel.c_str(), densityKernel.c_str(),
                dctAlgorithm.c_str());
  add();
  std::snprintf(line, sizeof(line),
                "result: hpwl %.4e (gp %.4e, legal %.4e), overflow %.4f, "
                "%d GP iterations, %s\n",
                result.hpwl, result.hpwlGp, result.hpwlLegal, result.overflow,
                result.gpIterations, result.legal ? "legal" : "NOT LEGAL");
  add();
  if (result.lgFallback || result.lgFailedCells > 0) {
    std::snprintf(line, sizeof(line),
                  "legalization: greedy fallback taken, %d cells unplaced "
                  "after final pass\n",
                  result.lgFailedCells);
    add();
  }

  out += "\nstages:\n";
  const double total = std::max(result.totalSeconds, 1e-12);
  const auto stage = [&](const char* name, double s) {
    std::snprintf(line, sizeof(line), "  %-6s %9.3fs %6.1f%%\n", name, s,
                  100.0 * s / total);
    add();
  };
  stage("gp", result.gpSeconds);
  stage("lg", result.lgSeconds);
  stage("dp", result.dpSeconds);
  stage("io", ioSeconds);
  std::snprintf(line, sizeof(line), "  %-6s %9.3fs\n", "total",
                result.totalSeconds);
  add();

  std::snprintf(line, sizeof(line),
                "\nparallel: %d threads, pool %.3fs busy / %.3fs capacity "
                "(%.0f%% utilization)\n",
                threads, poolBusySeconds, poolCapacitySeconds,
                100.0 * poolUtilization);
  add();
  for (const auto& [stage, pool] : poolByStage) {
    std::snprintf(line, sizeof(line),
                  "  %-6s %8" PRId64 " jobs, %.3fs busy / %.3fs capacity\n",
                  stage.c_str(), pool.jobs,
                  static_cast<double>(pool.busyMicros) * 1e-6,
                  static_cast<double>(pool.capacityMicros) * 1e-6);
    add();
  }

  std::snprintf(line, sizeof(line),
                "simd: %s (%s, %d/%d lanes f32/f64)\n",
                simdEnabled ? "on" : "off", simdIsa.c_str(), simdWidthF32,
                simdWidthF64);
  add();

  {
    const auto counterOr0 = [this](const char* key) -> std::int64_t {
      const auto it = counters.find(key);
      return it == counters.end() ? 0 : it->second;
    };
    const std::int64_t lg_tried = counterOr0("lg/segments_tried");
    const std::int64_t windows = counterOr0("dp/reorder_windows");
    const std::int64_t cands = counterOr0("dp/swap_candidates");
    if (lg_tried > 0 || windows > 0 || cands > 0) {
      std::snprintf(line, sizeof(line),
                    "backend: lg %" PRId64 " segment trials; dp %" PRId64
                    " windows, %" PRId64 " swap candidates, bbox %" PRId64
                    " delta / %" PRId64 " rescan\n",
                    lg_tried, windows, cands, counterOr0("dp/bbox_delta"),
                    counterOr0("dp/bbox_rescan"));
      add();
    }
  }

  if (!gpRuns.empty()) {
    out += "\ngp runs:\n";
    for (std::size_t i = 0; i < gpRuns.size(); ++i) {
      const TelemetryRunSummary& run = gpRuns[i];
      std::snprintf(line, sizeof(line),
                    "  #%zu: %d iters, hpwl %.4e, overflow %.4f, %.2fs\n", i,
                    run.iterations, run.hpwl, run.overflow, run.seconds);
      add();
    }
  }

  if (!timing.empty()) {
    out += "\ntop self-time scopes:\n";
    std::vector<std::pair<std::string, TimingStat>> rows(timing.begin(),
                                                         timing.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.selfSeconds > b.second.selfSeconds;
    });
    const std::size_t top = std::min<std::size_t>(rows.size(), 12);
    for (std::size_t i = 0; i < top; ++i) {
      std::snprintf(line, sizeof(line),
                    "  %-32s %8" PRId64 "x %9.3fs self %9.3fs incl\n",
                    rows[i].first.c_str(), rows[i].second.count,
                    rows[i].second.selfSeconds, rows[i].second.seconds);
      add();
    }
  }

  if (!trackedMemory.empty()) {
    out += "\ntracked memory:\n";
    for (const auto& [key, usage] : trackedMemory) {
      std::snprintf(line, sizeof(line), "  %-32s %12s current %12s peak\n",
                    key.c_str(), formatBytes(usage.currentBytes).c_str(),
                    formatBytes(usage.peakBytes).c_str());
      add();
    }
  }
  if (processMemory.valid) {
    std::snprintf(line, sizeof(line),
                  "process rss: %s current, %s peak\n",
                  formatBytes(processMemory.vmRssBytes).c_str(),
                  formatBytes(processMemory.vmHwmBytes).c_str());
    add();
  }

  if (!counters.empty()) {
    out += "\ncounters:\n";
    for (const auto& [key, value] : counters) {
      std::snprintf(line, sizeof(line), "  %-40s %12" PRId64 "\n", key.c_str(),
                    value);
      add();
    }
  }

  if (!warnings.empty()) {
    out += "\nwarnings:\n";
    for (const std::string& warning : warnings) {
      out += "  ! ";
      out += warning;
      out += '\n';
    }
  }
  return out;
}

bool writeRunReport(const RunReport& report, const std::string& jsonPath,
                    const std::string& textPath, std::string* error) {
  bool ok = true;
  const auto fail = [&ok, error](const std::string& path) {
    logWarn("report: cannot write %s", path.c_str());
    if (error != nullptr) {
      if (!error->empty()) {
        *error += "; ";
      }
      *error += "report: cannot write " + path;
    }
    ok = false;
  };
  if (!jsonPath.empty() && !writeFile(jsonPath, report.toJson())) {
    fail(jsonPath);
  }
  if (!textPath.empty() && !writeFile(textPath, report.toText())) {
    fail(textPath);
  }
  return ok;
}

}  // namespace dreamplace

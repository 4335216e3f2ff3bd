// Flow run report (place/report.h) and the count-based regression gate
// (place/report_check.h): JSON schema golden test, flat-parser unit
// tests, and check pass/fail behavior on fresh vs doctored reports.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gen/netlist_generator.h"
#include "place/placer.h"
#include "place/report.h"
#include "place/report_check.h"

namespace dreamplace {
namespace {

namespace fs = std::filesystem;

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::unique_ptr<Database> reportDesign() {
  GeneratorConfig cfg;
  cfg.numCells = 600;
  cfg.utilization = 0.7;
  cfg.seed = 7;
  return generateNetlist(cfg);
}

PlacerOptions reportFlow() {
  PlacerOptions options;
  options.gp.maxIterations = 300;
  options.gp.binsMax = 64;
  options.dp.passes = 1;
  return options;
}

/// Runs one reporting flow per process and caches the parsed document.
const FlatJson& freshReport() {
  static FlatJson* cached = nullptr;
  if (cached == nullptr) {
    // Per-process dir: ctest -j runs sibling ReportTest cases in separate
    // processes, each building its own fresh report; a shared path would
    // let one process's cleanup race another's reads.
    const fs::path dir = fs::temp_directory_path() /
                         ("dp_report_test_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const fs::path json = dir / "report.json";
    const fs::path text = dir / "report.txt";

    auto db = reportDesign();
    PlacerOptions options = reportFlow();
    options.reportJson = json.string();
    options.reportText = text.string();
    options.telemetryLabel = "report_test";
    const FlowResult result = placeDesign(*db, options);
    EXPECT_TRUE(result.legal);

    auto* flat = new FlatJson;
    std::string error;
    EXPECT_TRUE(parseJsonFlat(readFile(json), *flat, &error)) << error;
    // The text rendering exists and mentions the label.
    const std::string rendered = readFile(text);
    EXPECT_NE(rendered.find("report_test"), std::string::npos);
    EXPECT_NE(rendered.find("stages:"), std::string::npos);
    fs::remove_all(dir);
    cached = flat;
  }
  return *cached;
}

TEST(ReportTest, JsonSchemaGolden) {
  const FlatJson& report = freshReport();
  EXPECT_EQ(report.strings.at("schema"), "dreamplace.run_report.v1");
  EXPECT_EQ(report.strings.at("label"), "report_test");
  EXPECT_EQ(report.strings.at("config.precision"), "float64");

  // Pinned paths the regression gate and dashboards rely on.
  for (const char* path : {
           "design.cells", "design.movable", "design.nets", "design.pins",
           "result.hpwl", "result.overflow", "result.gp_iterations",
           "result.legal", "stages.gp_s", "stages.lg_s", "stages.dp_s",
           "stages.io_s", "stages.total_s", "parallel.threads",
           "parallel.busy_s", "parallel.capacity_s", "parallel.utilization",
           "parallel.by_stage.gp.jobs", "parallel.by_stage.gp.busy_s",
           "parallel.by_stage.gp.capacity_s", "parallel.by_stage.lg.jobs",
           "parallel.by_stage.lg.busy_s", "parallel.by_stage.lg.capacity_s",
           "parallel.by_stage.dp.jobs", "parallel.by_stage.dp.busy_s",
           "parallel.by_stage.dp.capacity_s",
           "simd.enabled", "simd.width_f32", "simd.width_f64",
           "gp_runs.0.iterations",
           "gp_runs.0.overflow", "timing.gp.count", "timing.gp.incl_s",
           "timing.gp.self_s", "counters.ops/density/evaluate",
           "counters.ops/electrostatics/solve",
           "memory.tracked.db.current_bytes",
           "memory.tracked.db.peak_bytes", "memory.process.vm_rss_bytes",
           "memory.process.valid",
       }) {
    EXPECT_TRUE(report.hasNumber(path)) << path;
  }

  // The full options echo under config.options (PlacerOptions::toJson):
  // complete, consistent with the summary fields, and faithful to the
  // requesting options.
  for (const char* path : {
           "config.options.threads", "config.options.run_global_placement",
           "config.options.run_detailed_placement",
           "config.options.routability", "config.options.gp.target_density",
           "config.options.gp.max_iterations", "config.options.gp.seed",
           "config.options.gp.bins_max", "config.options.gp.lr",
           "config.options.dp.passes", "config.options.dp.enable_ism",
           "config.options.greedy.row_search_window",
           "config.options.abacus.row_search_window",
           "config.options.checkpoint.every_iterations",
       }) {
    EXPECT_TRUE(report.hasNumber(path)) << path;
  }
  // Checkpointing was off: the config echoes the empty paths, and the
  // result records a fallback-free legalization.
  EXPECT_EQ(report.strings.at("config.options.checkpoint.dir"), "");
  EXPECT_EQ(report.strings.at("config.options.checkpoint.name"), "");
  EXPECT_EQ(report.strings.at("config.options.checkpoint.resume_from"), "");
  EXPECT_EQ(report.numbers.at("config.options.run_global_placement"), 1.0);
  EXPECT_EQ(report.numbers.at("result.lg_fallback"), 0.0);
  EXPECT_EQ(report.numbers.at("result.lg_failed_cells"), 0.0);
  EXPECT_EQ(report.strings.at("config.options.precision"),
            report.strings.at("config.precision"));
  EXPECT_EQ(report.strings.at("config.options.gp.solver"),
            report.strings.at("config.solver"));
  EXPECT_EQ(report.strings.at("config.options.gp.dct"),
            report.strings.at("config.dct"));
  EXPECT_EQ(report.numbers.at("config.options.gp.max_iterations"), 300.0);
  EXPECT_EQ(report.numbers.at("config.options.gp.bins_max"), 64.0);
  EXPECT_EQ(report.numbers.at("config.options.dp.passes"), 1.0);
  // Routability was off, so its sub-options are omitted.
  EXPECT_FALSE(report.hasNumber("config.options.routability_options.max_rounds"));

  EXPECT_EQ(report.numbers.at("design.movable"), 600.0);  // pads excluded
  EXPECT_EQ(report.numbers.at("timing.gp.count"), 1.0);
  EXPECT_GE(report.numbers.at("parallel.threads"), 1.0);
  EXPECT_GE(report.numbers.at("parallel.utilization"), 0.0);
  EXPECT_LE(report.numbers.at("parallel.utilization"), 1.0);
  // The stage split covers GP's fork-joins and never exceeds the flow's
  // total (finalize runs outside the three stages).
  const double stage_jobs = report.numbers.at("parallel.by_stage.gp.jobs") +
                            report.numbers.at("parallel.by_stage.lg.jobs") +
                            report.numbers.at("parallel.by_stage.dp.jobs");
  EXPECT_GT(report.numbers.at("parallel.by_stage.gp.jobs"), 0.0);
  EXPECT_LE(stage_jobs, report.numbers.at("counters.parallel/jobs"));
  EXPECT_LE(report.numbers.at("parallel.by_stage.gp.busy_s"),
            report.numbers.at("parallel.busy_s"));
  // The simd section mirrors the build: lane widths are >= 1 always, and
  // the active width counter published by the wirelength op matches.
  EXPECT_FALSE(report.strings.at("simd.isa").empty());
  EXPECT_GE(report.numbers.at("simd.width_f32"), 1.0);
  EXPECT_GE(report.numbers.at("simd.width_f64"), 1.0);
  EXPECT_GE(report.numbers.at("counters.simd/width"), 1.0);
  EXPECT_GE(report.numbers.at("counters.simd/vexp_calls"), 1.0);
  // Self <= inclusive holds in the exported stats too.
  EXPECT_LE(report.numbers.at("timing.gp.self_s"),
            report.numbers.at("timing.gp.incl_s") + 1e-12);
  // The GP telemetry summary agrees with the flow result.
  EXPECT_EQ(report.numbers.at("gp_runs.0.iterations"),
            report.numbers.at("result.gp_iterations"));
}

TEST(ReportTest, CheckedInBaselinePassesOnFreshReport) {
  // Locate tools/report_baseline.json relative to this source file so the
  // test exercises the exact file CI uses.
  const fs::path baseline_path =
      fs::path(__FILE__).parent_path().parent_path() / "tools" /
      "report_baseline.json";
  ASSERT_TRUE(fs::exists(baseline_path)) << baseline_path;

  FlatJson baseline;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(readFile(baseline_path), baseline, &error))
      << error;

  std::vector<CheckResult> results;
  ASSERT_TRUE(checkReport(freshReport(), baseline, results, &error)) << error;
  EXPECT_GE(results.size(), 10u);
  for (const CheckResult& result : results) {
    EXPECT_TRUE(result.passed) << result.description << ": " << result.detail;
  }
}

TEST(ReportTest, CheckFailsOnDoctoredReport) {
  FlatJson doctored = freshReport();
  doctored.numbers["counters.ops/electrostatics/ws_alloc"] = 99;

  FlatJson baseline;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(
      R"({"checks": [{"path": "counters.ops/electrostatics/ws_alloc",
                      "op": "eq", "value": 1}]})",
      baseline, &error))
      << error;

  std::vector<CheckResult> results;
  ASSERT_TRUE(checkReport(doctored, baseline, results, &error)) << error;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].passed);
  EXPECT_NE(results[0].detail.find("actual 99"), std::string::npos);
}

TEST(ReportTest, CheckFailsOnMissingPath) {
  FlatJson report;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(R"({"a": 1})", report, &error)) << error;

  FlatJson baseline;
  ASSERT_TRUE(parseJsonFlat(
      R"({"checks": [{"path": "b", "op": "eq", "value": 0},
                     {"path": "c", "op": "eq", "value": 0,
                      "missing_ok": true},
                     {"path": "d", "op": "ge", "value": 1,
                      "missing_ok": true},
                     {"path": "a", "op": "ge", "value": 5,
                      "missing_ok": true}]})",
      baseline, &error))
      << error;
  std::vector<CheckResult> results;
  ASSERT_TRUE(checkReport(report, baseline, results, &error)) << error;
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].passed);  // missing without missing_ok
  EXPECT_TRUE(results[1].passed);   // missing_ok: absent path is skipped
  EXPECT_TRUE(results[2].passed);   // skipped even when 0 would fail "ge 1"
  EXPECT_FALSE(results[3].passed);  // present values are still constrained
}

TEST(ReportTest, PathCheckScalesOtherValue) {
  FlatJson report;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(R"({"a": 6, "b": 3})", report, &error)) << error;
  FlatJson baseline;
  ASSERT_TRUE(parseJsonFlat(
      R"({"checks": [{"path": "a", "op": "eq_path", "other": "b",
                      "scale": 2},
                     {"path": "a", "op": "eq_path", "other": "b"},
                     {"path": "a", "op": "le_path", "other": "b",
                      "scale": 1.5}]})",
      baseline, &error))
      << error;
  std::vector<CheckResult> results;
  ASSERT_TRUE(checkReport(report, baseline, results, &error)) << error;
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].passed);   // 6 == 2 x 3
  EXPECT_FALSE(results[1].passed);  // scale defaults to 1
  EXPECT_FALSE(results[2].passed);  // 6 > 1.5 x 3
}

TEST(ReportTest, CheckRejectsMalformedBaseline) {
  FlatJson report;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(R"({"a": 1})", report, &error));

  FlatJson baseline;
  std::vector<CheckResult> results;
  // No checks at all.
  ASSERT_TRUE(parseJsonFlat(R"({"schema": "x"})", baseline, &error));
  EXPECT_FALSE(checkReport(report, baseline, results, &error));
  // Unknown op.
  ASSERT_TRUE(parseJsonFlat(
      R"({"checks": [{"path": "a", "op": "between", "value": 1}]})",
      baseline, &error));
  EXPECT_FALSE(checkReport(report, baseline, results, &error));
  // eq_path without "other".
  ASSERT_TRUE(parseJsonFlat(R"({"checks": [{"path": "a", "op": "eq_path"}]})",
                            baseline, &error));
  EXPECT_FALSE(checkReport(report, baseline, results, &error));
}

TEST(FlatJsonTest, ParsesNestedObjectsArraysAndScalars) {
  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(
      R"({"a": {"b/c": 2.5, "d": "text"}, "list": [1, {"x": true}],
          "none": null, "neg": -3e2})",
      flat, &error))
      << error;
  EXPECT_EQ(flat.numbers.at("a.b/c"), 2.5);
  EXPECT_EQ(flat.strings.at("a.d"), "text");
  EXPECT_EQ(flat.numbers.at("list.0"), 1.0);
  EXPECT_EQ(flat.numbers.at("list.1.x"), 1.0);
  EXPECT_EQ(flat.numbers.at("neg"), -300.0);
  EXPECT_FALSE(flat.hasNumber("none"));  // null leaves are skipped
}

TEST(FlatJsonTest, ParsesStringEscapes) {
  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(R"({"k": "a\"b\\c\nd"})", flat, &error)) << error;
  EXPECT_EQ(flat.strings.at("k"), "a\"b\\c\nd");
}

TEST(FlatJsonTest, RejectsMalformedDocuments) {
  FlatJson flat;
  std::string error;
  EXPECT_FALSE(parseJsonFlat("{", flat, &error));
  EXPECT_FALSE(parseJsonFlat(R"({"a": })", flat, &error));
  EXPECT_FALSE(parseJsonFlat(R"({"a": 1} trailing)", flat, &error));
  EXPECT_FALSE(parseJsonFlat(R"({"a" 1})", flat, &error));
  EXPECT_FALSE(parseJsonFlat("", flat, &error));
}

TEST(ReportTest, RunReportRoundTripsThroughItsOwnParser) {
  // toJson() of a hand-built report parses cleanly — the writer and the
  // gate's parser agree on the dialect.
  RunReport report;
  report.label = "round\"trip";
  report.numCells = 3;
  report.counters["a/b"] = 7;
  TimingStat stat;
  stat.count = 2;
  stat.seconds = 1.0;
  stat.selfSeconds = 0.5;
  report.timing["k"] = stat;
  MemoryTracker::Usage usage;
  usage.currentBytes = 10;
  usage.peakBytes = 20;
  report.trackedMemory["m"] = usage;

  FlatJson flat;
  std::string error;
  ASSERT_TRUE(parseJsonFlat(report.toJson(), flat, &error)) << error;
  EXPECT_EQ(flat.strings.at("label"), "round\"trip");
  EXPECT_EQ(flat.numbers.at("counters.a/b"), 7.0);
  EXPECT_EQ(flat.numbers.at("timing.k.self_s"), 0.5);
  EXPECT_EQ(flat.numbers.at("memory.tracked.m.peak_bytes"), 20.0);
}

}  // namespace
}  // namespace dreamplace

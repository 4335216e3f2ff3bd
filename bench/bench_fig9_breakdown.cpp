// Fig. 9 reproduction: DREAMPlace runtime breakdown (fast config,
// float32) on bigblue4.
//
// Paper shape: (a) across the whole flow, DP dominates (~82%) while
// GP+LG shrink to a few percent; (b) within one GP forward/backward
// pass, density-related computation outweighs wirelength (73.4% vs
// 26.5%), and with the fast DCT the spectral solve is no longer the
// density bottleneck.
//
// Writes both tables to BENCH_fig9.json (--json=<file> or
// DREAMPLACE_BENCH_JSON override the path; empty disables): flow rows
// flow/{gp,lg,dp,io,total} and per-op rows op/{wirelength,scatter,
// poisson,gather}, in ms, with n = the design's cell count.
#include <filesystem>

#include "bench_util.h"
#include "common/timer.h"
#include "gen/netlist_generator.h"
#include "io/bookshelf_writer.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;

  const std::string json_path = benchJsonPath(argc, argv, "BENCH_fig9.json");

  const double scale = benchScale(0.01);
  const SuiteEntry entry = findSuiteEntry("bigblue4", scale);
  std::printf("Fig. 9: DREAMPlace (fast, float32) breakdown on %s "
              "(%d cells)\n\n",
              entry.name.c_str(), entry.config.numCells);

  auto db = generateNetlist(entry.config);

  PlacerOptions options;
  options.precision = Precision::kFloat32;
  options.gp = dreamplaceFastGp();
  Timer total_timer;
  RunReport report;
  const FlowResult result = placeWithReport(*db, options, report);

  Timer io_timer;
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dp_fig9_io";
  writeBookshelf(*db, dir.string(), "bigblue4");
  const double io = io_timer.elapsed();
  fs::remove_all(dir);

  const double grand = total_timer.elapsed() + io;
  auto pct = [&](double v) { return 100.0 * v / grand; };
  std::printf("(a) flow breakdown\n");
  std::printf("%-22s %10s %8s\n", "phase", "seconds", "share");
  std::printf("%-22s %10.2f %7.1f%%\n", "Global placement",
              result.gpSeconds, pct(result.gpSeconds));
  std::printf("%-22s %10.2f %7.1f%%\n", "Legalization", result.lgSeconds,
              pct(result.lgSeconds));
  std::printf("%-22s %10.2f %7.1f%%\n", "Detailed placement",
              result.dpSeconds, pct(result.dpSeconds));
  std::printf("%-22s %10.2f %7.1f%%\n", "IO", io, pct(io));

  const double wl = timingTotal(report, "gp/op/wirelength");
  const double density = timingTotal(report, "gp/op/density");
  const double scatter = timingTotal(report, "gp/op/density/scatter");
  const double poisson = timingTotal(report, "gp/op/density/poisson");
  const double gather = timingTotal(report, "gp/op/density/gather");
  const double pass = wl + density;
  std::printf("\n(b) one GP forward+backward pass (accumulated)\n");
  std::printf("%-26s %10.2f %7.1f%%\n", "wirelength fwd+bwd", wl,
              100.0 * wl / pass);
  std::printf("%-26s %10.2f %7.1f%%\n", "density fwd+bwd", density,
              100.0 * density / pass);
  std::printf("    %-22s %10.2f %7.1f%% of density\n", "density map",
              scatter, 100.0 * scatter / density);
  std::printf("    %-22s %10.2f %7.1f%% of density\n", "spectral solve",
              poisson, 100.0 * poisson / density);
  std::printf("    %-22s %10.2f %7.1f%% of density\n", "force gather",
              gather, 100.0 * gather / density);
  std::printf("\npaper shape check: density share of pass = %.1f%% "
              "(paper: 73.4%%), DP share of flow = %.1f%% (paper: ~82%%)\n",
              100.0 * density / pass, pct(result.dpSeconds));

  if (!json_path.empty()) {
    BenchJsonWriter writer("fig9_breakdown");
    const auto n = static_cast<std::int64_t>(entry.config.numCells);
    writer.addResult("flow/gp", n, result.gpSeconds * 1000);
    writer.addResult("flow/lg", n, result.lgSeconds * 1000);
    writer.addResult("flow/dp", n, result.dpSeconds * 1000);
    writer.addResult("flow/io", n, io * 1000);
    writer.addResult("flow/total", n, grand * 1000);
    writer.addResult("op/wirelength", n, wl * 1000);
    writer.addResult("op/scatter", n, scatter * 1000);
    writer.addResult("op/poisson", n, poisson * 1000);
    writer.addResult("op/gather", n, gather * 1000);
    for (const auto& [key, value] : report.counters) {
      if (key.compare(0, 4, "ops/") == 0 || key.compare(0, 5, "simd/") == 0) {
        writer.addCounter(key, value);
      }
    }
    if (writer.write(json_path)) {
      std::printf("bench json written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "bench json: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}

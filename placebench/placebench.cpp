// placebench: the measuring program of the repository benchmark
// (placebench/README.md). run.py builds it and drives it; one process
// runs one placement job, as one user's run of the placer would.
//
//   placebench generate --seed N --scale X --out DIR
//       Generates the bigblue4 stand-in at scale X from the seed and writes
//       it as Bookshelf files, plus the back-end start placement, under DIR.
//   placebench job --workload W --input DIR --out FILE --trace 0|1
//                  [--report FILE] [--inject-illegal 0|1]
//       Runs one job on those files: read -> place -> write FILE, then
//       checks the written placement. Prints one JSON line.
//   placebench load --workload W --input DIR
//       Only the job's setup: loads the input and prints its time.
//
// The placer sees only the generated files, read with the public
// Bookshelf reader. Layers are measured from outside: spans around this
// file's own calls into the public API, and the RunReport placeDesign()
// already returns. Nothing here adds a timer or counter to the placer.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flow_context.h"
#include "common/json_writer.h"
#include "common/log.h"
#include "common/memory.h"
#include "common/simd.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "gen/suites.h"
#include "io/bookshelf_reader.h"
#include "io/bookshelf_writer.h"
#include "place/placer.h"
#include "place/report.h"

namespace {

using namespace dreamplace;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kDesign = "bigblue4";
constexpr const char* kStartPl = "start.pl";

// ---------------------------------------------------------------------------
// Workloads. README.md records why each one is in the benchmark; run.py
// holds each one's design scale.

struct Workload {
  const char* name;
  Precision precision;
  bool globalPlacement;  ///< false = LG+DP-only partial flow from start.pl
  int threads;
};

constexpr Workload kWorkloads[] = {
    {"gp-fast32-t1", Precision::kFloat32, true, 1},
    {"gp-fast32-t4", Precision::kFloat32, true, 4},
    {"backend-scatter64-t1", Precision::kFloat64, false, 1},
};

const Workload& findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Host probes.

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Host-wide hypervisor steal (summed over CPUs) from /proc/stat.
double stealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") {
    return 0.0;
  }
  for (double& f : field) {
    in >> f;
  }
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Full precision (json::appendNumber keeps 12 digits); null if not finite.
std::string exactNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and printed with the
// job's result. Only traced jobs record them.

struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;  ///< seconds since the process started
  double end = 0.0;
};

/// Times one call into the placer, recording a span into `log` if set.
class SpanScope {
 public:
  SpanScope(std::vector<Span>* log, Clock::time_point origin, const char* name,
            int parent = -1)
      : log_(log), origin_(origin), start_(Clock::now()) {
    if (log_) {
      id_ = static_cast<int>(log_->size());
      log_->push_back({name, parent, secondsOf(start_), 0.0});
    }
  }
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }
  /// Ends the span (idempotent) and returns its duration in seconds.
  double close() {
    if (!closed_) {
      end_ = Clock::now();
      closed_ = true;
      if (log_) {
        (*log_)[id_].end = secondsOf(end_);
      }
    }
    return std::chrono::duration<double>(end_ - start_).count();
  }

 private:
  double secondsOf(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  std::vector<Span>* log_;
  Clock::time_point origin_;
  Clock::time_point start_;
  Clock::time_point end_;
  int id_ = -1;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced job (README.md has the table and what
// each should move). A ratio whose layer did not run reads 0.

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::int64_t counter(const RunReport& report, const std::string& key) {
  const auto it = report.counters.find(key);
  return it == report.counters.end() ? 0 : it->second;
}

double timingSeconds(const RunReport& report, const std::string& key) {
  const auto it = report.timing.find(key);
  return it == report.timing.end() ? 0.0 : it->second.seconds;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> layerMetrics(const RunReport& rep, double readSeconds,
                                 double writeSeconds, double placeSeconds,
                                 double stealSecondsDelta) {
  const FlowResult& fr = rep.result;
  const auto count = [&](const char* key) {
    return static_cast<double>(counter(rep, key));
  };
  const double transforms = count("fft/dct2d") + count("fft/idct2d") +
                            count("fft/idct_idxst") + count("fft/idxst_idct");
  double trackedPeak = 0.0;
  for (const auto& [key, usage] : rep.trackedMemory) {
    trackedPeak += static_cast<double>(usage.peakBytes);
  }
  const auto grids = rep.trackedMemory.find("ops/density/grids");
  const auto gpSelf = rep.timing.find("gp");
  return {
      {"io.read_s", readSeconds, "s"},
      {"io.write_s", writeSeconds, "s"},
      {"gp.stage_s", fr.gpSeconds, "s"},
      {"gp.self_s",
       gpSelf == rep.timing.end() ? 0.0 : gpSelf->second.selfSeconds, "s"},
      {"gp.overflow_s", timingSeconds(rep, "gp/overflow"), "s"},
      {"gp.iterations", static_cast<double>(fr.gpIterations), "count"},
      {"ops.wirelength_s", timingSeconds(rep, "gp/op/wirelength"), "s"},
      {"ops.density.scatter_s", timingSeconds(rep, "gp/op/density/scatter"),
       "s"},
      {"ops.density.poisson_s", timingSeconds(rep, "gp/op/density/poisson"),
       "s"},
      {"ops.density.gather_s", timingSeconds(rep, "gp/op/density/gather"),
       "s"},
      {"ops.wirelength.evals", count("ops/wirelength/evaluate"), "count"},
      {"ops.density.evals", count("ops/density/evaluate"), "count"},
      {"fft.transforms_per_solve",
       ratio(transforms, count("ops/electrostatics/solve")), "count"},
      {"autograd.evals_per_step",
       ratio(count("optimizer/nesterov/evaluations"),
             count("optimizer/nesterov/steps")),
       "ratio"},
      {"parallel.jobs", count("parallel/jobs"), "count"},
      {"parallel.jobs_per_gp_iter",
       ratio(count("parallel/jobs"), fr.gpIterations), "count"},
      {"parallel.utilization", rep.poolUtilization, "ratio"},
      {"parallel.busy_s", rep.poolBusySeconds, "s"},
      {"lg.abacus_s", timingSeconds(rep, "lg/abacus"), "s"},
      {"lg.segments_tried", count("lg/segments_tried"), "count"},
      {"lg.fallbacks", count("lg/fallback"), "count"},
      {"dp.reorder_s", timingSeconds(rep, "dp/reorder"), "s"},
      {"dp.swap_s", timingSeconds(rep, "dp/swap"), "s"},
      {"dp.ism_s", timingSeconds(rep, "dp/ism"), "s"},
      {"dp.moves",
       count("dp/reorder_moves") + count("dp/swap_moves") +
           count("dp/ism_moves"),
       "count"},
      {"dp.reorder_stale_ratio",
       ratio(count("dp/reorder_stale"), count("dp/reorder_windows")),
       "ratio"},
      {"dp.swap_stale_ratio",
       ratio(count("dp/swap_stale"), count("dp/swap_candidates")), "ratio"},
      {"dp.bbox_rescan_ratio",
       ratio(count("dp/bbox_rescan"), count("dp/bbox_delta")), "ratio"},
      {"place.overhead_s",
       placeSeconds - fr.gpSeconds - fr.lgSeconds - fr.dpSeconds -
           writeSeconds,
       "s"},
      {"mem.tracked_peak_bytes", trackedPeak, "bytes"},
      {"mem.density_grids_peak_bytes",
       grids == rep.trackedMemory.end()
           ? 0.0
           : static_cast<double>(grids->second.peakBytes),
       "bytes"},
      {"host.steal_s", stealSecondsDelta, "s"},
  };
}

/// The job's setup: loads the input (Database finalize + validation happen
/// inside readBookshelf), adding the load time to `seconds`.
std::unique_ptr<Database> loadInput(const Workload& w, const fs::path& input,
                                    std::vector<Span>* log,
                                    Clock::time_point origin, int parent,
                                    double& seconds) {
  std::unique_ptr<Database> db;
  {
    SpanScope s(log, origin, "io.read_bookshelf", parent);
    db = readBookshelf((input / (std::string(kDesign) + ".aux")).string());
    seconds += s.close();
  }
  if (!w.globalPlacement) {
    SpanScope s(log, origin, "io.read_placement", parent);
    readPlacement(*db, (input / kStartPl).string());
    seconds += s.close();
  }
  return db;
}

// ---------------------------------------------------------------------------
// Command line: a subcommand, then --key value pairs.

struct Args {
  std::string command;
  std::map<std::string, std::string> values;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
};

Args parseArgs(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: placebench generate|job --key value ...");
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::invalid_argument(std::string("bad argument '") + argv[i] + "'");
    }
    args.values[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

int generate(const Args& args) {
  SuiteEntry entry = findSuiteEntry(kDesign, std::stod(args.require("scale")));
  entry.config.seed = std::stoull(args.require("seed"));
  const std::string dir = args.require("out");
  // The generator's uniform-random placement doubles as the back-end
  // workload's start placement.
  auto db = generateNetlist(entry.config);
  writeBookshelf(*db, dir, kDesign);
  writePlacement(*db, (fs::path(dir) / kStartPl).string());
  return 0;
}

/// One job: read -> place -> write, then the output check. Prints one
/// JSON object; a job that throws or fails its check reports ok=false
/// (the process still exits 0 — it is a failed job, not a crash).
int job(const Args& args, Clock::time_point origin) {
  const Workload& w = findWorkload(args.require("workload"));
  const fs::path input = args.require("input");
  const std::string out = args.require("out");
  const bool traced = args.require("trace") == "1";
  const std::string reportPath = args.get("report", "");
  const bool injectIllegal = args.get("inject-illegal", "0") == "1";

  PlacerOptions options;
  options.precision = w.precision;
  options.threads = w.threads;
  options.gp = bench::dreamplaceFastGp();
  options.runGlobalPlacement = w.globalPlacement;

  std::vector<Span> spans;
  std::vector<Span>* log = traced ? &spans : nullptr;
  std::string reason;
  bool placed = false;
  double read = 0.0, write = 0.0, place = 0.0, cpu = 0.0;
  double steal = 0.0, peakRss = 0.0, wirelength = 0.0;
  Index cells = 0, movable = 0, nets = 0;
  RunReport report;
  FlowResult result;
  {
    SpanScope jobSpan(log, origin, "job");
    const int parent = jobSpan.id();
    try {
      std::unique_ptr<Database> db =
          loadInput(w, input, log, origin, parent, read);
      cells = db->numCells();
      movable = db->numMovable();
      nets = db->numNets();

      // The timed interval: the loaded database goes to placeDesign ...
      // until the output .pl is written.
      const double cpu0 = cpuSeconds();
      const double steal0 = stealSeconds();
      const auto t0 = Clock::now();
      {
        SpanScope s(log, origin, "place", parent);
        FlowContext context;
        result = placeDesign(*db, options, context, traced ? &report : nullptr);
      }
      if (injectIllegal && db->numMovable() >= 2) {
        db->setCellPosition(1, db->cellX(0), db->cellY(0));
      }
      {
        SpanScope s(log, origin, "io.write", parent);
        writePlacement(*db, out);
        write = s.close();
      }
      place = secondsSince(t0);
      cpu = cpuSeconds() - cpu0;
      steal = stealSeconds() - steal0;
      peakRss = static_cast<double>(sampleProcessMemory().vmHwmBytes) /
                (1024.0 * 1024.0);
      placed = true;

      // Output check, on the written file read back.
      {
        SpanScope s(log, origin, "check.read_output", parent);
        readPlacement(*db, out);
      }
      LegalityReport legality;
      {
        SpanScope s(log, origin, "check.legality", parent);
        legality = checkLegality(*db);
      }
      wirelength = hpwl(*db);
      if (!legality.legal) {
        reason = "illegal output: " + legality.summary();
      } else if (!std::isfinite(wirelength)) {
        reason = "non-finite HPWL";
      } else if (result.lgFailedCells > 0) {
        reason = std::to_string(result.lgFailedCells) + " cells not legalized";
      }
    } catch (const std::exception& e) {
      reason = std::string("job threw: ") + e.what();
    }
  }

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef DREAMPLACE_SIMD_DISABLED
  const bool simd = false;
#else
  const bool simd = true;
#endif
  json::Json j;
  const auto number = [&j](const char* key, double v) {
    j.key(key);
    j.rawValue(exactNumber(v));
  };
  j.openObject();
  j.key("ok"); j.value(reason.empty());
  j.key("reason"); j.value(reason);
  j.key("placed"); j.value(placed);
  number("setup_s", read);
  number("place_s", place);
  number("cpu_s", cpu);
  number("hpwl", wirelength);
  number("peak_rss_mb", peakRss);
  number("host.steal_s", steal);
  j.key("gp_iterations"); j.value(result.gpIterations);
  j.key("fingerprint");
  j.openObject();
  j.key("threads"); j.value(w.threads);
  j.key("nproc"); j.value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.key("simd"); j.value(simd);
  j.key("simd_isa"); j.value(simd::activeIsaName());
  j.key("build_type"); j.value(PLACEBENCH_BUILD_TYPE);
  j.key("ndebug"); j.value(ndebug);
  j.key("cells"); j.value(static_cast<std::int64_t>(cells));
  j.key("movable"); j.value(static_cast<std::int64_t>(movable));
  j.key("nets"); j.value(static_cast<std::int64_t>(nets));
  j.closeObject();
  if (traced && placed) {
    j.key("layers");
    j.openObject();
    for (const Metric& m : layerMetrics(report, read, write, place, steal)) {
      j.key(m.name);
      j.openObject();
      number("value", m.value);
      j.key("unit"); j.value(m.unit);
      j.closeObject();
    }
    j.closeObject();
    j.key("spans");
    j.openArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      j.openObject();
      j.key("id"); j.value(static_cast<std::int64_t>(i));
      j.key("name"); j.value(spans[i].name);
      j.key("parent"); j.value(spans[i].parent);
      number("start_s", spans[i].start);
      number("end_s", spans[i].end);
      j.closeObject();
    }
    j.closeArray();
    if (!reportPath.empty() && !writeRunReport(report, reportPath, "")) {
      return 1;
    }
  }
  j.closeObject();
  std::printf("%s\n", j.out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  setLogLevel(LogLevel::kWarn);
  try {
    const Args args = parseArgs(argc, argv);
    if (args.command == "generate") {
      return generate(args);
    }
    if (args.command == "job") {
      return job(args, origin);
    }
    if (args.command == "load") {
      double seconds = 0.0;
      loadInput(findWorkload(args.require("workload")),
                args.require("input"), nullptr, origin, -1, seconds);
      std::printf("{\"setup_s\": %s}\n", exactNumber(seconds).c_str());
      return 0;
    }
    throw std::invalid_argument("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "placebench: %s\n", e.what());
    return 2;
  }
}

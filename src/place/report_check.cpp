#include "place/report_check.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "place/engine.h"

namespace dreamplace {

namespace {

/// Recursive-descent JSON parser that records leaves under dotted paths.
class FlatParser {
 public:
  FlatParser(const std::string& text, FlatJson& out)
      : text_(text), out_(out) {}

  bool run(std::string* error) {
    skipWs();
    if (!parseValue("")) {
      if (error != nullptr) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s at offset %zu", error_.c_str(),
                      pos_);
        *error = buf;
      }
      return false;
    }
    skipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters after document";
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static std::string join(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "." + key;
  }

  bool parseString(std::string& out) {
    if (!consume('"')) {
      return fail("expected '\"'");
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          // Keep the checker dependency-free: non-ASCII escapes become '?'.
          if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
          }
          pos_ += 4;
          out += '?';
          break;
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseValue(const std::string& path) {
    skipWs();
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return parseObject(path);
    }
    if (c == '[') {
      return parseArray(path);
    }
    if (c == '"') {
      std::string s;
      if (!parseString(s)) {
        return false;
      }
      out_.strings[path] = s;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "true", 4) == 0) {
      pos_ += 4;
      out_.numbers[path] = 1.0;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "false", 5) == 0) {
      pos_ += 5;
      out_.numbers[path] = 0.0;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "null", 4) == 0) {
      pos_ += 4;  // null leaves are skipped (NaN/Inf placeholders)
      return true;
    }
    char* end = nullptr;
    const double v = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) {
      return fail("expected value");
    }
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    out_.numbers[path] = v;
    return true;
  }

  bool parseObject(const std::string& path) {
    consume('{');
    skipWs();
    if (consume('}')) {
      return true;
    }
    while (true) {
      skipWs();
      std::string key;
      if (!parseString(key)) {
        return false;
      }
      skipWs();
      if (!consume(':')) {
        return fail("expected ':'");
      }
      if (!parseValue(join(path, key))) {
        return false;
      }
      skipWs();
      if (consume(',')) {
        continue;
      }
      if (consume('}')) {
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(const std::string& path) {
    consume('[');
    skipWs();
    if (consume(']')) {
      return true;
    }
    int index = 0;
    while (true) {
      if (!parseValue(join(path, std::to_string(index++)))) {
        return false;
      }
      skipWs();
      if (consume(',')) {
        continue;
      }
      if (consume(']')) {
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  FlatJson& out_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::string formatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

bool parseJsonFlat(const std::string& text, FlatJson& out,
                   std::string* error) {
  out = FlatJson{};
  FlatParser parser(text, out);
  return parser.run(error);
}

bool checkReport(const FlatJson& report, const FlatJson& baseline,
                 std::vector<CheckResult>& results, std::string* error) {
  results.clear();
  const auto baselineString = [&baseline](const std::string& path) {
    const auto it = baseline.strings.find(path);
    return it == baseline.strings.end() ? std::string() : it->second;
  };

  int count = 0;
  for (int i = 0;; ++i) {
    const std::string prefix = "checks." + std::to_string(i) + ".";
    const std::string path = baselineString(prefix + "path");
    if (path.empty()) {
      break;
    }
    ++count;
    const std::string op = baselineString(prefix + "op");
    const std::string other = baselineString(prefix + "other");

    CheckResult result;
    const bool pathOp = op.size() > 5 && op.compare(op.size() - 5, 5,
                                                    "_path") == 0;
    // Expected side: literal "value" or the report value at "other".
    double expected = 0.0;
    bool expectedOk = true;
    if (pathOp) {
      if (other.empty()) {
        if (error != nullptr) {
          *error = "check " + std::to_string(i) + ": op '" + op +
                   "' needs \"other\"";
        }
        return false;
      }
      // Optional "scale": the expected value is scale x the other path.
      const auto scaleIt = baseline.numbers.find(prefix + "scale");
      const double scale =
          scaleIt == baseline.numbers.end() ? 1.0 : scaleIt->second;
      result.description = path + " " + op.substr(0, op.size() - 5) + " " +
                           (scale == 1.0 ? "" : formatNumber(scale) + " x ") +
                           other;
      const auto it = report.numbers.find(other);
      if (it == report.numbers.end()) {
        result.detail = "report has no numeric value at '" + other + "'";
        expectedOk = false;
      } else {
        expected = scale * it->second;
      }
    } else {
      const auto it = baseline.numbers.find(prefix + "value");
      if (it == baseline.numbers.end()) {
        if (error != nullptr) {
          *error = "check " + std::to_string(i) + ": op '" + op +
                   "' needs \"value\"";
        }
        return false;
      }
      expected = it->second;
      result.description = path + " " + op + " " + formatNumber(expected);
    }

    const std::string baseOp = pathOp ? op.substr(0, op.size() - 5) : op;
    if (baseOp != "eq" && baseOp != "le" && baseOp != "ge") {
      if (error != nullptr) {
        *error = "check " + std::to_string(i) + ": unknown op '" + op + "'";
      }
      return false;
    }

    // "missing_ok": true passes an absent report path — counters are
    // registered lazily, so "this never happened" (or "this feature was
    // off") shows up as no entry; the check constrains the value only
    // when the path exists.
    const auto missingIt = baseline.numbers.find(prefix + "missing_ok");
    const bool missingOk =
        missingIt != baseline.numbers.end() && missingIt->second != 0.0;

    const auto it = report.numbers.find(path);
    const bool present = it != report.numbers.end();
    if (!present && missingOk) {
      result.passed = true;
      result.detail = "path absent, skipped (missing_ok)";
      results.push_back(std::move(result));
      continue;
    }
    if (!present) {
      result.passed = false;
      if (result.detail.empty()) {
        result.detail = "report has no numeric value at '" + path + "'";
      }
    } else if (!expectedOk) {
      result.passed = false;
    } else {
      const double actual = it->second;
      if (baseOp == "eq") {
        result.passed = actual == expected;
      } else if (baseOp == "le") {
        result.passed = actual <= expected;
      } else {
        result.passed = actual >= expected;
      }
      result.detail = "actual " + formatNumber(actual) + ", expected " +
                      baseOp + " " + formatNumber(expected);
    }
    results.push_back(std::move(result));
  }

  if (count == 0) {
    if (error != nullptr) {
      *error = "baseline contains no checks";
    }
    return false;
  }
  return true;
}

bool isBatchReport(const FlatJson& document) {
  const auto it = document.strings.find("schema");
  return it != document.strings.end() &&
         it->second == "dreamplace.batch_report.v1";
}

namespace {

/// Re-roots "jobs.N.report.*" leaves to "*" for one job of a batch.
FlatJson extractJobReport(const FlatJson& batch, int index) {
  const std::string prefix = "jobs." + std::to_string(index) + ".report.";
  FlatJson report;
  for (const auto& [path, value] : batch.numbers) {
    if (path.compare(0, prefix.size(), prefix) == 0) {
      report.numbers.emplace(path.substr(prefix.size()), value);
    }
  }
  for (const auto& [path, value] : batch.strings) {
    if (path.compare(0, prefix.size(), prefix) == 0) {
      report.strings.emplace(path.substr(prefix.size()), value);
    }
  }
  return report;
}

}  // namespace

bool checkBatchReport(const FlatJson& batch, const FlatJson& baseline,
                      std::vector<BatchJobCheck>& jobs, std::string* error,
                      const BatchCheckOptions& options) {
  jobs.clear();
  const auto batchString = [&batch](const std::string& path) {
    const auto it = batch.strings.find(path);
    return it == batch.strings.end() ? std::string() : it->second;
  };

  for (int i = 0;; ++i) {
    const std::string prefix = "jobs." + std::to_string(i) + ".";
    const std::string status = batchString(prefix + "status");
    if (status.empty()) {
      break;
    }
    BatchJobCheck job;
    job.name = batchString(prefix + "name");
    if (job.name.empty()) {
      job.name = "job" + std::to_string(i);
    }
    job.status = status;
    const auto expected = options.expectedStatus.find(job.name);
    job.expected = expected == options.expectedStatus.end()
                       ? "succeeded"
                       : expected->second;
    job.succeeded = status == job.expected;
    if (status == "succeeded") {
      // Re-root the embedded run report ("jobs.N.report.*" -> "*") and
      // apply the per-run baseline to it unchanged.
      const FlatJson report = extractJobReport(batch, i);
      if (!checkReport(report, baseline, job.results, error)) {
        return false;
      }
    }
    jobs.push_back(std::move(job));
  }

  if (jobs.empty()) {
    if (error != nullptr) {
      *error = "batch report contains no jobs";
    }
    return false;
  }
  return true;
}

bool compareBatchJobsForResume(const FlatJson& batch, const std::string& jobA,
                               const std::string& jobB,
                               std::vector<CheckResult>& results,
                               std::string* error) {
  results.clear();

  const auto findJob = [&batch, error](const std::string& name, int& index) {
    for (int i = 0;; ++i) {
      const std::string prefix = "jobs." + std::to_string(i) + ".";
      const auto nameIt = batch.strings.find(prefix + "name");
      if (nameIt == batch.strings.end()) {
        break;
      }
      if (nameIt->second != name) {
        continue;
      }
      const auto statusIt = batch.strings.find(prefix + "status");
      const std::string status =
          statusIt == batch.strings.end() ? "" : statusIt->second;
      if (status != "succeeded") {
        if (error != nullptr) {
          *error = "job '" + name + "' has status '" + status +
                   "', need succeeded to compare reports";
        }
        return false;
      }
      index = i;
      return true;
    }
    if (error != nullptr) {
      *error = "batch report has no job named '" + name + "'";
    }
    return false;
  };

  int indexA = -1;
  int indexB = -1;
  if (!findJob(jobA, indexA) || !findJob(jobB, indexB)) {
    return false;
  }
  const FlatJson a = extractJobReport(batch, indexA);
  const FlatJson b = extractJobReport(batch, indexB);

  // A path participates when it is the outcome of the flow (result/design)
  // or a resume-comparable counter; wall-time leaves are machine noise and
  // a resumed run's cover only the resumed segment.
  const auto compared = [](const std::string& path) {
    const auto endsWith = [&path](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
    };
    if (endsWith("_s") || endsWith("_seconds")) {
      return false;
    }
    if (path.compare(0, 7, "result.") == 0 ||
        path.compare(0, 7, "design.") == 0) {
      return true;
    }
    constexpr std::size_t kCountersLen = 9;  // "counters."
    if (path.compare(0, kCountersLen, "counters.") == 0) {
      return !isResumeVariantCounter(
          std::string_view(path).substr(kCountersLen));
    }
    return false;
  };

  int comparedPaths = 0;
  for (const auto& [path, valueA] : a.numbers) {
    if (!compared(path)) {
      continue;
    }
    ++comparedPaths;
    CheckResult result;
    result.description = path + " identical across " + jobA + "/" + jobB;
    const auto it = b.numbers.find(path);
    if (it == b.numbers.end()) {
      result.passed = false;
      result.detail = "present in '" + jobA + "' but missing from '" + jobB +
                      "'";
    } else {
      // Bit-identical resume is the contract: exact equality, no epsilon.
      result.passed = valueA == it->second;
      result.detail = jobA + " " + formatNumber(valueA) + ", " + jobB + " " +
                      formatNumber(it->second);
    }
    results.push_back(std::move(result));
  }
  for (const auto& [path, valueB] : b.numbers) {
    if (!compared(path) || a.numbers.find(path) != a.numbers.end()) {
      continue;
    }
    ++comparedPaths;
    CheckResult result;
    result.description = path + " identical across " + jobA + "/" + jobB;
    result.passed = false;
    result.detail = "present in '" + jobB + "' but missing from '" + jobA +
                    "'";
    results.push_back(std::move(result));
  }

  if (comparedPaths == 0) {
    if (error != nullptr) {
      *error = "jobs '" + jobA + "' and '" + jobB +
               "' have no comparable report paths";
    }
    return false;
  }
  return true;
}

}  // namespace dreamplace

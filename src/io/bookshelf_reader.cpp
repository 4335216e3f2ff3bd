#include "io/bookshelf_reader.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/timer.h"

namespace dreamplace {

namespace {

namespace fs = std::filesystem;

[[noreturn]] void fail(const std::string& file, const std::string& what) {
  throw std::runtime_error("bookshelf: " + file + ": " + what);
}

/// Reads a file line by line, stripping comments (#) and blank lines, and
/// skipping the "UCLA <kind> 1.0" header if present.
class LineReader {
 public:
  explicit LineReader(const std::string& path) : path_(path), in_(path) {
    if (!in_) {
      dreamplace::fail(path, "cannot open");
    }
  }

  /// Next meaningful line; false at EOF.
  bool next(std::string& line) {
    while (std::getline(in_, line)) {
      ++line_number_;
      const auto hash = line.find('#');
      if (hash != std::string::npos) {
        line.erase(hash);
      }
      // Trim.
      const auto begin = line.find_first_not_of(" \t\r\n");
      if (begin == std::string::npos) {
        continue;
      }
      const auto end = line.find_last_not_of(" \t\r\n");
      line = line.substr(begin, end - begin + 1);
      if (line.rfind("UCLA", 0) == 0) {
        continue;
      }
      return true;
    }
    return false;
  }

  const std::string& path() const { return path_; }

  /// Throws "bookshelf: <file>:<line>: <what>" for the last line read.
  [[noreturn]] void fail(const std::string& what) const {
    dreamplace::fail(path_ + ":" + std::to_string(line_number_), what);
  }

 private:
  std::string path_;
  std::ifstream in_;
  long line_number_ = 0;
};

/// Every number in a Bookshelf file goes through here: the whole token
/// must parse as a finite double. Non-numeric, out-of-range and
/// non-finite ("nan", "inf") tokens throw with the file and line, so a
/// bad input fails its job instead of reaching the database.
double parseNumber(const LineReader& reader, const std::string& token,
                   const char* what) {
  const char* begin = token.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    reader.fail(std::string(what) + " '" + token + "' is not a number");
  }
  if (errno == ERANGE) {
    reader.fail(std::string(what) + " '" + token + "' is out of range");
  }
  if (!std::isfinite(value)) {
    reader.fail(std::string(what) + " '" + token + "' is not finite");
  }
  return value;
}

/// A cell width or height: a number that must be > 0.
double parseSize(const LineReader& reader, const std::string& token,
                 const char* what) {
  const double value = parseNumber(reader, token, what);
  if (value <= 0) {
    reader.fail(std::string(what) + " '" + token + "' must be > 0");
  }
  return value;
}

/// Splits on whitespace and the ':' separator (treated as its own token).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char ch : line) {
    if (std::isspace(static_cast<unsigned char>(ch)) || ch == ':') {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
      if (ch == ':') {
        tokens.emplace_back(":");
      }
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) {
    tokens.push_back(current);
  }
  return tokens;
}

struct AuxFiles {
  std::string nodes;
  std::string nets;
  std::string wts;
  std::string pl;
  std::string scl;
};

AuxFiles parseAux(const std::string& auxPath) {
  LineReader reader(auxPath);
  std::string line;
  if (!reader.next(line)) {
    fail(auxPath, "empty .aux");
  }
  AuxFiles files;
  const fs::path dir = fs::path(auxPath).parent_path();
  for (const std::string& tok : tokenize(line)) {
    const fs::path p = dir / tok;
    if (tok.ends_with(".nodes")) {
      files.nodes = p.string();
    } else if (tok.ends_with(".nets")) {
      files.nets = p.string();
    } else if (tok.ends_with(".wts")) {
      files.wts = p.string();
    } else if (tok.ends_with(".pl")) {
      files.pl = p.string();
    } else if (tok.ends_with(".scl")) {
      files.scl = p.string();
    }
  }
  if (files.nodes.empty() || files.nets.empty() || files.pl.empty() ||
      files.scl.empty()) {
    fail(auxPath, "missing .nodes/.nets/.pl/.scl reference");
  }
  return files;
}

void parseNodes(const std::string& path, Database& db,
                std::unordered_map<std::string, Index>& byName) {
  LineReader reader(path);
  std::string line;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    if (tokens[0] == "NumNodes" || tokens[0] == "NumTerminals") {
      continue;  // counts are re-derived; trust the entity lines
    }
    if (tokens.size() < 3) {
      reader.fail("bad node line: " + line);
    }
    const bool terminal =
        tokens.size() >= 4 &&
        (tokens[3] == "terminal" || tokens[3] == "terminal_NI");
    const double width = parseSize(reader, tokens[1], "width");
    const double height = parseSize(reader, tokens[2], "height");
    const Index id = db.addCell(tokens[0], width, height, !terminal);
    byName.emplace(tokens[0], id);
  }
}

void parseNets(const std::string& path, Database& db,
               const std::unordered_map<std::string, Index>& byName) {
  LineReader reader(path);
  std::string line;
  Index current_net = kInvalidIndex;
  Index remaining = 0;
  int anon = 0;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.empty() || tokens[0] == "NumNets" || tokens[0] == "NumPins") {
      continue;
    }
    if (tokens[0] == "NetDegree") {
      // "NetDegree : d [name]"
      if (tokens.size() < 3 || tokens[1] != ":") {
        reader.fail("bad NetDegree line: " + line);
      }
      const double degree = parseNumber(reader, tokens[2], "net degree");
      if (degree < 0 || degree > std::numeric_limits<Index>::max()) {
        reader.fail("net degree '" + tokens[2] + "' is out of range");
      }
      remaining = static_cast<Index>(degree);
      std::string name =
          tokens.size() >= 4 ? tokens[3] : ("n" + std::to_string(anon++));
      current_net = db.addNet(std::move(name));
      continue;
    }
    // Pin line: "cellName I/O/B : offx offy" (offsets optional).
    if (current_net == kInvalidIndex || remaining <= 0) {
      reader.fail("pin line outside a net: " + line);
    }
    auto it = byName.find(tokens[0]);
    if (it == byName.end()) {
      reader.fail("unknown cell in net: " + tokens[0]);
    }
    double offx = 0.0;
    double offy = 0.0;
    // Find the ':' then read two numbers if present.
    for (size_t i = 1; i + 2 < tokens.size() + 0u; ++i) {
      if (tokens[i] == ":") {
        if (i + 2 < tokens.size()) {
          offx = parseNumber(reader, tokens[i + 1], "pin x offset");
          offy = parseNumber(reader, tokens[i + 2], "pin y offset");
        }
        break;
      }
    }
    db.addPin(current_net, it->second, offx, offy);
    --remaining;
  }
}

void parseWts(const std::string& path, Database&) {
  // Net weights in ISPD 2005 .wts files are uniformly 1; the file is parsed
  // for format validation but weights stay at their default.
  if (!fs::exists(path)) {
    return;
  }
  LineReader reader(path);
  std::string line;
  while (reader.next(line)) {
    // No-op.
  }
}

void parsePl(const std::string& path, Database& db,
             const std::unordered_map<std::string, Index>& byName) {
  LineReader reader(path);
  std::string line;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.size() < 3) {
      continue;
    }
    auto it = byName.find(tokens[0]);
    if (it == byName.end()) {
      reader.fail("unknown cell in .pl: " + tokens[0]);
    }
    db.setCellPosition(it->second, parseNumber(reader, tokens[1], "x"),
                       parseNumber(reader, tokens[2], "y"));
  }
}

void parseScl(const std::string& path, Database& db) {
  LineReader reader(path);
  std::string line;
  Row row;
  bool in_row = false;
  double num_sites = 0;
  double min_x = 0;
  double min_y = 0;
  double max_x = 0;
  double max_y = 0;
  bool any = false;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.empty() || tokens[0] == "NumRows") {
      continue;
    }
    if (tokens[0] == "CoreRow") {
      in_row = true;
      row = Row{};
      num_sites = 0;
      continue;
    }
    if (!in_row) {
      continue;
    }
    if (tokens[0] == "End") {
      row.xh = row.xl + num_sites * row.siteWidth;
      db.addRow(row);
      if (!any) {
        min_x = row.xl;
        min_y = row.y;
        max_x = row.xh;
        max_y = row.y + row.height;
        any = true;
      } else {
        min_x = std::min(min_x, row.xl);
        min_y = std::min(min_y, row.y);
        max_x = std::max(max_x, row.xh);
        max_y = std::max(max_y, row.y + row.height);
      }
      in_row = false;
      continue;
    }
    if (tokens[0] == "Coordinate" && tokens.size() >= 3) {
      row.y = parseNumber(reader, tokens[2], "row coordinate");
    } else if (tokens[0] == "Height" && tokens.size() >= 3) {
      row.height = parseNumber(reader, tokens[2], "row height");
    } else if ((tokens[0] == "Sitewidth" || tokens[0] == "Sitespacing") &&
               tokens.size() >= 3) {
      row.siteWidth = parseNumber(reader, tokens[2], "site width");
    } else if (tokens[0] == "SubrowOrigin" && tokens.size() >= 3) {
      row.xl = parseNumber(reader, tokens[2], "subrow origin");
      // "SubrowOrigin : x NumSites : n" may share a line.
      for (size_t i = 3; i + 2 < tokens.size(); ++i) {
        if (tokens[i] == "NumSites" && tokens[i + 1] == ":") {
          num_sites = parseNumber(reader, tokens[i + 2], "site count");
        }
      }
    } else if (tokens[0] == "NumSites" && tokens.size() >= 3) {
      num_sites = parseNumber(reader, tokens[2], "site count");
    }
  }
  if (!any) {
    fail(path, "no rows found");
  }
  db.setDieArea({min_x, min_y, max_x, max_y});
}

}  // namespace

void readPlacement(Database& db, const std::string& plPath) {
  DP_ASSERT_MSG(db.finalized(), "readPlacement needs a finalized database");
  LineReader reader(plPath);
  std::string line;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.size() < 3) {
      continue;
    }
    const Index cell = db.findCell(tokens[0]);
    if (cell == kInvalidIndex) {
      reader.fail("unknown cell in .pl: " + tokens[0]);
    }
    db.setCellPosition(cell, parseNumber(reader, tokens[1], "x"),
                       parseNumber(reader, tokens[2], "y"));
  }
}

std::unique_ptr<Database> readBookshelf(const std::string& auxPath) {
  ScopedTimer timer("io/read");
  const AuxFiles files = parseAux(auxPath);
  auto db = std::make_unique<Database>();
  std::unordered_map<std::string, Index> byName;
  parseNodes(files.nodes, *db, byName);
  parseNets(files.nets, *db, byName);
  if (!files.wts.empty()) {
    parseWts(files.wts, *db);
  }
  parseScl(files.scl, *db);
  parsePl(files.pl, *db, byName);
  db->finalize();
  // Movable-first reordering invalidates byName indices, so positions were
  // set pre-finalize; re-resolve nothing here.
  logInfo("bookshelf: loaded %d cells (%d movable), %d nets, %d pins",
          db->numCells(), db->numMovable(), db->numNets(), db->numPins());
  return db;
}

}  // namespace dreamplace

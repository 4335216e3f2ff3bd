#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "io/bookshelf_reader.h"
#include "io/bookshelf_writer.h"

namespace dreamplace {
namespace {

namespace fs = std::filesystem;

class BookshelfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: ctest -j runs each test in its own process, and a
    // shared path would let one test's teardown race another's files.
    dir_ = fs::temp_directory_path() /
           ("dp_bookshelf_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(BookshelfTest, WriteReadRoundTrip) {
  GeneratorConfig cfg;
  cfg.designName = "rt";
  cfg.numCells = 300;
  cfg.numPads = 16;
  cfg.seed = 5;
  auto original = generateNetlist(cfg);
  writeBookshelf(*original, dir_.string(), "rt");

  auto loaded = readBookshelf((dir_ / "rt.aux").string());
  EXPECT_EQ(loaded->numCells(), original->numCells());
  EXPECT_EQ(loaded->numMovable(), original->numMovable());
  EXPECT_EQ(loaded->numNets(), original->numNets());
  EXPECT_EQ(loaded->numPins(), original->numPins());
  EXPECT_EQ(loaded->rows().size(), original->rows().size());
  EXPECT_NEAR(loaded->dieArea().xh, original->dieArea().xh, 1e-9);
  EXPECT_NEAR(loaded->dieArea().yh, original->dieArea().yh, 1e-9);
  // HPWL is a complete functional check of positions + offsets + nets.
  EXPECT_NEAR(hpwl(*loaded), hpwl(*original), 1e-6 * hpwl(*original));
}

TEST_F(BookshelfTest, CellAttributesRoundTrip) {
  GeneratorConfig cfg;
  cfg.numCells = 50;
  cfg.numPads = 8;
  cfg.seed = 9;
  auto original = generateNetlist(cfg);
  writeBookshelf(*original, dir_.string(), "attrs");
  auto loaded = readBookshelf((dir_ / "attrs.aux").string());
  for (Index i = 0; i < original->numCells(); ++i) {
    const Index j = loaded->findCell(original->cellName(i));
    ASSERT_NE(j, kInvalidIndex) << original->cellName(i);
    EXPECT_DOUBLE_EQ(loaded->cellWidth(j), original->cellWidth(i));
    EXPECT_DOUBLE_EQ(loaded->cellHeight(j), original->cellHeight(i));
    EXPECT_DOUBLE_EQ(loaded->cellX(j), original->cellX(i));
    EXPECT_EQ(loaded->isMovable(j), original->isMovable(i));
  }
}

TEST_F(BookshelfTest, ParsesHandWrittenFiles) {
  // Minimal hand-authored benchmark exercising comments, flexible
  // whitespace, and the terminal keyword.
  {
    std::ofstream aux(dir_ / "mini.aux");
    aux << "RowBasedPlacement : mini.nodes mini.nets mini.wts mini.pl "
           "mini.scl\n";
  }
  {
    std::ofstream nodes(dir_ / "mini.nodes");
    nodes << "UCLA nodes 1.0\n# comment line\n\n"
          << "NumNodes : 3\nNumTerminals : 1\n"
          << "  c0  4 12\n"
          << "\tc1\t6\t12\n"
          << "  io0 2 12 terminal\n";
  }
  {
    std::ofstream nets(dir_ / "mini.nets");
    nets << "UCLA nets 1.0\n\nNumNets : 1\nNumPins : 3\n"
         << "NetDegree : 3  signal\n"
         << "  c0 I : 0.5 1\n"
         << "  c1 O : -1 0\n"
         << "  io0 I : 0 0\n";
  }
  {
    std::ofstream wts(dir_ / "mini.wts");
    wts << "UCLA wts 1.0\n";
  }
  {
    std::ofstream pl(dir_ / "mini.pl");
    pl << "UCLA pl 1.0\n\n"
       << "c0 10 0 : N\n"
       << "c1 20 12 : N\n"
       << "io0 0 0 : N /FIXED\n";
  }
  {
    std::ofstream scl(dir_ / "mini.scl");
    scl << "UCLA scl 1.0\n\nNumRows : 2\n"
        << "CoreRow Horizontal\n"
        << " Coordinate : 0\n Height : 12\n"
        << " Sitewidth : 1\n Sitespacing : 1\n"
        << " Siteorient : 1\n Sitesymmetry : 1\n"
        << " SubrowOrigin : 0 NumSites : 100\n"
        << "End\n"
        << "CoreRow Horizontal\n"
        << " Coordinate : 12\n Height : 12\n"
        << " Sitewidth : 1\n Sitespacing : 1\n"
        << " SubrowOrigin : 0 NumSites : 100\n"
        << "End\n";
  }
  auto db = readBookshelf((dir_ / "mini.aux").string());
  EXPECT_EQ(db->numCells(), 3);
  EXPECT_EQ(db->numMovable(), 2);
  EXPECT_EQ(db->numNets(), 1);
  EXPECT_EQ(db->numPins(), 3);
  EXPECT_EQ(db->netDegree(0), 3);
  EXPECT_DOUBLE_EQ(db->dieArea().xh, 100);
  EXPECT_DOUBLE_EQ(db->dieArea().yh, 24);
  const Index c0 = db->findCell("c0");
  EXPECT_DOUBLE_EQ(db->cellX(c0), 10);
  const Index io0 = db->findCell("io0");
  EXPECT_FALSE(db->isMovable(io0));
}

TEST_F(BookshelfTest, MissingFileThrows) {
  EXPECT_THROW(readBookshelf((dir_ / "absent.aux").string()),
               std::runtime_error);
}

TEST_F(BookshelfTest, MalformedNetsThrows) {
  {
    std::ofstream aux(dir_ / "bad.aux");
    aux << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  }
  {
    std::ofstream nodes(dir_ / "bad.nodes");
    nodes << "c0 4 12\n";
  }
  {
    std::ofstream nets(dir_ / "bad.nets");
    nets << "unknown_cell I : 0 0\n";  // pin before any NetDegree
  }
  std::ofstream(dir_ / "bad.wts");
  {
    std::ofstream pl(dir_ / "bad.pl");
    pl << "c0 0 0 : N\n";
  }
  {
    std::ofstream scl(dir_ / "bad.scl");
    scl << "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n"
        << " SubrowOrigin : 0 NumSites : 10\nEnd\n";
  }
  EXPECT_THROW(readBookshelf((dir_ / "bad.aux").string()),
               std::runtime_error);
}

TEST_F(BookshelfTest, ReadPlacementOntoExistingDatabase) {
  GeneratorConfig cfg;
  cfg.numCells = 40;
  cfg.seed = 14;
  auto db = generateNetlist(cfg);
  // Move cells, save, scramble, reload: positions must round-trip.
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(i, i * 3.0, (i % 5) * 12.0);
  }
  const auto pl = (dir_ / "reload.pl").string();
  writePlacement(*db, pl);
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(i, 0, 0);
  }
  readPlacement(*db, pl);
  for (Index i = 0; i < db->numMovable(); ++i) {
    EXPECT_DOUBLE_EQ(db->cellX(i), i * 3.0);
    EXPECT_DOUBLE_EQ(db->cellY(i), (i % 5) * 12.0);
  }
}

TEST_F(BookshelfTest, ReadPlacementUnknownCellThrows) {
  GeneratorConfig cfg;
  cfg.numCells = 10;
  cfg.seed = 15;
  auto db = generateNetlist(cfg);
  std::ofstream(dir_ / "bad.pl") << "UCLA pl 1.0\nnot_a_cell 0 0 : N\n";
  EXPECT_THROW(readPlacement(*db, (dir_ / "bad.pl").string()),
               std::runtime_error);
}

TEST_F(BookshelfTest, WritePlacementOnly) {
  GeneratorConfig cfg;
  cfg.numCells = 20;
  cfg.seed = 2;
  auto db = generateNetlist(cfg);
  const fs::path pl = dir_ / "out.pl";
  writePlacement(*db, pl.string());
  std::ifstream in(pl);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "UCLA pl 1.0");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      ++lines;
    }
  }
  EXPECT_EQ(lines, db->numCells());
}

// A bad cell size (not positive, not finite, not a number, or out of
// range) fails the read with the file and line instead of reaching
// Database::validate's assertion.
class BadNodeSizeTest : public BookshelfTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(BadNodeSizeTest, ThrowsWithFileAndLine) {
  const std::string token = GetParam();
  {
    std::ofstream aux(dir_ / "size.aux");
    aux << "RowBasedPlacement : size.nodes size.nets size.pl size.scl\n";
  }
  {
    std::ofstream nodes(dir_ / "size.nodes");
    nodes << "UCLA nodes 1.0\n"
          << "c0 4 12\n"
          << "c1 " << token << " 12\n";
  }
  std::ofstream(dir_ / "size.nets") << "NetDegree : 2\nc0 I\nc1 O\n";
  std::ofstream(dir_ / "size.pl") << "c0 0 0 : N\nc1 10 0 : N\n";
  std::ofstream(dir_ / "size.scl")
      << "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n"
      << " Sitewidth : 1\n SubrowOrigin : 0 NumSites : 100\nEnd\n";
  try {
    readBookshelf((dir_ / "size.aux").string());
    FAIL() << "width '" << token << "' was accepted";
  } catch (const std::runtime_error& e) {
    const std::string where =
        "bookshelf: " + (dir_ / "size.nodes").string() + ":3: width '" +
        token + "'";
    EXPECT_EQ(std::string(e.what()).rfind(where, 0), 0u) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Tokens, BadNodeSizeTest,
                         ::testing::Values("0", "-5", "nan", "abc", "1e400",
                                           "inf"));

}  // namespace
}  // namespace dreamplace

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <utility>
#include <vector>

#include "util/config.h"
#include "util/serialization.h"
#include "util/stats.h"
#include "util/table.h"

namespace fedclust::util {
namespace {

// ---------------------------------------------------------------- stats

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.138089935299395, 1e-12);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, ArgminArgmax) {
  const std::vector<double> v = {3.0, -1.0, 7.0, 7.0};
  EXPECT_EQ(argmin(v), 1u);
  EXPECT_EQ(argmax(v), 2u);  // first maximum wins
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(mean({}), std::invalid_argument);
  EXPECT_THROW(median({}), std::invalid_argument);
  EXPECT_THROW(argmax({}), std::invalid_argument);
}

TEST(Stats, RunningStatMatchesBatch) {
  const std::vector<double> v = {1.5, 2.5, -0.5, 4.0, 10.0};
  RunningStat rs;
  for (const double x : v) rs.add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(v), 1e-12);
}

TEST(Stats, RunningStatSingleSample) {
  RunningStat rs;
  rs.add(5.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

// ---------------------------------------------------------------- table

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_float(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_float(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_pm(95.82, 0.17), "95.82 ± 0.17");
}

TEST(Table, RendersAlignedGrid) {
  TablePrinter t("Title");
  t.set_headers({"Method", "Acc"});
  t.add_row({"FedAvg", "50.27"});
  t.add_row({"FedClust", "95.82"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| Method   | Acc   |"), std::string::npos);
  EXPECT_NE(s.find("| FedClust | 95.82 |"), std::string::npos);
}

TEST(Table, HandlesRaggedRowsAndRules) {
  TablePrinter t;
  t.set_headers({"a", "b", "c"});
  t.add_row({"only-one"});
  t.add_rule();
  t.add_row({"x", "y", "z"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("only-one"), std::string::npos);
  EXPECT_NE(s.find("| x"), std::string::npos);
}

TEST(Table, UtfCellsAlign) {
  TablePrinter t;
  t.set_headers({"v"});
  t.add_row({"1.0 ± 0.1"});
  t.add_row({"123456789"});
  const std::string s = t.to_string();
  // Both cells render to the same display width, so both lines end aligned.
  std::istringstream is(s);
  std::string line;
  std::size_t bar_col = 0;
  while (std::getline(is, line)) {
    if (line.find("123456789") != std::string::npos) {
      bar_col = line.size();
    }
  }
  EXPECT_GT(bar_col, 0u);
}

// ---------------------------------------------------------------- config

TEST(Config, EnvDefaults) {
  ::unsetenv("FC_TEST_UNSET");
  EXPECT_EQ(env_string("FC_TEST_UNSET", "d"), "d");
  EXPECT_EQ(env_int("FC_TEST_UNSET", 7), 7);
}

TEST(Config, EnvParsing) {
  ::setenv("FC_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("FC_TEST_INT", 0), 42);
  ::setenv("FC_TEST_INT", "nope", 1);
  EXPECT_THROW(env_int("FC_TEST_INT", 0), std::exception);
}

TEST(Config, ArgParserOptionsAndFlags) {
  ArgParser p("prog", "test");
  p.add_option("rounds", "number of rounds", "10");
  p.add_option("dataset", "dataset name", "cifar10");
  p.add_flag("verbose", "chatty output");
  const char* argv[] = {"prog", "--rounds=25", "--verbose", "--dataset",
                        "svhn"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.integer("rounds"), 25);
  EXPECT_EQ(p.str("dataset"), "svhn");
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(Config, ArgParserDefaults) {
  ArgParser p("prog", "test");
  p.add_option("lr", "learning rate", "0.01");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_DOUBLE_EQ(p.real("lr"), 0.01);
}

TEST(Config, ArgParserRejectsUnknown) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(p.parse(2, argv), std::runtime_error);
}

TEST(Config, ArgParserHelpReturnsFalse) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

// -------------------------------------------------------- serialization

TEST(Serialization, RoundTripScalars) {
  BinaryWriter w;
  w.write_u32(0xdeadbeef);
  w.write_u64(1234567890123ULL);
  w.write_f32(3.25f);
  w.write_f64(-1e100);
  w.write_string("hello fedclust");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 1234567890123ULL);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -1e100);
  EXPECT_EQ(r.read_string(), "hello fedclust");
}

TEST(Serialization, RoundTripVectors) {
  BinaryWriter w;
  const std::vector<float> vf = {1.0f, -2.5f, 0.0f};
  const std::vector<double> vd = {};
  w.write_f32_vec(vf);
  w.write_f64_vec(vd);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_f32_vec(), vf);
  EXPECT_TRUE(r.read_f64_vec().empty());
}

TEST(Serialization, TruncatedStreamThrows) {
  BinaryWriter w;
  w.write_u32(1);
  w.write_u8(2);
  BinaryReader r(w.bytes());
  r.read_u32();
  try {
    r.read_u64();
    ADD_FAILURE() << "read past the end";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("want 8 bytes for u64, 1 left"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.read_u8(), 2u);
  EXPECT_TRUE(r.done());
}

// A declared length or count the bytes left cannot hold throws before
// anything is allocated: 2^62 floats would be 2^64 bytes, which wraps to 0.
TEST(Serialization, LengthsBeyondTheBytesLeftThrow) {
  BinaryWriter w;
  w.write_u64(std::uint64_t{1} << 62);
  w.write_u64(0);
  const auto reader = [&] { return BinaryReader(w.bytes()); };
  EXPECT_THROW(reader().read_string(), std::runtime_error);
  EXPECT_THROW(reader().read_f32_vec(), std::runtime_error);
  EXPECT_THROW(reader().read_f64_vec(), std::runtime_error);
  EXPECT_THROW(reader().read_count(1), std::runtime_error);
  EXPECT_THROW(reader().read_bytes(17), std::runtime_error);
  EXPECT_EQ(reader().read_bytes(16).size(), 16u);
}

// ---------------------------------------------------------------- files

TEST(Files, WriteReplacesWholeFileAndReadsItBack) {
  const std::string path = ::testing::TempDir() + "fc_files_roundtrip.bin";
  const std::string first("first\0binary\xff", 13);
  write_file(path, first);
  EXPECT_EQ(read_file(path), first);
  write_file(path, "second");  // replaces, never appends
  EXPECT_EQ(read_file(path), "second");
  write_file(path, "");
  EXPECT_EQ(read_file(path), "");
  // Atomic write: the temp file is renamed away.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(Files, EveryErrorNamesThePath) {
  const std::string bad = "/nonexistent-dir-fc/trace.csv";
  const std::string missing = ::testing::TempDir() + "fc_no_such_file";
  // An existing directory can be neither replaced nor written in place.
  const std::string dir = ::testing::TempDir() + "fc_files_dir";
  std::filesystem::create_directories(dir);
  const std::vector<std::pair<std::string, std::function<void()>>> cases = {
      {bad, [&] { write_file(bad, "x"); }},
      {missing, [&] { read_file(missing); }},
      {dir, [&] { write_file(dir, "x"); }},
  };
  for (const auto& [path, io] : cases) {
    try {
      io();
      ADD_FAILURE() << "expected a throw for " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << "error must name the offending path: " << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fedclust::util

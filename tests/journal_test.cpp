// EventJournal behavior: recording/flushing mechanics, and the
// determinism contract — with the wall clock off, a journaled run under a
// fault plan writes a bit-identical JSONL file at any FEDCLUST_THREADS
// (flush sorts rows into a canonical order, and no other field depends on
// scheduling).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "fl/federation.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

fl::ExperimentConfig journal_cfg() {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("svhn");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 12;
  cfg.fed.train_per_client = 12;
  cfg.fed.test_per_client = 6;
  cfg.fed.partition = "dirichlet";
  cfg.fed.dirichlet_alpha = 0.3;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 6;
  cfg.local.lr = 0.05f;
  cfg.rounds = 4;
  cfg.sample_fraction = 0.5;
  cfg.seed = 7;
  // Every fault class fires at least occasionally, so the determinism
  // claim covers the fault-outcome rows too.
  cfg.fault = fl::FaultPlan::parse(
      "dropout=0.1,crash=0.1,straggle=0.3,delay=3,comm=0.2,corrupt=0.2,"
      "deadline=6,retries=2");
  return cfg;
}

class JournalRun : public ::testing::Test {
 protected:
  void SetUp() override { prev_threads_ = util::global_pool().size() + 1; }
  void TearDown() override {
    obs::EventJournal::instance().close();
    obs::EventJournal::instance().set_wall_clock(true);
    util::reset_global_pool(prev_threads_);
  }

  std::string run_journaled(std::size_t threads, const std::string& path) {
    util::reset_global_pool(threads);
    auto& journal = obs::EventJournal::instance();
    journal.set_wall_clock(false);  // zero the one wall-clock field
    journal.open(path);
    journal.set_codec_name("raw_f32");
    fl::Federation fed(journal_cfg());
    core::make_algorithm("FedClust", fed)->run();
    journal.close();
    return util::read_file(path);
  }

 private:
  std::size_t prev_threads_ = 1;
};

TEST_F(JournalRun, FileIsBitIdenticalAcrossThreadCounts) {
  const std::string p1 = ::testing::TempDir() + "journal_t1.jsonl";
  const std::string p4 = ::testing::TempDir() + "journal_t4.jsonl";
  const std::string a = run_journaled(1, p1);
  const std::string b = run_journaled(4, p4);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "journal JSONL differs between 1 and 4 threads";
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST_F(JournalRun, FileParsesAndCoversTheLifecycle) {
  const std::string path = ::testing::TempDir() + "journal_parse.jsonl";
  const std::string text = run_journaled(2, path);
  const auto lines = obs::json::parse_lines(text);
  ASSERT_GT(lines.size(), 1u);
  EXPECT_DOUBLE_EQ(lines.front().number_or("journal", 0.0), 1.0);
  EXPECT_EQ(lines.front().string_or("codec", ""), "raw_f32");
  std::size_t sampled = 0, trained = 0, uploads = 0, clusters = 0,
              evals = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto& row = lines[i];
    ASSERT_NE(row.find("round"), nullptr);
    ASSERT_NE(row.find("client"), nullptr);
    const std::string ev = row.string_or("ev", "");
    ASSERT_FALSE(ev.empty());
    if (ev == "sampled") ++sampled;
    if (ev == "train") {
      ++trained;
      // Wall clock was off for this run, so the field must be zero.
      EXPECT_DOUBLE_EQ(row.number_or("train_us", -1.0), 0.0);
    }
    if (ev == "upload") {
      ++uploads;
      EXPECT_GT(row.number_or("wire_bytes", 0.0),
                row.number_or("payload_bytes", 0.0) > 0.0 ? 0.0 : -1.0);
    }
    if (ev == "cluster") ++clusters;
    if (ev == "eval") ++evals;
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_GT(trained, 0u);
  EXPECT_GT(uploads, 0u);
  EXPECT_GT(clusters, 0u);  // FedClust journals cluster assignments
  EXPECT_GT(evals, 0u);
  std::remove(path.c_str());
}

// fedclust_sim's flags --clients=20 --train=10 --test=10 --rounds=3 with
// the CLI defaults for everything else.
fl::ExperimentConfig cli_cfg() {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("cifar10");
  cfg.fed.n_clients = 20;
  cfg.fed.train_per_client = 10;
  cfg.fed.test_per_client = 10;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.model.arch = "lenet5";
  cfg.model.in_channels = cfg.data_spec.channels;
  cfg.model.image_hw = cfg.data_spec.hw;
  cfg.model.num_classes = cfg.data_spec.num_classes;
  cfg.local.epochs = 2;
  cfg.local.lr = 0.02f;
  cfg.local.momentum = 0.5f;
  cfg.rounds = 3;
  cfg.sample_fraction = 0.1;
  cfg.seed = 1;
  cfg.algo.fedclust_lambda = -1.0f;
  cfg.algo.fedclust_init_epochs = 3;
  return cfg;
}

std::vector<std::string> every_method() {
  std::vector<std::string> methods = core::all_methods();
  for (const std::string& m : core::extra_methods()) methods.push_back(m);
  return methods;
}

// Every method journals the rows of its client steps, whether it trains
// through ParallelRoundRunner::train_clients_into or its own loop: the
// download and upload rows add up to the wire bytes CommTracker billed,
// every sampled client has a train row, and every evaluated round has an
// eval row per evaluated client.
class JournalCoverage : public JournalRun,
                        public ::testing::WithParamInterface<std::string> {};

TEST_P(JournalCoverage, ClientStepsAreJournaled) {
  const std::string method = GetParam();
  util::reset_global_pool(2);
  auto& journal = obs::EventJournal::instance();
  journal.set_wall_clock(false);
  const std::string path =
      ::testing::TempDir() + "journal_" + method + ".jsonl";
  journal.open(path);
  fl::Federation fed(cli_cfg());
  const fl::Trace trace = core::make_algorithm(method, fed)->run();
  journal.close();

  std::uint64_t wire_bytes = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> sampled, trained;
  std::map<std::uint64_t, std::size_t> eval_rows;
  for (const auto& row : obs::json::parse_lines(util::read_file(path))) {
    const std::string ev = row.string_or("ev", "");
    const auto round = static_cast<std::uint64_t>(row.number_or("round", 0));
    const auto client = static_cast<std::uint64_t>(row.number_or("client", 0));
    if (ev == "download" || ev == "upload") {
      wire_bytes += static_cast<std::uint64_t>(row.number_or("wire_bytes", 0));
    } else if (ev == "sampled") {
      sampled.emplace(round, client);
    } else if (ev == "train") {
      trained.emplace(round, client);
    } else if (ev == "eval") {
      ++eval_rows[round];
    }
  }
  std::remove(path.c_str());

  // FedClust, PACFL and FLIS bill their setup transfers (warmup weights,
  // subspaces, proxy profiles) without journaling them.
  if (method != "FedClust" && method != "PACFL" && method != "FLIS") {
    EXPECT_EQ(wire_bytes, fed.comm().wire_bytes());
  }
  EXPECT_FALSE(sampled.empty());
  for (const auto& [round, client] : sampled) {
    EXPECT_EQ(trained.count({round, client}), 1u)
        << "no train row for round " << round << " client " << client;
  }
  std::map<std::uint64_t, std::size_t> want_eval_rows;
  for (const fl::RoundRecord& rec : trace.records) {
    want_eval_rows[rec.round] = fed.eval_ids().size();
  }
  EXPECT_EQ(eval_rows, want_eval_rows);
}

INSTANTIATE_TEST_SUITE_P(EveryMethod, JournalCoverage,
                         ::testing::ValuesIn(every_method()),
                         [](const auto& info) { return info.param; });

TEST(JournalUnit, DisabledRecordIsANoOp) {
  auto& journal = obs::EventJournal::instance();
  ASSERT_FALSE(obs::EventJournal::enabled());
  journal.record(1, 2, obs::JournalEvent::kSampled);
  OBS_JOURNAL(1, 2, kSampled);
  EXPECT_EQ(journal.buffered_rows(), 0u);
}

TEST(JournalUnit, FlushSortsRowsIntoCanonicalOrder) {
  const std::string path = ::testing::TempDir() + "journal_sort.jsonl";
  auto& journal = obs::EventJournal::instance();
  journal.open(path);
  // Recorded deliberately out of order.
  journal.record(2, 0, obs::JournalEvent::kSampled);
  journal.record(1, 5, obs::JournalEvent::kTrain, 42);
  journal.record(1, 3, obs::JournalEvent::kSampled);
  EXPECT_EQ(journal.buffered_rows(), 3u);
  journal.close();
  const auto lines = obs::json::parse_lines(util::read_file(path));
  ASSERT_EQ(lines.size(), 4u);  // header + 3 rows
  EXPECT_DOUBLE_EQ(lines[1].number_or("round", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(lines[1].number_or("client", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(lines[2].number_or("client", -1.0), 5.0);
  EXPECT_EQ(lines[2].string_or("ev", ""), "train");
  EXPECT_DOUBLE_EQ(lines[2].number_or("train_us", -1.0), 42.0);
  EXPECT_DOUBLE_EQ(lines[3].number_or("round", -1.0), 2.0);
  std::remove(path.c_str());
}

TEST(JournalUnit, RoundContextGatesEvalRows) {
  const std::string path = ::testing::TempDir() + "journal_ctx.jsonl";
  auto& journal = obs::EventJournal::instance();
  journal.open(path);
  // No context set: the row is dropped, not misattributed.
  journal.record_in_context(4, obs::JournalEvent::kEval, 500000);
  EXPECT_EQ(journal.buffered_rows(), 0u);
  journal.set_round_context(9);
  journal.record_in_context(4, obs::JournalEvent::kEval, 500000);
  journal.clear_round_context();
  journal.record_in_context(4, obs::JournalEvent::kEval, 250000);
  EXPECT_EQ(journal.buffered_rows(), 1u);
  journal.close();
  const auto lines = obs::json::parse_lines(util::read_file(path));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_DOUBLE_EQ(lines[1].number_or("round", -1.0), 9.0);
  EXPECT_DOUBLE_EQ(lines[1].number_or("acc_micro", -1.0), 500000.0);
  std::remove(path.c_str());
}

TEST(JournalUnit, OpenThrowsNamingThePath) {
  try {
    obs::EventJournal::instance().open("/nonexistent-dir-journal/j.jsonl");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-journal/j.jsonl"),
              std::string::npos);
  }
  EXPECT_FALSE(obs::EventJournal::enabled());
}

}  // namespace
}  // namespace fedclust

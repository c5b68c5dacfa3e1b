// Deterministic fault injection and resilient round execution: the fault
// schedule is a pure function of (seed, client, round), corrupted updates
// are quarantined before any FP reduction, hollowed-out clusters carry
// their models forward, and a zero-fault plan is bit-identical to running
// with the engine disabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/fedclust.h"
#include "core/registry.h"
#include "fl/fault.h"
#include "fl/fedavg.h"
#include "fl/federation.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

fl::ExperimentConfig cfg_for(std::uint64_t seed) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("svhn");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 10;
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
  cfg.rounds = 3;
  cfg.sample_fraction = 0.4;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const fl::Trace& a, const fl::Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].avg_local_test_acc,
                     b.records[i].avg_local_test_acc);
    EXPECT_EQ(a.records[i].bytes_up, b.records[i].bytes_up);
    EXPECT_EQ(a.records[i].bytes_down, b.records[i].bytes_down);
    EXPECT_EQ(a.records[i].n_clusters, b.records[i].n_clusters);
  }
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "params differ at " << i;
  }
}

void expect_all_finite(const std::vector<float>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_TRUE(std::isfinite(v[i])) << "non-finite param at " << i;
  }
}

template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Enables the metrics registry for one test and restores the disabled
// default afterwards, zeroing values both ways so tests can't observe each
// other's counters.
class MetricsOn {
 public:
  MetricsOn() {
    obs::MetricsRegistry::instance().reset_values();
    obs::MetricsRegistry::instance().set_enabled(true);
  }
  ~MetricsOn() {
    obs::MetricsRegistry::instance().set_enabled(false);
    obs::MetricsRegistry::instance().reset_values();
  }
};

std::uint64_t counter_value(const std::string& name) {
  return obs::MetricsRegistry::instance().snapshot().counter_value(name);
}

// ---- FaultPlan parsing ----------------------------------------------------

TEST(FaultPlanParse, EmptySpecIsDisabled) {
  const fl::FaultPlan plan = fl::FaultPlan::parse("");
  EXPECT_FALSE(plan.enabled);
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlanParse, ParsesFullSpec) {
  const fl::FaultPlan plan = fl::FaultPlan::parse(
      "dropout=0.1,crash=0.2,straggle=0.3,delay=4,comm=0.15,corrupt=0.05,"
      "corrupt_mode=nan,explode=1e7,deadline=2.5,retries=3,over_select=0.5,"
      "max_norm=500,only=7:0:3");
  EXPECT_TRUE(plan.enabled);
  EXPECT_TRUE(plan.active());
  EXPECT_DOUBLE_EQ(plan.pre_round_dropout, 0.1);
  EXPECT_DOUBLE_EQ(plan.post_train_crash, 0.2);
  EXPECT_DOUBLE_EQ(plan.straggler_prob, 0.3);
  EXPECT_DOUBLE_EQ(plan.straggler_delay, 4.0);
  EXPECT_DOUBLE_EQ(plan.transient_comm_prob, 0.15);
  EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.05);
  EXPECT_EQ(plan.corrupt_mode, "nan");
  EXPECT_DOUBLE_EQ(plan.explode_factor, 1e7);
  EXPECT_DOUBLE_EQ(plan.round_deadline, 2.5);
  EXPECT_EQ(plan.max_retries, 3u);
  EXPECT_DOUBLE_EQ(plan.over_select_fraction, 0.5);
  EXPECT_DOUBLE_EQ(plan.max_update_norm, 500.0);
  EXPECT_EQ(plan.only_clients, (std::vector<std::size_t>{0, 3, 7}));
  EXPECT_FALSE(plan.describe().empty());
}

// A valid --fault-spec value for `field` that differs from its default.
template <class T>
std::string non_default_spec_value(const T& field) {
  if constexpr (std::is_same_v<T, double>) {
    return std::to_string(field == 0.0 ? 0.5 : field * 2);
  } else if constexpr (std::is_same_v<T, std::size_t>) {
    return std::to_string(field + 1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "nan";  // corrupt_mode; the default is "mix"
  } else {
    return "5:1";  // only
  }
}

// For every spec key: a plan with only that key at a non-default value
// describes it, and parsing the description reproduces the plan.
TEST(FaultPlanParse, RoundTripsEveryKey) {
  const fl::FaultPlan defaults;
  std::string keys;
  fl::for_each_field(defaults, [&](const util::FieldInfo& f,
                                   const auto& field) {
    if (f.spec_key == nullptr) return;
    if constexpr (!std::is_same_v<std::decay_t<decltype(field)>, bool>) {
      keys += (keys.empty() ? "" : ", ") + std::string(f.spec_key);
      const std::string spec =
          std::string(f.spec_key) + "=" + non_default_spec_value(field);
      const fl::FaultPlan plan = fl::FaultPlan::parse(spec);
      const std::string desc = plan.describe();
      EXPECT_NE(desc.find(std::string(f.spec_key) + "="), std::string::npos)
          << spec << " described as '" << desc << "'";
      std::string respec = desc;
      std::replace(respec.begin(), respec.end(), ' ', ',');
      EXPECT_EQ(fl::FaultPlan::parse(respec).describe(), desc) << spec;
    }
  });
  EXPECT_EQ(keys, fl::FaultPlan::spec_keys());
  EXPECT_EQ(keys,
            "dropout, crash, straggle, delay, comm, corrupt, corrupt_mode, "
            "explode, deadline, retries, backoff_base, backoff_mult, "
            "over_select, max_norm, only");
}

TEST(FaultPlanParse, AllZeroSpecIsEnabledButDescribable) {
  const fl::FaultPlan plan = fl::FaultPlan::parse("retries=2");
  EXPECT_TRUE(plan.enabled);
  EXPECT_TRUE(plan.active());  // enabled forces the engine code path
  EXPECT_DOUBLE_EQ(plan.post_train_crash, 0.0);
}

TEST(FaultPlanParse, UnknownKeyThrowsNamingValidKeys) {
  const std::string msg =
      thrown_message([] { fl::FaultPlan::parse("bogus=1"); });
  EXPECT_NE(msg.find("unknown key 'bogus'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("crash"), std::string::npos) << msg;
}

TEST(FaultPlanParse, BadValueThrows) {
  EXPECT_THROW(fl::FaultPlan::parse("crash=lots"), std::invalid_argument);
  EXPECT_THROW(fl::FaultPlan::parse("crash"), std::invalid_argument);
}

TEST(FaultPlanParse, ValidatesRanges) {
  EXPECT_NE(thrown_message([] { fl::FaultPlan::parse("crash=1.0"); })
                .find("FaultPlan.post_train_crash"),
            std::string::npos);
  EXPECT_NE(thrown_message([] { fl::FaultPlan::parse("delay=0.5"); })
                .find("FaultPlan.straggler_delay"),
            std::string::npos);
  EXPECT_NE(thrown_message([] { fl::FaultPlan::parse("corrupt_mode=zap"); })
                .find("FaultPlan.corrupt_mode"),
            std::string::npos);
  EXPECT_THROW(fl::FaultPlan::parse("retries=1.5"), std::invalid_argument);
}

// ---- UpdateValidator ------------------------------------------------------

TEST(UpdateValidatorTest, AcceptsFiniteUpdates) {
  const fl::UpdateValidator v(0.0);
  EXPECT_EQ(v.check({0.5f, -1.0f, 3.0f}), nullptr);
}

TEST(UpdateValidatorTest, RejectsNanAndInf) {
  const fl::UpdateValidator v(0.0);
  EXPECT_STREQ(v.check({0.5f, std::numeric_limits<float>::quiet_NaN()}),
               "non_finite");
  EXPECT_STREQ(v.check({std::numeric_limits<float>::infinity(), 1.0f}),
               "non_finite");
}

TEST(UpdateValidatorTest, EnforcesNormBoundOnlyWhenSet) {
  const fl::UpdateValidator bounded(1.0);
  EXPECT_STREQ(bounded.check({2.0f, 0.0f}), "norm_bound");  // ||.|| = 2
  EXPECT_EQ(bounded.check({0.5f, 0.5f}), nullptr);
  const fl::UpdateValidator unbounded(0.0);
  EXPECT_EQ(unbounded.check({1e30f, 1e30f}), nullptr);
}

// Finiteness is an exponent-bits scan, and the norm is summed only when a
// bound is set; every special value gets the same verdict at both settings.
TEST(UpdateValidatorTest, SpecialValuesAtBothBoundSettings) {
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float snan = std::numeric_limits<float>::signaling_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float max_denorm = std::bit_cast<float>(std::uint32_t{0x007fffff});
  // Quiet and signalling NaNs with nonzero payloads, and a negative NaN.
  const float qnan_payload = std::bit_cast<float>(std::uint32_t{0x7fc12345});
  const float snan_payload = std::bit_cast<float>(std::uint32_t{0x7f800001});
  const float neg_nan = std::bit_cast<float>(std::uint32_t{0xffc00000});
  for (const double bound : {0.0, 1e6}) {
    SCOPED_TRACE(bound);
    const fl::UpdateValidator v(bound);
    for (const float bad : {qnan, snan, qnan_payload, snan_payload, neg_nan,
                            inf, -inf}) {
      std::vector<float> update(37, 0.25f);
      update.back() = bad;  // the last element, past any vector tail
      EXPECT_STREQ(v.check(update), "non_finite") << bad;
      update.back() = 0.25f;
      update.front() = bad;
      EXPECT_STREQ(v.check(update), "non_finite") << bad;
    }
    EXPECT_EQ(v.check({denorm, -denorm, max_denorm, -max_denorm}), nullptr);
    EXPECT_EQ(v.check({-0.0f, 0.0f, -0.0f}), nullptr);
    EXPECT_STREQ(v.check({std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::lowest()}),
                 bound > 0.0 ? "norm_bound" : nullptr);
    EXPECT_EQ(v.check({}), nullptr);
  }
}

// ---- FaultEngine schedule purity ------------------------------------------

fl::FaultPlan full_plan() {
  return fl::FaultPlan::parse(
      "dropout=0.15,crash=0.1,straggle=0.2,delay=4,comm=0.2,corrupt=0.15,"
      "deadline=3.5,retries=2,max_norm=1e6");
}

void expect_same_decision(const fl::FaultDecision& a,
                          const fl::FaultDecision& b) {
  EXPECT_EQ(a.drop_pre_round, b.drop_pre_round);
  EXPECT_EQ(a.crash_post_train, b.crash_post_train);
  EXPECT_EQ(a.straggler, b.straggler);
  EXPECT_DOUBLE_EQ(a.delay_factor, b.delay_factor);
  EXPECT_EQ(static_cast<int>(a.corrupt), static_cast<int>(b.corrupt));
  EXPECT_EQ(a.transient_failures, b.transient_failures);
}

TEST(FaultEngineTest, ScheduleIsAPureFunctionOfSeedClientRound) {
  const fl::FaultEngine e1(full_plan(), 99);
  const fl::FaultEngine e2(full_plan(), 99);
  for (std::size_t c = 0; c < 10; ++c) {
    for (std::size_t r = 0; r < 10; ++r) {
      // Same engine asked twice, and an independently constructed engine:
      // three identical answers, regardless of query order.
      expect_same_decision(e1.decide(c, r), e1.decide(c, r));
      expect_same_decision(e1.decide(c, r), e2.decide(c, r));
    }
  }
}

TEST(FaultEngineTest, SchedulesDivergeAcrossSeeds) {
  const fl::FaultEngine e1(full_plan(), 1);
  const fl::FaultEngine e2(full_plan(), 2);
  std::size_t differing = 0;
  for (std::size_t c = 0; c < 10; ++c) {
    for (std::size_t r = 0; r < 10; ++r) {
      const auto a = e1.decide(c, r);
      const auto b = e2.decide(c, r);
      differing += a.drop_pre_round != b.drop_pre_round ||
                   a.crash_post_train != b.crash_post_train ||
                   a.straggler != b.straggler ||
                   a.transient_failures != b.transient_failures;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultEngineTest, OnlyClientsRestrictsInjection) {
  fl::FaultPlan plan = fl::FaultPlan::parse("crash=0.999999,only=2:5");
  const fl::FaultEngine engine(plan, 7);
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_FALSE(engine.decide(0, r).crash_post_train);
    EXPECT_FALSE(engine.decide(9, r).crash_post_train);
  }
  std::size_t crashes = 0;
  for (std::size_t r = 0; r < 20; ++r) {
    crashes += engine.decide(2, r).crash_post_train;
    crashes += engine.decide(5, r).crash_post_train;
  }
  EXPECT_GT(crashes, 30u);  // p = 0.999999 over 40 draws
}

TEST(FaultEngineTest, InactiveEngineDecidesNothing) {
  const fl::FaultEngine engine{};
  const auto d = engine.decide(3, 4);
  EXPECT_FALSE(d.drop_pre_round);
  EXPECT_FALSE(d.crash_post_train);
  EXPECT_FALSE(d.straggler);
  EXPECT_EQ(d.transient_failures, 0u);
}

TEST(FaultEngineTest, CorruptionIsDeterministic) {
  const fl::FaultEngine engine(full_plan(), 11);
  std::vector<float> a(64, 0.25f);
  std::vector<float> b(64, 0.25f);
  engine.corrupt_update(a, 3, 5, fl::CorruptionKind::kBitFlip);
  engine.corrupt_update(b, 3, 5, fl::CorruptionKind::kBitFlip);
  expect_bit_identical(a, b);
  EXPECT_NE(a, std::vector<float>(64, 0.25f));  // something actually flipped
}

// ---- ExperimentConfig validation at Federation construction ----------------

TEST(ConfigValidation, RejectsBadSampleFraction) {
  auto cfg = cfg_for(1);
  cfg.sample_fraction = 0.0;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("sample_fraction"),
            std::string::npos);
  cfg.sample_fraction = 1.5;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("sample_fraction"),
            std::string::npos);
}

TEST(ConfigValidation, RejectsZeroRoundsAndEvalEvery) {
  auto cfg = cfg_for(1);
  cfg.rounds = 0;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); }).find("rounds"),
            std::string::npos);
  cfg = cfg_for(1);
  cfg.eval_every = 0;
  EXPECT_NE(
      thrown_message([&] { fl::Federation fed(cfg); }).find("eval_every"),
      std::string::npos);
}

TEST(ConfigValidation, RejectsZeroTrainAndTestSamplesPerClient) {
  auto cfg = cfg_for(1);
  cfg.fed.train_per_client = 0;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("fed.train_per_client"),
            std::string::npos);
  cfg = cfg_for(1);
  cfg.fed.test_per_client = 0;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("fed.test_per_client"),
            std::string::npos);
}

TEST(ConfigValidation, RejectsZeroLocalEpochsAndBatchSize) {
  auto cfg = cfg_for(1);
  cfg.local.epochs = 0;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("local.epochs"),
            std::string::npos);
  cfg = cfg_for(1);
  cfg.local.batch_size = 0;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("local.batch_size"),
            std::string::npos);
}

TEST(ConfigValidation, RejectsNonPositiveOrNonFiniteLearningRate) {
  for (const float lr : {0.0f, -0.01f, std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN()}) {
    auto cfg = cfg_for(1);
    cfg.local.lr = lr;
    EXPECT_NE(
        thrown_message([&] { fl::Federation fed(cfg); }).find("local.lr"),
        std::string::npos)
        << "lr=" << lr;
  }
}

TEST(ConfigValidation, RejectsBadFaultPlan) {
  auto cfg = cfg_for(1);
  cfg.fault.post_train_crash = 1.5;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("FaultPlan.post_train_crash"),
            std::string::npos);
  cfg = cfg_for(1);
  cfg.fault.pre_round_dropout = 1.0;
  EXPECT_NE(thrown_message([&] { fl::Federation fed(cfg); })
                .find("FaultPlan.pre_round_dropout"),
            std::string::npos);
}

// ---- deliver_update cost profiles ------------------------------------------

TEST(Delivery, FaultFreePathBillsOneUpload) {
  fl::Federation fed(cfg_for(5));
  ASSERT_FALSE(fed.faults().active());
  std::vector<float> params = fed.init_params();
  const std::uint64_t before = fed.comm().bytes_up();
  EXPECT_TRUE(fed.deliver_update(0, 0, params, 50));
  EXPECT_EQ(fed.comm().bytes_up() - before, 50u * 4u);
}

TEST(Delivery, CrashLosesUpdateWithoutBytes) {
  auto cfg = cfg_for(5);
  cfg.fault = fl::FaultPlan::parse("crash=0.999999");
  fl::Federation fed(cfg);
  // Find a scheduled crash (virtually every pair; scan keeps it exact).
  for (std::size_t c = 0; c < fed.n_clients(); ++c) {
    if (!fed.faults().decide(c, 0).crash_post_train) continue;
    std::vector<float> params = fed.init_params();
    const std::uint64_t before = fed.comm().bytes_up();
    EXPECT_FALSE(fed.deliver_update(c, 0, params, 50));
    EXPECT_EQ(fed.comm().bytes_up(), before);  // no byte ever moved
    return;
  }
  FAIL() << "no crash scheduled at p=0.999999";
}

TEST(Delivery, RetriesBillEveryTransmission) {
  auto cfg = cfg_for(5);
  cfg.fault = fl::FaultPlan::parse("comm=0.4,retries=2");
  fl::Federation fed(cfg);
  const std::size_t max_retries = fed.faults().plan().max_retries;
  for (std::size_t c = 0; c < fed.n_clients(); ++c) {
    for (std::size_t r = 0; r < 50; ++r) {
      const auto d = fed.faults().decide(c, r);
      if (d.transient_failures == 0 || d.transient_failures > max_retries) {
        continue;  // want a retried-but-delivered update
      }
      std::vector<float> params = fed.init_params();
      const std::uint64_t before = fed.comm().bytes_up();
      EXPECT_TRUE(fed.deliver_update(c, r, params, 100));
      EXPECT_EQ(fed.comm().bytes_up() - before,
                100u * 4u * (d.transient_failures + 1));
      return;
    }
  }
  FAIL() << "no retried delivery found in the schedule";
}

TEST(Delivery, ExhaustedRetriesLoseUpdateButBillComm) {
  auto cfg = cfg_for(5);
  cfg.fault = fl::FaultPlan::parse("comm=0.7,retries=1");
  fl::Federation fed(cfg);
  const std::size_t max_retries = fed.faults().plan().max_retries;
  for (std::size_t c = 0; c < fed.n_clients(); ++c) {
    for (std::size_t r = 0; r < 50; ++r) {
      if (fed.faults().decide(c, r).transient_failures <= max_retries) {
        continue;
      }
      std::vector<float> params = fed.init_params();
      const std::uint64_t before = fed.comm().bytes_up();
      EXPECT_FALSE(fed.deliver_update(c, r, params, 100));
      // Every attempt within the budget put bytes on the wire.
      EXPECT_EQ(fed.comm().bytes_up() - before,
                100u * 4u * (max_retries + 1));
      return;
    }
  }
  FAIL() << "no exhausted retry budget found in the schedule";
}

// ---- over-selection --------------------------------------------------------

TEST(OverSelection, GrowsTheInvitedCohort) {
  auto cfg = cfg_for(8);
  cfg.fault = fl::FaultPlan::parse("over_select=0.5");
  fl::Federation fed(cfg);
  // 0.4 * 10 = 4 wanted, hedged to ceil(4 * 1.5) = 6; no dropouts occur.
  EXPECT_EQ(fed.sample_round(0).size(), 6u);

  fl::Federation plain(cfg_for(8));
  EXPECT_EQ(plain.sample_round(0).size(), 4u);
}

// ---- end-to-end resilience -------------------------------------------------

TEST(Resilience, FedAvgAllCrashCarriesGlobalForward) {
  auto cfg = cfg_for(21);
  cfg.fault = fl::FaultPlan::parse("crash=0.999999");
  fl::Federation fed(cfg);
  fl::FedAvg algo(fed);
  const fl::Trace trace = algo.run();
  EXPECT_EQ(trace.records.size(), cfg.rounds);
  // Every update was lost post-train, so θ never moved — and no upload
  // bytes were billed for the crashed deliveries.
  expect_bit_identical(algo.global_params(), fed.init_params());
  EXPECT_EQ(fed.comm().bytes_up(), 0u);
  EXPECT_GT(fed.comm().bytes_down(), 0u);  // downloads still happened
}

TEST(Resilience, StragglerDeadlineDiscardsLateUpdates) {
  auto cfg = cfg_for(22);
  cfg.fault = fl::FaultPlan::parse("straggle=0.999999,delay=10,deadline=1");
  fl::Federation fed(cfg);
  fl::FedAvg algo(fed);
  algo.run();
  // Every client straggled past the deadline: the updates were transmitted
  // (comm spent) but discarded, so the global model never moved.
  expect_bit_identical(algo.global_params(), fed.init_params());
  EXPECT_GT(fed.comm().bytes_up(), 0u);
}

TEST(Resilience, CorruptedUpdatesNeverReachFedAvgAggregation) {
  const MetricsOn metrics;
  auto cfg = cfg_for(23);
  cfg.fault = fl::FaultPlan::parse("corrupt=0.9,corrupt_mode=nan");
  fl::Federation fed(cfg);
  fl::FedAvg algo(fed);
  algo.run();
  expect_all_finite(algo.global_params());
  EXPECT_GT(counter_value("fault.injected.corrupted_update"), 0u);
  // Every NaN injection was caught by the always-on finiteness screen.
  EXPECT_EQ(counter_value("fault.rejected_updates"),
            counter_value("fault.injected.corrupted_update"));
}

TEST(Resilience, ExplodingUpdatesNeverReachFedClustAggregation) {
  const MetricsOn metrics;
  auto cfg = cfg_for(24);
  cfg.algo.fedclust_k = 2;
  cfg.fault = fl::FaultPlan::parse(
      "corrupt=0.9,corrupt_mode=explode,explode=1e8,max_norm=1e6");
  fl::Federation fed(cfg);
  core::FedClust algo(fed);
  algo.run();
  for (std::size_t k = 0; k < algo.report().n_clusters; ++k) {
    expect_all_finite(algo.cluster_model(k));
  }
  EXPECT_GT(counter_value("fault.injected.corrupted_update"), 0u);
  EXPECT_EQ(counter_value("fault.rejected_updates"),
            counter_value("fault.injected.corrupted_update"));
}

TEST(Resilience, FedClustCarriesClusterModelThroughTotalCrash) {
  // Clean run reveals the (deterministic) clustering, then the chaos
  // campaign targets every member of cluster 0 with certain post-train
  // crashes. The run must complete, carry cluster 0's model forward
  // untouched, and keep training the other cluster.
  auto cfg = cfg_for(25);
  cfg.algo.fedclust_k = 2;
  cfg.sample_fraction = 1.0;
  std::vector<std::size_t> members;
  std::vector<std::size_t> clean_assignment;
  {
    fl::Federation fed(cfg);
    core::FedClust algo(fed);
    algo.run();
    clean_assignment = algo.assignment();
    for (std::size_t c = 0; c < clean_assignment.size(); ++c) {
      if (clean_assignment[c] == 0) members.push_back(c);
    }
  }
  ASSERT_FALSE(members.empty());
  ASSERT_LT(members.size(), cfg.fed.n_clients);

  const MetricsOn metrics;
  cfg.fault.post_train_crash = 0.999999;
  cfg.fault.only_clients = members;
  cfg.fault.enabled = true;
  fl::Federation fed(cfg);
  core::FedClust algo(fed);
  algo.run();

  // The warmup sweep is fault-free, so the clustering is unchanged.
  EXPECT_EQ(algo.assignment(), clean_assignment);
  ASSERT_EQ(algo.report().n_clusters, 2u);
  // Cluster 0 lost every update every round: its model is still θ0.
  expect_bit_identical(algo.cluster_model(0), fed.init_params());
  // Cluster 1 kept aggregating.
  EXPECT_NE(algo.cluster_model(1), fed.init_params());
  EXPECT_GT(counter_value("fault.empty_cluster_rounds"), 0u);
}

TEST(Resilience, IfcaCompletesWithEveryUpdateCrashed) {
  const MetricsOn metrics;
  auto cfg = cfg_for(26);
  cfg.fault = fl::FaultPlan::parse("crash=0.999999");
  fl::Federation fed(cfg);
  const auto algo = core::make_algorithm("IFCA", fed);
  const fl::Trace trace = algo->run();
  EXPECT_EQ(trace.records.size(), cfg.rounds);
  EXPECT_GE(trace.final_accuracy(), 0.0);
  EXPECT_LE(trace.final_accuracy(), 1.0);
  EXPECT_GT(counter_value("fault.empty_cluster_rounds"), 0u);
  EXPECT_GT(counter_value("fault.lost_updates"), 0u);
}

// ---- zero-fault plan ≡ engine disabled -------------------------------------

TEST(ZeroFaultPlan, MatchesDisabledEngineBitForBit) {
  const auto run_with = [&](bool engine_on) {
    auto cfg = cfg_for(31);
    cfg.fault.enabled = engine_on;  // all-zero probabilities either way
    fl::Federation fed(cfg);
    fl::FedAvg algo(fed);
    fl::Trace trace = algo.run();
    return std::make_pair(std::move(trace), algo.global_params());
  };
  const auto [trace_off, params_off] = run_with(false);
  const auto [trace_on, params_on] = run_with(true);
  expect_identical(trace_off, trace_on);
  expect_bit_identical(params_off, params_on);
}

// ---- thread-count invariance under a full fault plan -----------------------

class FaultThreadInvariance : public ::testing::Test {
 protected:
  void SetUp() override { prev_threads_ = util::global_pool().size() + 1; }
  void TearDown() override { util::reset_global_pool(prev_threads_); }

 private:
  std::size_t prev_threads_ = 1;
};

fl::ExperimentConfig faulted_cfg(std::uint64_t seed) {
  auto cfg = cfg_for(seed);
  cfg.fault = full_plan();
  return cfg;
}

TEST_F(FaultThreadInvariance, FedAvgScheduleAndResultsMatchAtFourThreads) {
  const auto run_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(faulted_cfg(42));
    fl::FedAvg algo(fed);
    fl::Trace trace = algo.run();
    return std::make_pair(std::move(trace), algo.global_params());
  };
  const auto [trace1, params1] = run_with(1);  // exact sequential path
  const auto [trace4, params4] = run_with(4);
  expect_identical(trace1, trace4);  // accuracy + comm bytes + clusters
  expect_bit_identical(params1, params4);
}

TEST_F(FaultThreadInvariance, FedClustResultsMatchAtFourThreads) {
  struct Result {
    fl::Trace trace;
    std::vector<std::size_t> assignment;
    std::vector<std::vector<float>> models;
  };
  const auto run_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(faulted_cfg(42));
    core::FedClust algo(fed);
    Result res;
    res.trace = algo.run();
    res.assignment = algo.assignment();
    for (std::size_t k = 0; k < algo.report().n_clusters; ++k) {
      res.models.push_back(algo.cluster_model(k));
    }
    return res;
  };
  const Result r1 = run_with(1);
  const Result r4 = run_with(4);
  expect_identical(r1.trace, r4.trace);
  EXPECT_EQ(r1.assignment, r4.assignment);
  ASSERT_EQ(r1.models.size(), r4.models.size());
  for (std::size_t k = 0; k < r1.models.size(); ++k) {
    expect_bit_identical(r1.models[k], r4.models[k]);
  }
}

TEST_F(FaultThreadInvariance, FaultScheduleAndCohortsIgnoreThePool) {
  const auto collect = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(faulted_cfg(7));
    std::vector<std::size_t> flat;
    for (std::size_t r = 0; r < 10; ++r) {
      for (const std::size_t c : fed.sample_round(r)) flat.push_back(c);
      for (std::size_t c = 0; c < fed.n_clients(); ++c) {
        const auto d = fed.faults().decide(c, r);
        flat.push_back(d.drop_pre_round);
        flat.push_back(d.crash_post_train);
        flat.push_back(d.straggler);
        flat.push_back(static_cast<std::size_t>(d.corrupt));
        flat.push_back(d.transient_failures);
      }
    }
    return flat;
  };
  EXPECT_EQ(collect(1), collect(4));
}

// ---- observability follow-through ------------------------------------------

TEST(FaultObservability, CountersAndHistogramSurfaceInSnapshot) {
  const MetricsOn metrics;
  auto cfg = cfg_for(33);
  cfg.fault = fl::FaultPlan::parse(
      "dropout=0.2,crash=0.2,straggle=0.4,delay=5,comm=0.3,corrupt=0.3,"
      "deadline=3");
  fl::Federation fed(cfg);
  fl::FedAvg algo(fed);
  algo.run();
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  // The injection mix is dense enough that each class fires in 3 rounds.
  EXPECT_GT(snap.counter_value("fault.injected.pre_round_dropout") +
                snap.counter_value("fault.injected.post_train_crash") +
                snap.counter_value("fault.injected.straggler") +
                snap.counter_value("fault.injected.corrupted_update"),
            0u);
  EXPECT_GT(snap.histogram_snapshot("fault.sim_round_time").count, 0u);
  // Disabled registry keeps the zero-perturbation contract: a second run
  // with metrics off must not fail (macro short-circuits).
  obs::MetricsRegistry::instance().set_enabled(false);
  fl::Federation fed2(cfg);
  fl::FedAvg algo2(fed2);
  EXPECT_NO_THROW(algo2.run());
}

}  // namespace
}  // namespace fedclust

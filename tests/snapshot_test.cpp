// Snapshot layer: golden file-format bytes (endianness stability),
// truncation/bit-flip rejection before any value reaches a model,
// save/load round trips for every algorithm's state, and bit-identical
// resume-at-round-k for FedAvg and FedClust at 1 and 4 worker threads.

#include "fl/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/registry.h"
#include "fl/federation.h"
#include "obs/json.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

fl::ExperimentConfig small_cfg(std::uint64_t seed) {
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

std::string state_bytes(const fl::FlAlgorithm& algo) {
  util::BinaryWriter w;
  algo.save_state(w);
  return std::string(w.view());
}

// ------------------------------------------------------------- format

fl::RunSnapshot golden_snapshot() {
  fl::RunSnapshot g;
  g.config_fingerprint = 0x1122334455667788ULL;
  g.seed = 42;
  g.next_round = 3;
  g.method = "FedAvg";
  g.dataset = "fmnist";
  g.comm = {400, 200, 600, 644, 2};
  fl::RoundRecord rec;
  rec.round = 2;
  rec.avg_local_test_acc = 0.5;
  rec.bytes_up = 400;
  rec.bytes_down = 200;
  rec.n_clusters = 1;
  g.records.push_back(rec);
  g.counters = {{"fl.rounds", 3}};
  util::RngState st;
  st.seed = 42;
  st.s[0] = 1;
  st.s[1] = 2;
  st.s[2] = 3;
  st.s[3] = 4;
  g.rng_probes = {{"root", st}};
  g.algo_state = {0xDE, 0xAD, 0xBE, 0xEF};
  return g;
}

// The exact on-disk image of golden_snapshot(), byte for byte. Every
// multi-byte field is little-endian by contract, so this array must match
// on any host — if this test fails on a big-endian machine, the format
// (not the test) is broken. Layout: magic, version, reserved, body length,
// body CRC32C, then the BinaryWriter body.
const std::vector<std::uint8_t> kGoldenBytes = {
    0x42, 0x5A, 0xDC, 0xFE, 0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x7A, 0x7C, 0x08, 0x46, 0x88, 0x77, 0x66, 0x55,
    0x44, 0x33, 0x22, 0x11, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x46, 0x65, 0x64, 0x41, 0x76, 0x67, 0x06, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x66, 0x6D, 0x6E, 0x69, 0x73, 0x74,
    0x90, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC8, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x58, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x84, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xE0, 0x3F, 0x90, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xC8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x66, 0x6C, 0x2E, 0x72,
    0x6F, 0x75, 0x6E, 0x64, 0x73, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x72, 0x6F, 0x6F, 0x74, 0x2A, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE,
    0xEF};

TEST(SnapshotFormat, GoldenBytesAreStable) {
  EXPECT_EQ(fl::serialize_snapshot(golden_snapshot()), kGoldenBytes);
}

TEST(SnapshotFormat, ParseRoundTripsGolden) {
  const fl::RunSnapshot g = golden_snapshot();
  const fl::RunSnapshot p = fl::parse_snapshot(kGoldenBytes);
  EXPECT_EQ(p.config_fingerprint, g.config_fingerprint);
  EXPECT_EQ(p.seed, g.seed);
  EXPECT_EQ(p.next_round, g.next_round);
  EXPECT_EQ(p.method, g.method);
  EXPECT_EQ(p.dataset, g.dataset);
  EXPECT_EQ(p.comm, g.comm);
  ASSERT_EQ(p.records.size(), 1u);
  EXPECT_EQ(p.records[0].round, 2u);
  EXPECT_EQ(p.records[0].avg_local_test_acc, 0.5);
  EXPECT_EQ(p.records[0].bytes_up, 400u);
  EXPECT_EQ(p.records[0].bytes_down, 200u);
  EXPECT_EQ(p.records[0].n_clusters, 1u);
  EXPECT_EQ(p.counters, g.counters);
  EXPECT_EQ(p.rng_probes, g.rng_probes);
  EXPECT_EQ(p.algo_state, g.algo_state);
}

TEST(SnapshotFormat, EveryTruncationIsRejected) {
  for (std::size_t len = 0; len < kGoldenBytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(kGoldenBytes.begin(),
                                           kGoldenBytes.begin() + len);
    EXPECT_THROW(fl::parse_snapshot(prefix), fl::SnapshotError)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(SnapshotFormat, EveryBitFlipIsRejected) {
  // Single-bit damage anywhere — header or body — must be detected before
  // any value can reach a model: magic/version/reserved/length by their
  // explicit checks, everything else by the body CRC.
  for (std::size_t i = 0; i < kGoldenBytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = kGoldenBytes;
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(fl::parse_snapshot(bytes), fl::SnapshotError)
          << "flip of byte " << i << " bit " << bit << " parsed";
    }
  }
}

TEST(SnapshotFormat, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> bytes = kGoldenBytes;
  bytes.push_back(0x00);
  EXPECT_THROW(fl::parse_snapshot(bytes), fl::SnapshotError);
}

// 2^62: a length or count no body can hold. Code that allocates before it
// checks fails fast on it with std::bad_alloc or std::length_error instead
// of the SnapshotError the parser promises.
constexpr std::uint64_t kHugeLength = std::uint64_t{1} << 62;

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(SnapshotFormat, OversizedLengthsAreRejectedBeforeAllocating) {
  // Offsets into kGoldenBytes' body of each length or count it carries,
  // with the value the golden snapshot stores there.
  const struct {
    const char* field;
    std::size_t offset;
    std::uint64_t golden;
  } kFields[] = {
      {"method length", 24, 6},       {"dataset length", 38, 6},
      {"record count", 92, 1},        {"counter count", 140, 1},
      {"counter name length", 148, 9}, {"probe count", 173, 1},
      {"probe name length", 181, 4},  {"algorithm state length", 245, 4},
  };
  const std::vector<std::uint8_t> body(
      kGoldenBytes.begin() + util::kSealHeaderBytes, kGoldenBytes.end());
  for (const auto& f : kFields) {
    SCOPED_TRACE(f.field);
    ASSERT_EQ(util::get_u64_le(body.data() + f.offset), f.golden);
    std::vector<std::uint8_t> huge = body;
    store_u64(huge.data() + f.offset, kHugeLength);
    // Resealed, so the CRC holds and only the parser can refuse it.
    const std::string file = util::seal(
        fl::kSnapshotMagic, fl::kSnapshotVersion,
        std::string_view(reinterpret_cast<const char*>(huge.data()),
                         huge.size()));
    EXPECT_THROW(fl::parse_snapshot({file.begin(), file.end()}),
                 fl::SnapshotError);
  }
}

TEST(SnapshotFiles, WriteThenLoadRoundTrips) {
  const std::string path = ::testing::TempDir() + "snap_roundtrip.fcsnap";
  fl::write_snapshot(golden_snapshot(), path);
  const fl::RunSnapshot p = fl::load_snapshot(path);
  EXPECT_EQ(fl::serialize_snapshot(p), kGoldenBytes);
  // Atomic write: no temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(SnapshotFiles, MissingAndCorruptFilesThrow) {
  EXPECT_THROW(fl::load_snapshot(::testing::TempDir() + "no_such.fcsnap"),
               fl::SnapshotError);
  const std::string path = ::testing::TempDir() + "snap_corrupt.fcsnap";
  std::vector<std::uint8_t> bytes = kGoldenBytes;
  bytes[100] ^= 0x10;  // body damage
  {
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(fl::load_snapshot(path), fl::SnapshotError);
  std::filesystem::remove(path);
}

TEST(SnapshotFormat, FilenameIsZeroPadded) {
  EXPECT_EQ(fl::snapshot_filename(3), "snapshot-000003.fcsnap");
  EXPECT_EQ(fl::snapshot_filename(123456), "snapshot-123456.fcsnap");
}

// ------------------------------------------------------- fingerprint

TEST(SnapshotConfig, FingerprintSeparatesConfigs) {
  const fl::ExperimentConfig base = small_cfg(5);
  fl::ExperimentConfig other = base;
  EXPECT_EQ(fl::config_fingerprint(base), fl::config_fingerprint(other));
  other.seed = 6;
  EXPECT_NE(fl::config_fingerprint(base), fl::config_fingerprint(other));
  other = base;
  other.rounds += 1;
  EXPECT_NE(fl::config_fingerprint(base), fl::config_fingerprint(other));
  other = base;
  other.codec = fl::wire::CodecId::kF16;
  EXPECT_NE(fl::config_fingerprint(base), fl::config_fingerprint(other));
  other = base;
  other.fault = fl::FaultPlan::parse("crash=0.1");
  EXPECT_NE(fl::config_fingerprint(base), fl::config_fingerprint(other));
  other = base;
  other.fast_math_kernels = true;
  EXPECT_NE(fl::config_fingerprint(base), fl::config_fingerprint(other));
}

// Every field of every list set away from its default.
fl::ExperimentConfig all_fields_cfg() {
  fl::ExperimentConfig c;
  c.data_spec = {"svhn", 1, 12, 7, 30, 5, 3, 0.3f, 1.5f, 0.4f, 0.7f};
  c.fed = {33, 17, 9, 2.5, "dirichlet", 0.3, 0.5, 3};
  c.model = {"resnet9", 1, 12, 7, 6};
  c.local = {3, 8, 0.05f, 0.9f, 1e-4f, 5.0f, 0.01f};
  c.algo = {0.02f, 2,  0.05f, 0.04f,      2,        0.3f, 0.7f, 3, 4, 12.5f,
            2,     -1.0f, 5,  "complete", "cosine", 3,    0.04f};
  c.rounds = 7;
  c.sample_fraction = 0.25;
  c.eval_every = 2;
  c.codec = fl::wire::CodecId::kF16;
  c.seed = 42;
  c.virtual_clients = true;
  c.client_cache = 64;
  c.eval_clients = 11;
  c.landmarks = 5;
  c.fault = fl::FaultPlan::parse(
      "dropout=0.1,crash=0.05,straggle=0.2,delay=4,comm=0.1,corrupt=0.05,"
      "corrupt_mode=nan,explode=1000,deadline=2.5,retries=3,"
      "backoff_base=0.5,backoff_mult=1.5,over_select=0.2,max_norm=500,"
      "only=0:3:7");
  return c;
}

// Values computed by a build that wrote every field by hand, before
// fast_math_kernels existed: the list must reproduce those bytes exactly.
TEST(SnapshotConfig, AllFieldsFingerprintMatchesGolden) {
  fl::ExperimentConfig c = all_fields_cfg();
  EXPECT_EQ(fl::config_fingerprint(c), 0x6a703d6ae1933755ULL);
  c.virtual_clients = false;
  c.client_cache = 0;
  EXPECT_EQ(fl::config_fingerprint(c), 0x6a703d6ae1933755ULL);
  c.landmarks = 0;
  EXPECT_EQ(fl::config_fingerprint(c), 0x7b057f3d81960eb0ULL);
}

// Applies `fn(info, leaf)` to every leaf field of a list, in list order.
template <class F>
struct LeafWalker {
  F& fn;
  template <class T>
  void operator()(const util::FieldInfo& f, T& v) const {
    if constexpr (util::HasFieldList<T>) {
      for_each_field(v, *this);
    } else {
      fn(f, v);
    }
  }
};

template <class F>
void for_each_leaf(fl::ExperimentConfig& cfg, F fn) {
  fl::for_each_field(cfg, LeafWalker<F>{fn});
}

// A value of the same type that differs from `v`.
template <class T>
T perturbed(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_same_v<T, fl::wire::CodecId>) {
    return v == fl::wire::CodecId::kQInt8 ? fl::wire::CodecId::kRawF32
                                          : fl::wire::CodecId::kQInt8;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v + "x";
  } else if constexpr (std::is_same_v<T, std::vector<std::size_t>>) {
    T out = v;
    out.push_back(99);
    return out;
  } else {
    return v + T{1};
  }
}

TEST(SnapshotConfig, EveryListedFieldMovesTheFingerprint) {
  // Base: every field at a non-default value except the two kIfSet fields,
  // which sit at their defaults.
  fl::ExperimentConfig base = all_fields_cfg();
  base.landmarks = 0;
  const std::uint64_t base_fp = fl::config_fingerprint(base);
  std::size_t n_leaves = 0;
  for_each_leaf(base, [&](const util::FieldInfo& f, auto& field) {
    if constexpr (!std::is_const_v<std::remove_reference_t<decltype(field)>>) {
      const std::size_t leaf = n_leaves++;
      fl::ExperimentConfig other = base;
      std::size_t i = 0;
      for_each_leaf(other, [&](const util::FieldInfo&, auto& g) {
        if constexpr (!std::is_const_v<std::remove_reference_t<decltype(g)>>) {
          if (i++ == leaf) g = perturbed(g);
        }
      });
      // Only the two store dials may leave the fingerprint unchanged: like
      // FEDCLUST_THREADS, they must not change results.
      const std::string name = f.name;
      const std::uint64_t fp = fl::config_fingerprint(other);
      if (name == "virtual_clients" || name == "client_cache") {
        EXPECT_EQ(fp, base_fp) << name << " must not fingerprint";
      } else {
        EXPECT_NE(fp, base_fp) << name << " does not fingerprint";
      }
    }
  });
  EXPECT_EQ(n_leaves, 11u + 8u + 5u + 7u + 17u + 16u + 10u);

  // kIfSet fields at their defaults hash as if they were not listed at all:
  // the golden values predate fast_math_kernels, and landmarks = 0 is the
  // pre-landmark encoding.
  EXPECT_EQ(base_fp, 0x7b057f3d81960eb0ULL);
  base.landmarks = 5;
  EXPECT_EQ(fl::config_fingerprint(base), 0x6a703d6ae1933755ULL);
}

// Golden fingerprints: snapshots written by earlier builds must stay
// resumable, so removing or reordering a fingerprinted field must not move
// these values.
TEST(SnapshotConfig, FingerprintsMatchGoldenValues) {
  EXPECT_EQ(fl::config_fingerprint(fl::ExperimentConfig{}),
            0xced9e3ad97bb225fULL);

  fl::ExperimentConfig sketch;
  sketch.landmarks = 256;
  sketch.eval_clients = 200;
  sketch.fed.label_set_pool = 4;
  EXPECT_EQ(fl::config_fingerprint(sketch), 0x612a1c37b9fa39c0ULL);

  fl::ExperimentConfig faulted;
  faulted.fault = fl::FaultPlan::parse("crash=0.05,comm=0.1,retries=2");
  faulted.codec = fl::wire::CodecId::kQInt8;
  EXPECT_EQ(fl::config_fingerprint(faulted), 0x1990ca82a02b7bc8ULL);

  fl::ExperimentConfig dropout;
  dropout.fault.pre_round_dropout = 0.3;
  EXPECT_EQ(fl::config_fingerprint(dropout), 0xbfe184d19630b81bULL);
}

TEST(SnapshotConfig, RngProbesArePureInSeed) {
  const auto a = fl::rng_probes_for(small_cfg(5));
  EXPECT_EQ(a, fl::rng_probes_for(small_cfg(5)));
  EXPECT_NE(a, fl::rng_probes_for(small_cfg(6)));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].name, "root");
}

// The probe uses the salt train_rng splits at, so moving that salt moves
// the probe and resume refuses snapshots written before the move.
TEST(SnapshotConfig, TrainProbeIsTheFederationTrainStream) {
  const fl::ExperimentConfig cfg = small_cfg(5);
  const std::vector<fl::RngProbe> probes = fl::rng_probes_for(cfg);
  const auto it = std::find_if(probes.begin(), probes.end(), [](const auto& p) {
    return p.name == "train.c0.r0";
  });
  ASSERT_NE(it, probes.end());
  EXPECT_EQ(it->state, fl::Federation(cfg).train_rng(0, 0).state());
}

TEST(SnapshotManifest, CarriesProvenanceAndFullConfig) {
  const std::string json = fl::manifest_json(small_cfg(5), "FedClust");
  for (const char* key :
       {"\"manifest_version\"", "\"config_fingerprint\"", "\"seed\"",
        "\"codec\"", "\"fault_spec\"", "\"git_describe\"", "\"build_flags\"",
        "\"fedclust_threads\"", "\"federation\"", "\"dirichlet_alpha\"",
        "\"fedclust_lambda\"", "\"sample_fraction\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Strings are escaped: a quote in a method name must not break the JSON.
  const std::string weird = fl::manifest_json(small_cfg(5), "we\"ird");
  EXPECT_NE(weird.find("we\\\"ird"), std::string::npos);
}

TEST(SnapshotManifest, RecordsTheFaultPlan) {
  fl::ExperimentConfig cfg = small_cfg(5);
  cfg.fault = fl::FaultPlan::parse("corrupt=0.1,corrupt_mode=explode,"
                                   "explode=10,only=4:2");
  const obs::json::Value m = obs::json::parse(fl::manifest_json(cfg, "FedAvg"));
  const obs::json::Value* config = m.find("config");
  ASSERT_NE(config, nullptr);
  const obs::json::Value* fault = config->find("fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->number_or("explode_factor", 0.0), 10.0);
  EXPECT_EQ(fault->string_or("corrupt_mode", ""), "explode");
  const obs::json::Value* only = fault->find("only_clients");
  ASSERT_NE(only, nullptr);
  ASSERT_EQ(only->array.size(), 2u);
  EXPECT_EQ(only->array[0].number, 2.0);
  EXPECT_EQ(config->find("data")->string_or("name", ""), "svhn");
  EXPECT_EQ(m.string_or("fault_spec", ""),
            "corrupt=0.1 corrupt_mode=explode explode=10 only=2:4");
}

// --------------------------------------------------- algorithm state

TEST(AlgorithmState, SaveLoadRoundTripsForEveryMethod) {
  std::vector<std::string> methods = core::all_methods();
  for (const std::string& m : core::extra_methods()) methods.push_back(m);
  fl::ExperimentConfig cfg = small_cfg(5);
  cfg.rounds = 2;
  for (const std::string& method : methods) {
    SCOPED_TRACE(method);
    fl::Federation fed(cfg);
    const auto algo = core::make_algorithm(method, fed);
    algo->run();
    const std::string saved = state_bytes(*algo);
    EXPECT_FALSE(saved.empty());

    fl::Federation fresh_fed(cfg);
    const auto fresh = core::make_algorithm(method, fresh_fed);
    util::BinaryReader rd(saved);
    fresh->load_state(rd);
    // load must consume exactly what save wrote and reproduce it.
    EXPECT_TRUE(rd.done());
    EXPECT_EQ(state_bytes(*fresh), saved);
  }
}

TEST(AlgorithmState, ResumeRejectsMismatches) {
  fl::ExperimentConfig cfg = small_cfg(5);
  cfg.rounds = 2;
  fl::Federation fed(cfg);
  const auto algo = core::make_algorithm("FedAvg", fed);
  algo->run();
  const fl::RunSnapshot snap = algo->capture_snapshot(2, {});

  // Wrong method.
  fl::Federation fed_b(cfg);
  const auto other = core::make_algorithm("FedNova", fed_b);
  EXPECT_THROW(other->resume_from(snap), fl::SnapshotError);

  // Wrong config (different seed => different fingerprint).
  fl::Federation fed_c(small_cfg(6));
  const auto mism = core::make_algorithm("FedAvg", fed_c);
  EXPECT_THROW(mism->resume_from(snap), fl::SnapshotError);

  // Fast-math kernels change results, so they are a config mismatch too.
  fl::ExperimentConfig fast = cfg;
  fast.fast_math_kernels = true;
  fl::Federation fed_f(fast);
  const auto fast_algo = core::make_algorithm("FedAvg", fed_f);
  EXPECT_THROW(fast_algo->resume_from(snap), fl::SnapshotError);

  // next_round beyond the configured horizon.
  fl::RunSnapshot beyond = snap;
  beyond.next_round = cfg.rounds + 1;
  fl::Federation fed_d(cfg);
  const auto late = core::make_algorithm("FedAvg", fed_d);
  EXPECT_THROW(late->resume_from(beyond), fl::SnapshotError);

  // Drifted RNG probe state.
  fl::RunSnapshot drift = snap;
  ASSERT_FALSE(drift.rng_probes.empty());
  drift.rng_probes[0].state.s[0] ^= 1;
  fl::Federation fed_e(cfg);
  const auto drifted = core::make_algorithm("FedAvg", fed_e);
  EXPECT_THROW(drifted->resume_from(drift), fl::SnapshotError);
}

// A CRC-valid snapshot whose algorithm state declares an f32 vector of 2^62
// floats, or carries one byte load_state leaves unread: resume refuses both
// with SnapshotError before it restores the comm ledger.
TEST(AlgorithmState, ResumeRefusesOversizedAndLeftoverState) {
  fl::ExperimentConfig cfg = small_cfg(5);
  cfg.rounds = 2;
  fl::Federation fed(cfg);
  const auto algo = core::make_algorithm("FedAvg", fed);
  const fl::Trace trace = algo->run();
  const fl::RunSnapshot snap = algo->capture_snapshot(2, trace.records);

  fl::RunSnapshot huge = snap;  // FedAvg's state is one f32 vector
  ASSERT_GE(huge.algo_state.size(), 8u);
  store_u64(huge.algo_state.data(), kHugeLength);
  fl::RunSnapshot leftover = snap;
  leftover.algo_state.push_back(0);

  for (const fl::RunSnapshot* bad : {&huge, &leftover}) {
    fl::Federation fresh_fed(cfg);
    const auto fresh = core::make_algorithm("FedAvg", fresh_fed);
    const fl::CommLedger before = fresh_fed.comm().ledger();
    fresh->resume_from(fl::parse_snapshot(fl::serialize_snapshot(*bad)));
    EXPECT_THROW(fresh->run(), fl::SnapshotError);
    EXPECT_EQ(fresh_fed.comm().ledger(), before);
  }
}

// PACFL's state carries a count of subspace bases; a CRC-valid state that
// declares 2^62 of them is refused with SnapshotError, not a failed reserve.
TEST(AlgorithmState, ResumeRefusesOversizedPacflBasisCount) {
  fl::ExperimentConfig cfg = small_cfg(5);
  cfg.rounds = 2;
  fl::Federation fed(cfg);
  const auto algo = core::make_algorithm("PACFL", fed);
  const fl::Trace trace = algo->run();
  const fl::RunSnapshot snap = algo->capture_snapshot(2, trace.records);

  // The basis count follows the assignment and the cluster models.
  util::BinaryReader rd(snap.algo_state);
  (void)fl::read_index_vec(rd);
  (void)fl::read_nested_f32(rd);
  const std::size_t offset = snap.algo_state.size() - rd.remaining();
  ASSERT_GT(util::get_u64_le(snap.algo_state.data() + offset), 0u);
  fl::RunSnapshot huge = snap;
  store_u64(huge.algo_state.data() + offset, kHugeLength);

  fl::Federation fresh_fed(cfg);
  const auto fresh = core::make_algorithm("PACFL", fresh_fed);
  fresh->resume_from(fl::parse_snapshot(fl::serialize_snapshot(huge)));
  EXPECT_THROW(fresh->run(), fl::SnapshotError);
}

// ------------------------------------------------- resume bit-identity

void expect_identical(const fl::Trace& a, const fl::Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].round, b.records[i].round);
    EXPECT_EQ(a.records[i].avg_local_test_acc,
              b.records[i].avg_local_test_acc)
        << "record " << i;
    EXPECT_EQ(a.records[i].bytes_up, b.records[i].bytes_up);
    EXPECT_EQ(a.records[i].bytes_down, b.records[i].bytes_down);
    EXPECT_EQ(a.records[i].n_clusters, b.records[i].n_clusters);
  }
}

// Restores the previous global pool size around each test, as in
// parallel_round_test.
class SnapshotResumeTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    prev_threads_ = util::global_pool().size() + 1;
    util::reset_global_pool(GetParam());
  }
  void TearDown() override { util::reset_global_pool(prev_threads_); }

  // Uninterrupted run vs halt-at-boundary-2 + resume: trace, final state
  // bytes, and comm ledgers must match bit for bit.
  void check_resume(const std::string& method) {
    fl::ExperimentConfig cfg = small_cfg(11);
    cfg.rounds = 4;

    fl::Federation fed_full(cfg);
    const auto full = core::make_algorithm(method, fed_full);
    const fl::Trace full_trace = full->run();

    const std::string dir = ::testing::TempDir() + "snap_resume_" + method +
                            "_t" + std::to_string(GetParam());
    std::filesystem::create_directories(dir);
    fl::Federation fed_halt(cfg);
    const auto halted = core::make_algorithm(method, fed_halt);
    fl::CheckpointPolicy policy;
    policy.dir = dir;
    policy.halt_after = 2;
    halted->set_checkpoint_policy(policy);
    const fl::Trace partial = halted->run();
    EXPECT_LT(partial.records.size(), full_trace.records.size());

    fl::Federation fed_res(cfg);
    const auto resumed = core::make_algorithm(method, fed_res);
    resumed->resume_from(
        fl::load_snapshot(dir + "/" + fl::snapshot_filename(2)));
    const fl::Trace resumed_trace = resumed->run();

    expect_identical(full_trace, resumed_trace);
    EXPECT_EQ(state_bytes(*resumed), state_bytes(*full));
    EXPECT_EQ(fed_res.comm().ledger(), fed_full.comm().ledger());
    std::filesystem::remove_all(dir);
  }

 private:
  std::size_t prev_threads_ = 1;
};

TEST_P(SnapshotResumeTest, FedAvgResumeAtRoundKIsBitIdentical) {
  check_resume("FedAvg");
}

TEST_P(SnapshotResumeTest, FedClustResumeAtRoundKIsBitIdentical) {
  check_resume("FedClust");
}

INSTANTIATE_TEST_SUITE_P(Threads, SnapshotResumeTest,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// --------------------------------------------- sparse per-client state

// A large virtual population where each round touches a handful of
// clients: checkpoints must scale with participation, not population
// (docs/INVARIANTS.md §Scale), and halt/resume must stay bit-identical.
fl::ExperimentConfig sparse_cfg() {
  fl::ExperimentConfig cfg = small_cfg(17);
  cfg.fed.n_clients = 10000;
  cfg.sample_fraction = 0.001;  // 10 of 10,000 per round
  cfg.rounds = 2;
  cfg.virtual_clients = true;
  cfg.client_cache = 16;
  cfg.eval_clients = 6;  // keep eval from materializing the population
  return cfg;
}

TEST(SparseSnapshot, HaltResumeTouchingTenOfTenThousandIsBitIdentical) {
  const fl::ExperimentConfig cfg = sparse_cfg();

  fl::Federation fed_full(cfg);
  const auto full = core::make_algorithm("Local", fed_full);
  const fl::Trace full_trace = full->run();

  const std::string dir = ::testing::TempDir() + "snap_sparse";
  std::filesystem::create_directories(dir);
  fl::Federation fed_halt(cfg);
  const auto halted = core::make_algorithm("Local", fed_halt);
  fl::CheckpointPolicy policy;
  policy.dir = dir;
  policy.halt_after = 1;
  halted->set_checkpoint_policy(policy);
  halted->run();

  fl::Federation fed_res(cfg);
  const auto resumed = core::make_algorithm("Local", fed_res);
  resumed->resume_from(
      fl::load_snapshot(dir + "/" + fl::snapshot_filename(1)));
  const fl::Trace resumed_trace = resumed->run();

  expect_identical(full_trace, resumed_trace);
  EXPECT_EQ(state_bytes(*resumed), state_bytes(*full));

  // Proportionality: the snapshot holds only the touched slots. A dense
  // dump would be ~n_clients * dim floats; the sparse one is bounded by
  // the cumulative cohort (10/round) plus fixed headers.
  const std::size_t dim = fed_full.init_params().size();
  const std::size_t snap_size = static_cast<std::size_t>(
      std::filesystem::file_size(dir + "/" + fl::snapshot_filename(1)));
  const std::size_t dense_estimate = cfg.fed.n_clients * dim * 4;
  EXPECT_LT(snap_size * 50, dense_estimate);
  EXPECT_LT(snap_size, 2 * 16 + 20 * (16 + dim * 4) + 4096);
  std::filesystem::remove_all(dir);
}

TEST(SparseSnapshot, CorruptSparseRecordsAreRejected) {
  const fl::ExperimentConfig cfg = sparse_cfg();
  fl::Federation fed(cfg);
  const auto algo = core::make_algorithm("Local", fed);
  algo->run();
  const std::string good = state_bytes(*algo);
  ASSERT_GE(good.size(), 24u);  // u64 n, u64 count, first u64 id, ...

  const auto load_bytes = [&](const std::string& bytes) {
    util::BinaryReader r(bytes);
    fl::Federation fresh_fed(cfg);
    core::make_algorithm("Local", fresh_fed)->load_state(r);
  };
  load_bytes(good);  // sanity: the untampered bytes load

  // Local's state is exactly the sparse map: u64 n_clients, u64 count,
  // then (u64 id, f32_vec) ascending. Corrupt each structural field.
  std::string wrong_pop = good;
  wrong_pop[0] ^= 1;  // population != federation's n_clients
  EXPECT_THROW(load_bytes(wrong_pop), std::runtime_error);

  std::string huge_count = good;
  huge_count[8 + 6] = '\x7f';  // touched count >> population
  EXPECT_THROW(load_bytes(huge_count), std::runtime_error);

  std::string bad_id = good;
  bad_id[16 + 6] = '\x7f';  // first record id far out of range
  EXPECT_THROW(load_bytes(bad_id), std::runtime_error);
}

}  // namespace
}  // namespace fedclust

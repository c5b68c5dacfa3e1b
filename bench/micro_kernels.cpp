// google-benchmark micro-kernels: the computational building blocks behind
// the simulator, plus the paper's §5.2 "computation overhead" claim — the
// one-shot hierarchical clustering the server performs once is negligible
// next to a single round of local training.

#include <benchmark/benchmark.h>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "data/partition.h"
#include "fl/client.h"
#include "fl/fedavg.h"
#include "fl/federation.h"
#include "fl/landmark.h"
#include "linalg/principal_angles.h"
#include "linalg/svd.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "fl/codec.h"
#include "fl/stream_agg.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/packed_rows.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace {

using namespace fedclust;

tensor::Tensor random_tensor(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t(std::move(shape));
  for (auto& x : t.vec()) x = rng.normalf(0, 1);
  return t;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_tensor({n, n}, 1);
  const auto b = random_tensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Transposed-operand variants: conv backward issues NT and TN GEMMs every
// step, so the kernels' transposed packs (a transposed A read while A is
// packed, a transposed B packed one panel at a time) are as hot as the NN
// path.
void BM_GemmTransposed(benchmark::State& state, tensor::Trans ta,
                       tensor::Trans tb) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_tensor({n, n}, 1);
  const auto b = random_tensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, ta, b, tb));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
void BM_GemmNT(benchmark::State& state) {
  BM_GemmTransposed(state, tensor::Trans::kNo, tensor::Trans::kYes);
}
void BM_GemmTN(benchmark::State& state) {
  BM_GemmTransposed(state, tensor::Trans::kYes, tensor::Trans::kNo);
}
BENCHMARK(BM_GemmNT)->Arg(128)->Arg(256);
BENCHMARK(BM_GemmTN)->Arg(128)->Arg(256);

// The per-image GEMMs that LeNet-5 and ResNet-9 (width 8) run on 16x16 inputs
// at batch 10, with their Trans flags: conv dW transposes B, conv dcol
// transposes A, Linear forward transposes B and Linear dW transposes A.
// Small m and ragged n are the norm here, unlike the square BM_Gemm sizes.
// Rows keep their indices: new shapes are appended.
struct ModelGemm {
  const char* name;
  tensor::Trans ta, tb;
  std::size_t m, n, k;
};
constexpr tensor::Trans kN = tensor::Trans::kNo;
constexpr tensor::Trans kT = tensor::Trans::kYes;
const ModelGemm kModelGemms[] = {
    {"lenet.conv1.fwd", kN, kN, 6, 256, 75},
    {"lenet.conv1.dW", kN, kT, 6, 75, 256},
    {"lenet.conv2.fwd", kN, kN, 16, 16, 150},
    {"lenet.conv2.dcol", kT, kN, 150, 16, 16},
    {"lenet.fc2.fwd", kN, kT, 10, 84, 120},
    {"resnet9.res2.fwd", kN, kN, 32, 16, 288},
    {"resnet9.res2.dcol", kT, kN, 288, 16, 32},
    {"resnet9.res1.dW", kN, kT, 16, 144, 64},
    {"resnet9.conv2.fwd", kN, kN, 16, 256, 72},
    {"lenet.conv2.dW", kN, kT, 16, 150, 16},
    {"lenet.fc1.dW", kT, kN, 120, 64, 10},
    {"lenet.fc2.fwd.b20", kN, kT, 20, 84, 120},  // the eval batch
    {"linalg.gram", kT, kN, 64, 64, 768},  // PACFL's Gram: three kc slabs
};

void BM_GemmModelShapes(benchmark::State& state) {
  const ModelGemm& g = kModelGemms[state.range(0)];
  // Stored as the layer stores them: op(A) is (m, k), op(B) is (k, n).
  const auto a = random_tensor(g.ta == kN ? tensor::Shape{g.m, g.k}
                                          : tensor::Shape{g.k, g.m}, 1);
  const auto b = random_tensor(g.tb == kN ? tensor::Shape{g.k, g.n}
                                          : tensor::Shape{g.n, g.k}, 2);
  tensor::Tensor c({g.m, g.n});
  for (auto _ : state) {
    tensor::gemm(g.ta, g.tb, g.m, g.n, g.k, a.data(), a.dim(1), b.data(),
                 b.dim(1), tensor::Accumulate::kNo, c.data(), g.n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(g.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * g.m * g.n * g.k));
}
BENCHMARK(BM_GemmModelShapes)
    ->DenseRange(0, std::size(kModelGemms) - 1);

// The per-image im2col and col2im calls of the convs LeNet-5 and ResNet-9
// (width 8) run on 16 x 16 x 3 inputs. One row per input shape: ResNet-9's
// res1 body convs and conv3 all read 16 x 8 x 8, and its res2 body convs
// both read 32 x 4 x 4. A model's first conv computes no input gradient,
// so it runs no col2im.
struct ModelConv {
  const char* name;
  std::size_t c, hw, k, pad;
  bool col2im;
};
const ModelConv kModelConvs[] = {
    {"lenet.conv1", 3, 16, 5, 2, false},
    {"lenet.conv2", 6, 8, 5, 0, true},
    {"resnet9.conv1", 3, 16, 3, 1, false},
    {"resnet9.conv2", 8, 16, 3, 1, true},
    {"resnet9.res1+conv3", 16, 8, 3, 1, true},
    {"resnet9.res2", 32, 4, 3, 1, true},
};

std::size_t conv_col_size(const ModelConv& cv) {
  const std::size_t o = tensor::conv_out_dim(cv.hw, cv.k, 1, cv.pad);
  return cv.c * cv.k * cv.k * o * o;
}

void BM_Im2ColModelShapes(benchmark::State& state) {
  const ModelConv& cv = kModelConvs[state.range(0)];
  const auto img = random_tensor({cv.c, cv.hw, cv.hw}, 3);
  std::vector<float> col(conv_col_size(cv));
  for (auto _ : state) {
    tensor::im2col(img.data(), cv.c, cv.hw, cv.hw, cv.k, cv.k, 1, cv.pad,
                   col.data());
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(cv.name);
}
BENCHMARK(BM_Im2ColModelShapes)
    ->DenseRange(0, std::size(kModelConvs) - 1);

void BM_Col2ImModelShapes(benchmark::State& state) {
  const ModelConv& cv = kModelConvs[state.range(0)];
  const auto col = random_tensor({conv_col_size(cv)}, 3);
  std::vector<float> img(cv.c * cv.hw * cv.hw);
  for (auto _ : state) {
    // Conv2d::backward hands col2im a zeroed image; a running sum here
    // adds the same work.
    tensor::col2im(col.data(), cv.c, cv.hw, cv.hw, cv.k, cv.k, 1, cv.pad,
                   img.data());
    benchmark::DoNotOptimize(img.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(cv.name);
}
BENCHMARK(BM_Col2ImModelShapes)->Apply([](benchmark::internal::Benchmark* b) {
  for (std::size_t i = 0; i < std::size(kModelConvs); ++i) {
    if (kModelConvs[i].col2im) b->Arg(static_cast<std::int64_t>(i));
  }
});

// One image of a conv forward as Conv2d runs it in both modes: im2col into
// a reused column buffer, then one GEMM (bias excluded).
void BM_ConvForward(benchmark::State& state) {
  const std::size_t c = 6, hw = 16, oc = 16, k = 5;
  const auto img = random_tensor({c, hw, hw}, 3);
  const auto wts = random_tensor({oc, c * k * k}, 4);
  std::vector<float> col(c * k * k * hw * hw);
  std::vector<float> out(oc * hw * hw);
  for (auto _ : state) {
    tensor::im2col(img.data(), c, hw, hw, k, k, 1, 2, col.data());
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, oc, hw * hw,
                 c * k * k, wts.data(), c * k * k, col.data(), hw * hw,
                 tensor::Accumulate::kNo, out.data(), hw * hw);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConvForward);

// Wire codec encode+decode round trip per payload float.
void BM_CodecRoundTrip(benchmark::State& state, fl::wire::CodecId codec) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto v = random_tensor({n}, 5);
  for (auto _ : state) {
    const auto bytes = fl::wire::encode_payload(codec, v.data(), n);
    benchmark::DoNotOptimize(
        fl::wire::decode_payload(codec, bytes.data(), bytes.size(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
void BM_CodecF16(benchmark::State& state) {
  BM_CodecRoundTrip(state, fl::wire::CodecId::kF16);
}
void BM_CodecQInt8(benchmark::State& state) {
  BM_CodecRoundTrip(state, fl::wire::CodecId::kQInt8);
}
BENCHMARK(BM_CodecF16)->Arg(1 << 16);
BENCHMARK(BM_CodecQInt8)->Arg(1 << 16);

void BM_Crc32c(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32c(data.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(1 << 16);

// int8-domain cohort aggregation (the --fast-math-kernels qint8 path)
// against expanding every client to floats and averaging.
void BM_Qint8Aggregate(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const std::size_t clients = 8;
  std::vector<std::vector<std::uint8_t>> enc;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto v = random_tensor({n}, 7 + c);
    enc.push_back(
        fl::wire::encode_payload(fl::wire::CodecId::kQInt8, v.data(), n));
  }
  std::vector<std::pair<const std::vector<std::uint8_t>*, double>> entries;
  for (const auto& e : enc) {
    entries.emplace_back(&e, 1.0 / static_cast<double>(clients));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::wire::qint8_weighted_average(entries, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * clients));
}
BENCHMARK(BM_Qint8Aggregate);

void BM_FloatAggregate(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const std::size_t clients = 8;
  std::vector<std::vector<std::uint8_t>> enc;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto v = random_tensor({n}, 7 + c);
    enc.push_back(
        fl::wire::encode_payload(fl::wire::CodecId::kQInt8, v.data(), n));
  }
  for (auto _ : state) {
    // What aggregation costs without the int8 path: decode every client to
    // floats, then the double-accumulating weighted average.
    std::vector<std::vector<float>> dec;
    for (const auto& e : enc) {
      dec.push_back(fl::wire::decode_payload(fl::wire::CodecId::kQInt8,
                                             e.data(), e.size(), n));
    }
    std::vector<std::pair<const std::vector<float>*, double>> entries;
    for (const auto& d : dec) entries.emplace_back(&d, 1.0);
    benchmark::DoNotOptimize(fl::weighted_average(entries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * clients));
}
BENCHMARK(BM_FloatAggregate);

// Streaming tree reduction (the per-round aggregation path) against the
// materialized baseline: collect every update first, then one
// weighted_average pass. Args = cohort size, model dim; the streaming
// path's win is memory (each update is folded into double accumulators on
// delivery), not FLOPs, so throughput should track the baseline closely.
// 500 x 21686 is million_fedavg's cohort at LeNet-5 size, where every
// accumulator is larger than glibc's default mmap threshold.
void BM_StreamingAggregate(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  std::vector<std::vector<float>> updates;
  for (std::size_t c = 0; c < clients; ++c) {
    updates.push_back(random_tensor({n}, 7 + c).vec());
  }
  std::vector<float> out(n);
  for (auto _ : state) {
    fl::StreamingAggregator agg(clients, n, /*int8_mode=*/false);
    for (std::size_t c = 0; c < clients; ++c) {
      agg.submit(c, updates[c].data(), n, 1.0);
    }
    agg.finish(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * clients));
}
BENCHMARK(BM_StreamingAggregate)
    ->Args({8, 1 << 16})
    ->Args({64, 1 << 16})
    ->Args({500, 21686});

// k of n clients without replacement: (10, 2) is a skew client's label
// set, drawn once per client the partition plan replays; (1000000, 500)
// is million_fedavg's cohort.
void BM_SampleWithoutReplacement(benchmark::State& state, std::size_t n,
                                 std::size_t k) {
  util::Rng rng(11);
  for (auto _ : state) {
    auto ids = rng.sample_without_replacement(n, k);
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK_CAPTURE(BM_SampleWithoutReplacement, 10x2, 10, 2);
BENCHMARK_CAPTURE(BM_SampleWithoutReplacement, 100x10, 100, 10);
BENCHMARK_CAPTURE(BM_SampleWithoutReplacement, 1000000x500, 1000000, 500);

// One client's assignment out of a 1M-client label-skew plan: sketch(i)
// replays the clients between i's checkpoint and i. The 64 clients are
// spread evenly across one checkpoint stride, so the mean replay is half a
// stride, as for a store miss on a random client.
void BM_PartitionSketch(benchmark::State& state) {
  data::FederatedConfig cfg;
  cfg.n_clients = 1000000;
  cfg.train_per_client = 1;
  cfg.test_per_client = 1;
  cfg.partition = "skew";
  const data::PartitionPlan plan(data::dataset_spec("cifar10"), cfg, 5);
  constexpr std::size_t kStride = data::PartitionPlan::kCheckpointStride;
  constexpr std::size_t kClients = 64;
  std::vector<std::size_t> ids;
  for (std::size_t j = 0; j < kClients; ++j) {
    ids.push_back(500 * kStride + j * (kStride / kClients) + 7);
  }
  for (auto _ : state) {
    for (const std::size_t i : ids) {
      auto sk = plan.sketch(i);
      benchmark::DoNotOptimize(sk.label_weights.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kClients));
}
BENCHMARK(BM_PartitionSketch);

void BM_MaterializedAggregate(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<float>> updates;
  for (std::size_t c = 0; c < clients; ++c) {
    updates.push_back(random_tensor({n}, 7 + c).vec());
  }
  for (auto _ : state) {
    // O(cohort x model) resident: the pre-streaming shape of a round.
    std::vector<std::vector<float>> collected = updates;
    std::vector<std::pair<const std::vector<float>*, double>> entries;
    for (const auto& u : collected) entries.emplace_back(&u, 1.0);
    benchmark::DoNotOptimize(fl::weighted_average(entries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * clients));
}
BENCHMARK(BM_MaterializedAggregate)->Arg(8)->Arg(64);

// The nn step benches run warm models: after the first iteration every
// activation, gradient and loss buffer is reused, as in a campaign.
void BM_LeNetForward(benchmark::State& state) {
  nn::Model m = nn::lenet5(3, 16, 10, 1);
  const auto x = random_tensor({10, 3, 16, 16}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.forward(x).data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LeNetForward);

void train_steps(benchmark::State& state, nn::Model& m, nn::Sgd& opt) {
  const auto x = random_tensor({10, 3, 16, 16}, 4);
  const std::vector<std::int64_t> y = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  nn::LossResult loss;
  for (auto _ : state) {
    opt.zero_grad();
    nn::softmax_cross_entropy(m.forward(x, true), y, loss);
    m.backward(loss.grad_logits);
    opt.step();
    benchmark::DoNotOptimize(loss.loss);
    benchmark::ClobberMemory();
  }
}

void BM_LeNetTrainStep(benchmark::State& state) {
  nn::Model m = nn::lenet5(3, 16, 10, 1);
  nn::Sgd opt(m.parameters(), {.lr = 0.02f, .momentum = 0.5f});
  train_steps(state, m, opt);
}
BENCHMARK(BM_LeNetTrainStep);

void BM_ResNet9TrainStep(benchmark::State& state) {
  nn::Model m = nn::resnet9(3, 16, 20, 8, 1);
  nn::Sgd opt(m.parameters(), {.lr = 0.02f});
  train_steps(state, m, opt);
}
BENCHMARK(BM_ResNet9TrainStep);

// Proximity matrix over n clients' classifier weights (850 floats each for
// LeNet-5/10 classes) — FedClust's Eq. 3 cost.
void BM_ProximityMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::vector<std::vector<float>> weights(n, std::vector<float>(850));
  for (auto& w : weights) {
    for (auto& x : w) x = rng.normalf(0, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::l2_distance_matrix(weights));
  }
}
BENCHMARK(BM_ProximityMatrix)->Arg(100)->Arg(400);

// Nearest-landmark search in the landmark_setup workload's shape: 256
// landmarks of 850 floats, 200 queries per iteration. BM_NearestLandmark
// is the sketch's search over a packed landmark set (the kernel table's
// l2_distances); BM_NearestLandmarkPerPair is the generic search with one
// tensor::l2_distance call per pair, the path non-L2 metrics still take.
std::vector<std::vector<float>> random_rows(std::size_t n, std::size_t dim,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> rows(n, std::vector<float>(dim));
  for (auto& r : rows) {
    for (auto& x : r) x = rng.normalf(0, 1);
  }
  return rows;
}

void BM_NearestLandmark(benchmark::State& state) {
  const auto landmarks = random_rows(256, 850, 12);
  const auto queries = random_rows(200, 850, 13);
  const tensor::PackedRows packed(landmarks);
  for (auto _ : state) {
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(fl::nearest_landmark(q, packed));
    }
  }
}
BENCHMARK(BM_NearestLandmark);

void BM_NearestLandmarkPerPair(benchmark::State& state) {
  const auto landmarks = random_rows(256, 850, 12);
  const auto queries = random_rows(200, 850, 13);
  for (auto _ : state) {
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(
          fl::nearest_landmark(q, landmarks, tensor::l2_distance));
    }
  }
}
BENCHMARK(BM_NearestLandmarkPerPair);

// One-shot HC on an n x n proximity matrix — the paper's O(N^2) server
// overhead (Algorithm 1, line 6). Compare against BM_LeNetTrainStep x
// steps-per-round to see it is negligible.
void BM_HierarchicalClustering(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<std::vector<float>> pts(n, std::vector<float>(8));
  for (auto& p : pts) {
    for (auto& x : p) x = rng.normalf(0, 1);
  }
  const auto dist = clustering::l2_distance_matrix(pts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clustering::agglomerative(dist, clustering::Linkage::kAverage));
  }
}
BENCHMARK(BM_HierarchicalClustering)->Arg(100)->Arg(400);

void BM_JacobiSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_tensor({n, n}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_svd(a));
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(8)->Arg(32);

// PACFL's per-client cost: truncated SVD of a (768, 32) class matrix.
void BM_TruncatedSvd(benchmark::State& state) {
  const auto x = random_tensor({768, 32}, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::truncated_left_singular(x, 3));
  }
}
BENCHMARK(BM_TruncatedSvd);

void BM_PrincipalAngles(benchmark::State& state) {
  util::Rng rng(9);
  const auto u1 =
      linalg::orthonormalize_columns(random_tensor({768, 6}, 10));
  const auto u2 =
      linalg::orthonormalize_columns(random_tensor({768, 6}, 11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::principal_angle_distance_deg(u1, u2));
  }
}
BENCHMARK(BM_PrincipalAngles);

// Full local-training call as the FL loop issues it (10 samples, 2 epochs).
void BM_ClientLocalTraining(benchmark::State& state) {
  const auto spec = data::dataset_spec("cifar10");
  data::FederatedConfig fcfg;
  fcfg.n_clients = 1;
  fcfg.train_per_client = 10;
  fcfg.test_per_client = 4;
  auto cdata = data::make_federated_data(spec, fcfg, 1);
  fl::SimClient client(0, std::move(cdata[0].train), std::move(cdata[0].test));
  nn::Model m = nn::lenet5(3, 16, 10, 1);
  fl::LocalTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 10;
  opts.lr = 0.02f;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.train(m, opts, util::Rng(salt++)));
  }
}
BENCHMARK(BM_ClientLocalTraining);

// One FedClust warmup's training in fedclust_paper's shape: LeNet-5, 50
// CIFAR-10 samples, one epoch of five batches, on one warm workspace that
// reloads the same start model every call.
void BM_SimClientTrain(benchmark::State& state) {
  const auto spec = data::dataset_spec("cifar10");
  data::FederatedConfig fcfg;
  fcfg.n_clients = 1;
  fcfg.train_per_client = 50;
  fcfg.test_per_client = 20;
  auto cdata = data::make_federated_data(spec, fcfg, 1);
  fl::SimClient client(0, std::move(cdata[0].train), std::move(cdata[0].test));
  nn::Model m = nn::lenet5(3, 16, 10, 1);
  const std::vector<float> start = m.flat_params();
  fl::LocalTrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 10;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    m.set_flat_params(start);
    benchmark::DoNotOptimize(client.train(m, opts, util::Rng(salt++)));
  }
}
BENCHMARK(BM_SimClientTrain);

// Round-level client parallelism: clients/sec for a full FedAvg round (20
// sampled clients training concurrently) as the worker count sweeps 1, 2, 4
// and the hardware default. Items/sec is clients/sec against wall time; on
// a single-core host the >1-thread rows measure pure scheduling overhead
// rather than speedup.
class BenchFedAvg : public fl::FedAvg {
 public:
  using fl::FedAvg::FedAvg;
  using fl::FedAvg::round;
  using fl::FedAvg::setup;
};

void BM_RoundThroughput(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::reset_global_pool(threads);

  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("cifar10");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 50;
  cfg.fed.train_per_client = 12;
  cfg.fed.test_per_client = 4;
  cfg.fed.partition = "dirichlet";
  cfg.fed.dirichlet_alpha = 0.3;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 6;
  cfg.local.lr = 0.05f;
  cfg.sample_fraction = 0.4;  // 20 clients per round
  cfg.seed = 1;

  fl::Federation fed(cfg);
  BenchFedAvg algo(fed);
  algo.setup();
  const std::size_t clients_per_round = fed.sample_round(0).size();

  std::size_t r = 0;
  for (auto _ : state) {
    algo.round(r++);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(clients_per_round));
  state.counters["clients_per_round"] =
      static_cast<double>(clients_per_round);
  util::reset_global_pool(1);
}
BENCHMARK(BM_RoundThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // 0 = hardware concurrency
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same round with the observability layer recording (spans + metrics). The
// delta against BM_RoundThroughput/<n> is the enabled-path cost; the
// disabled-path cost is measured by BM_RoundThroughput itself, since every
// instrumentation site is compiled in and takes the relaxed-load branch.
void BM_RoundThroughputObsOn(benchmark::State& state) {
  obs::SpanTracer::instance().set_enabled(true);
  obs::MetricsRegistry::instance().set_enabled(true);
  BM_RoundThroughput(state);
  obs::SpanTracer::instance().set_enabled(false);
  obs::MetricsRegistry::instance().set_enabled(false);
  obs::SpanTracer::instance().clear();
}
BENCHMARK(BM_RoundThroughputObsOn)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();

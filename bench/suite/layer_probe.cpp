// layer_probe — per-layer cost of one benchmark workload, measured from
// outside the simulator's modules.
//
// It takes the same experiment flags as fedclust_sim, builds the workload's
// Federation, and replays the campaign sequentially through each module's
// public functions: the method's one-shot setup (FedClust warmups,
// proximity matrix, dendrogram, landmark assignment), then a few rounds of
// sample -> acquire -> pull_model -> train -> deliver_update -> aggregator
// submit/finish -> evaluation sweep. Repeated single calls (one SGD batch,
// wire encode/decode, a socket train call) are timed after the replay.
//
// Spans are recorded by this file around every call, kept in memory, and
// written as Chrome trace JSON at exit; a span's self time is its duration
// minus the time its child spans cover. One JSON object with the per-layer
// numbers goes to stdout. Run it at FEDCLUST_THREADS=1: the replay is the
// campaign's sequential path, and its round and setup totals are compared
// against a campaign run at one thread.
//
//   FEDCLUST_THREADS=1 layer_probe --method=FedClust --clients=100
//       --train=50 --test=20 --sample=0.1 --replay-rounds=5
//       --chrome-trace=probe.trace.json

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "experiment_flags.h"
#include "fl/federation.h"
#include "fl/landmark.h"
#include "fl/stream_agg.h"
#include "fl/wire.h"
#include "net/message.h"
#include "net/socket.h"
#include "net/stream.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace fedclust;
using Clock = std::chrono::steady_clock;

// Out-of-band round key FedClust's setup uses for warmup streams and
// envelopes (core/fedclust.cpp).
constexpr std::size_t kWarmupRound = 0xFEDC0000;
// Cap on clients the clustering calls are timed over for methods whose
// setup does not cluster (the landmark default sketch size).
constexpr std::size_t kClusterProbeClients = 256;
// Repetitions of each single-call measurement.
constexpr std::size_t kMicroReps = 20;

// Nested spans on one thread, closed in LIFO order by Scope.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double begin_us;
    double dur_us;
    double self_us;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) { log_.open(name); }
    ~Scope() { log_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
  };

  SpanLog() : epoch_(Clock::now()) {}

  // Spans named `name`, in completion order.
  std::vector<const Span*> named(const std::string& name) const {
    std::vector<const Span*> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(&s);
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}",
                    i == 0 ? "" : ",", s.name, s.begin_us, s.dur_us,
                    s.self_us);
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  struct Open {
    const char* name;
    double begin_us;
    double child_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  void open(const char* name) { stack_.push_back({name, now_us(), 0.0}); }
  void close() {
    const double end = now_us();
    const Open o = stack_.back();
    stack_.pop_back();
    const double dur = end - o.begin_us;
    if (!stack_.empty()) stack_.back().child_us += dur;
    spans_.push_back({o.name, o.begin_us, dur, dur - o.child_us});
  }

  Clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

using Scope = SpanLog::Scope;

double mean_dur_us(const SpanLog& log, const char* name) {
  const auto spans = log.named(name);
  if (spans.empty()) throw std::logic_error(std::string("no spans ") + name);
  double sum = 0.0;
  for (const auto* s : spans) sum += s->dur_us;
  return sum / static_cast<double>(spans.size());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_dur_us(const SpanLog& log, const char* name) {
  const auto spans = log.named(name);
  if (spans.empty()) throw std::logic_error(std::string("no spans ") + name);
  std::vector<double> d;
  for (const auto* s : spans) d.push_back(s->dur_us);
  return median(std::move(d));
}

// Medians of (duration, time covered by child spans) over spans `name`.
std::pair<double, double> median_total_and_attributed_us(const SpanLog& log,
                                                         const char* name) {
  const auto spans = log.named(name);
  if (spans.empty()) throw std::logic_error(std::string("no spans ") + name);
  std::vector<double> total;
  std::vector<double> attributed;
  for (const auto* s : spans) {
    total.push_back(s->dur_us);
    attributed.push_back(s->dur_us - s->self_us);
  }
  return {median(std::move(total)), median(std::move(attributed))};
}

// FedClust's round-0 warmup for one client (core/fedclust.cpp setup):
// download billed, train from the broadcast θ0 for the init epochs, upload
// the classifier slice through a warmup envelope.
std::vector<float> warmup_partial(SpanLog& log, fl::Federation& fed,
                                  const std::vector<float>& rx_init,
                                  std::size_t c) {
  Scope span(log, "cluster.warmup");
  fl::LocalTrainOptions warmup = fed.cfg().local;
  warmup.epochs =
      std::max<std::size_t>(1, fed.cfg().algo.fedclust_init_epochs);
  if (fed.cfg().algo.fedclust_init_lr > 0.0f) {
    warmup.lr = fed.cfg().algo.fedclust_init_lr;
  }
  fed.bill_download(fed.model_size());
  std::shared_ptr<const fl::SimClient> client;
  {
    Scope s(log, "store.acquire");
    client = fed.client(c);
  }
  nn::Model& ws = fed.workspace();
  ws.set_flat_params(rx_init);
  client->train(ws, warmup, fed.train_rng(c, kWarmupRound));
  return fed.upload_payload(fl::wire::MessageKind::kWarmupWeights,
                            ws.classifier_params(), c, kWarmupRound);
}

std::vector<std::size_t> cut_dendrogram(SpanLog& log,
                                        const tensor::Tensor& proximity,
                                        const fl::AlgoOptions& algo) {
  Scope span(log, "cluster.dendrogram");
  const auto dendro = clustering::agglomerative(
      proximity, clustering::linkage_from_string(algo.fedclust_linkage));
  if (algo.fedclust_k > 0) {
    return clustering::cut_to_k(dendro, algo.fedclust_k);
  }
  float lambda = algo.fedclust_lambda;
  if (lambda < 0.0f) lambda = clustering::gap_threshold(dendro);
  return clustering::cut_by_threshold(dendro, lambda);
}

float l2(const std::vector<float>& a, const std::vector<float>& b) {
  return tensor::l2_distance(a, b);
}

// Nearest-landmark assignment of every partial against the whole set, for
// setups that do not assign (the exact path, methods that do not cluster).
void time_assign(SpanLog& log,
                 const std::vector<std::vector<float>>& partials) {
  std::size_t nearest_sum = 0;
  for (const auto& f : partials) {
    Scope s(log, "landmark.assign");
    nearest_sum += fl::nearest_landmark(f, partials, l2);
  }
  if (nearest_sum >= partials.size() * partials.size()) {
    throw std::logic_error("layer_probe: nearest landmark out of range");
  }
}

// FedClust setup, exact or landmark sketch; returns client -> cluster. The
// exact path leaves its partials in *exact_partials.
std::vector<std::size_t> replay_fedclust_setup(
    SpanLog& log, fl::Federation& fed,
    std::vector<std::vector<float>>* exact_partials) {
  const fl::ExperimentConfig& cfg = fed.cfg();
  if (cfg.algo.fedclust_distance != "l2") {
    throw std::invalid_argument(
        "layer_probe: only the l2 proximity is replayed");
  }
  const std::size_t n = fed.n_clients();
  const std::size_t L = fl::effective_landmarks(n, cfg.landmarks);
  const std::vector<float> rx_init = fed.through_wire(
      fl::wire::MessageKind::kModelPull, fed.init_params(),
      fl::wire::kServerSender, kWarmupRound);
  if (L == 0) {
    std::vector<std::vector<float>>& partials = *exact_partials;
    partials.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      partials[c] = warmup_partial(log, fed, rx_init, c);
    }
    tensor::Tensor proximity;
    {
      Scope span(log, "cluster.proximity");
      proximity = clustering::l2_distance_matrix(partials);
    }
    return cut_dendrogram(log, proximity, cfg.algo);
  }
  const auto ids = fl::sample_landmarks(cfg.seed, n, L);
  std::vector<std::vector<float>> landmarks;
  landmarks.reserve(L);
  for (const std::size_t c : ids) {
    landmarks.push_back(warmup_partial(log, fed, rx_init, c));
  }
  tensor::Tensor proximity;
  {
    Scope span(log, "cluster.proximity");
    proximity = clustering::distance_matrix(
        L, [&](std::size_t i, std::size_t j) {
          return l2(landmarks[i], landmarks[j]);
        });
  }
  const auto labels = cut_dendrogram(log, proximity, cfg.algo);
  std::vector<std::size_t> assignment(n, 0);
  for (std::size_t i = 0; i < L; ++i) assignment[ids[i]] = labels[i];
  const std::size_t batch = cfg.client_cache > 0 ? cfg.client_cache : 256;
  for (const auto& b : fl::landmark_assign_batches(n, ids, batch)) {
    std::vector<std::vector<float>> feats;
    feats.reserve(b.size());
    for (const std::size_t c : b) {
      feats.push_back(warmup_partial(log, fed, rx_init, c));
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      Scope span(log, "landmark.assign");
      assignment[b[i]] = labels[fl::nearest_landmark(feats[i], landmarks, l2)];
    }
  }
  return assignment;
}

// The clustering calls timed on the round-0 cohort, for methods whose setup
// does not cluster: what the layer would cost on this workload's model.
void probe_clustering(SpanLog& log, fl::Federation& fed) {
  Scope span(log, "probe.clustering");
  auto ids = fed.sample_round(0);
  ids.resize(std::min(ids.size(), kClusterProbeClients));
  const std::vector<float> rx_init = fed.through_wire(
      fl::wire::MessageKind::kModelPull, fed.init_params(),
      fl::wire::kServerSender, kWarmupRound);
  std::vector<std::vector<float>> partials;
  for (const std::size_t c : ids) {
    partials.push_back(warmup_partial(log, fed, rx_init, c));
  }
  tensor::Tensor proximity;
  {
    Scope s(log, "cluster.proximity");
    proximity = clustering::l2_distance_matrix(partials);
  }
  cut_dendrogram(log, proximity, fed.cfg().algo);
  time_assign(log, partials);
}

// One communication round as FedAvg / cluster_fedavg_round run it on the
// sequential path, followed by the evaluation sweep.
void replay_round(SpanLog& log, fl::Federation& fed, std::size_t r,
                  const std::vector<std::size_t>& assignment,
                  std::vector<std::vector<float>>& models) {
  Scope round_span(log, "replay.round");
  const auto cluster_of = [&](std::size_t c) {
    return assignment.empty() ? std::size_t{0} : assignment[c];
  };
  std::vector<std::size_t> sampled;
  {
    Scope s(log, "round.sample");
    sampled = fed.sample_round(r);
  }
  const std::size_t p = fed.model_size();
  const bool int8 = fed.int8_aggregation_active();
  std::vector<std::size_t> slot(sampled.size());
  std::vector<std::size_t> members(models.size(), 0);
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    slot[i] = members[cluster_of(sampled[i])]++;
  }
  std::vector<std::unique_ptr<fl::StreamingAggregator>> aggs(models.size());
  for (std::size_t k = 0; k < models.size(); ++k) {
    if (members[k] > 0) {
      aggs[k] = std::make_unique<fl::StreamingAggregator>(members[k], p, int8);
    }
  }
  nn::Model& ws = fed.workspace();
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    const std::size_t c = sampled[i];
    const std::size_t k = cluster_of(c);
    {
      Scope s(log, "round.pull");
      ws.set_flat_params(fed.pull_model(models[k], r, p));
    }
    std::shared_ptr<const fl::SimClient> client;
    {
      Scope s(log, "store.acquire");
      client = fed.client(c);
    }
    {
      Scope s(log, "nn.train");
      client->train(ws, fed.cfg().local, fed.train_rng(c, r));
    }
    std::vector<float> params;
    {
      Scope s(log, "round.collect");
      params = ws.flat_params();
    }
    std::vector<std::uint8_t> encoded;
    bool delivered = false;
    {
      Scope s(log, "round.deliver");
      delivered =
          fed.deliver_update(c, r, params, p, int8 ? &encoded : nullptr);
    }
    Scope s(log, "agg.submit");
    if (delivered) {
      aggs[k]->submit(slot[i], params.data(), params.size(),
                      static_cast<double>(client->n_train()),
                      std::move(encoded));
    } else {
      aggs[k]->skip(slot[i]);
    }
  }
  for (std::size_t k = 0; k < models.size(); ++k) {
    if (!aggs[k]) continue;
    Scope s(log, "agg.finish");
    aggs[k]->finish(models[k]);
  }
  for (const std::size_t id : fed.eval_ids()) {
    std::shared_ptr<const fl::SimClient> client;
    {
      Scope s(log, "store.acquire");
      client = fed.client(id);
    }
    Scope s(log, "nn.eval");
    ws.set_flat_params(models[cluster_of(id)]);
    client->evaluate(ws);
  }
}

// Forward+loss, backward, and optimizer step on one training batch.
void probe_batch(SpanLog& log, fl::Federation& fed, std::size_t c) {
  const auto client = fed.client(c);
  const data::Dataset& train = client->train_data();
  std::vector<std::size_t> idx(
      std::min(fed.cfg().local.batch_size, train.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const tensor::Tensor images = train.batch_images(idx);
  const std::vector<std::int64_t> labels = train.batch_labels(idx);
  nn::Model& ws = fed.workspace();
  ws.set_flat_params(fed.init_params());
  nn::Sgd opt(ws.parameters(), {.lr = fed.cfg().local.lr,
                                .momentum = fed.cfg().local.momentum});
  for (std::size_t rep = 0; rep < kMicroReps; ++rep) {
    opt.zero_grad();
    nn::LossResult loss;
    {
      Scope s(log, "nn.forward");
      loss = nn::softmax_cross_entropy(ws.forward(images, /*train=*/true),
                                       labels);
    }
    {
      Scope s(log, "nn.backward");
      ws.backward(loss.grad_logits);
    }
    Scope s(log, "nn.optim");
    opt.step();
  }
}

void probe_wire(SpanLog& log, const fl::Federation& fed) {
  const std::vector<float>& params = fed.init_params();
  for (std::size_t rep = 0; rep < kMicroReps; ++rep) {
    std::vector<std::uint8_t> bytes;
    {
      Scope s(log, "wire.encode");
      bytes = fl::wire::encode(fl::wire::MessageKind::kUpdatePush,
                               fed.cfg().codec, 0, rep, params);
    }
    fl::wire::Envelope env;
    Scope s(log, "wire.decode");
    if (fl::wire::try_decode(bytes.data(), bytes.size(), env) !=
        fl::wire::DecodeStatus::kOk) {
      throw std::runtime_error("layer_probe: wire round trip failed");
    }
  }
}

// The worker's side of probe_net: verify each request's start envelope and
// send it back as the trained update. False on any failure; never throws.
bool echo_train_calls(int fd) {
  try {
    net::FdStream s(fd);
    net::FrameReader reader;
    std::vector<std::uint8_t> body;
    net::FrameStatus fst = net::FrameStatus::kNeedMore;
    for (std::size_t rep = 0; rep < kMicroReps; ++rep) {
      net::TrainReqMsg req;
      fl::wire::Envelope start;
      if (net::read_frame(s, reader, body, fst) != net::IoStatus::kOk ||
          !net::decode_train_req(body, req) ||
          fl::wire::try_decode(req.start_env.data(), req.start_env.size(),
                               start) != fl::wire::DecodeStatus::kOk) {
        return false;
      }
      net::TrainRespMsg resp;
      resp.client = req.client;
      resp.round = req.round;
      resp.ok = true;
      resp.params_env = fl::wire::encode(fl::wire::MessageKind::kUpdatePush,
                                         fl::wire::CodecId::kRawF32,
                                         req.client, req.round, start.payload);
      if (net::write_frame(s, net::encode_train_resp(resp)) !=
          net::IoStatus::kOk) {
        return false;
      }
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// One TrainReq/TrainResp exchange per repetition over a Unix socket pair:
// the server's framing and envelope work plus a peer doing the worker's,
// without the training in between.
void probe_net(SpanLog& log, const fl::Federation& fed) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("layer_probe: socketpair failed");
  }
  bool peer_ok = false;
  std::thread peer([&peer_ok, fd = fds[1]] {
    peer_ok = echo_train_calls(fd);
    net::close_fd(fd);
  });
  // Closing our end ends the peer's loop, so it can be joined on every
  // path, the exceptional ones included.
  const auto stop_peer = [&] {
    net::close_fd(fds[0]);
    peer.join();
  };
  bool ok = true;
  try {
    net::FdStream s(fds[0]);
    net::FrameReader reader;
    std::vector<std::uint8_t> body;
    net::FrameStatus fst = net::FrameStatus::kNeedMore;
    for (std::size_t rep = 0; rep < kMicroReps && ok; ++rep) {
      Scope span(log, "net.call");
      net::TrainReqMsg req;
      req.client = rep;
      req.round = rep;
      req.opts = fed.cfg().local;
      req.rng = fed.train_rng(rep, rep).state();
      req.start_env = fl::wire::encode(fl::wire::MessageKind::kModelPull,
                                       fl::wire::CodecId::kRawF32,
                                       fl::wire::kServerSender, rep,
                                       fed.init_params());
      net::TrainRespMsg resp;
      fl::wire::Envelope params;
      ok = net::write_frame(s, net::encode_train_req(req)) ==
               net::IoStatus::kOk &&
           net::read_frame(s, reader, body, fst) == net::IoStatus::kOk &&
           net::decode_train_resp(body, resp) &&
           fl::wire::try_decode(resp.params_env.data(), resp.params_env.size(),
                                params) == fl::wire::DecodeStatus::kOk;
    }
  } catch (...) {
    stop_peer();
    throw;
  }
  stop_peer();
  if (!ok || !peer_ok) {
    throw std::runtime_error("layer_probe: socket train call failed");
  }
}

void probe_materialize(SpanLog& log, const fl::ExperimentConfig& cfg,
                       const std::vector<std::size_t>& ids) {
  const data::PartitionPlan plan(cfg.data_spec, cfg.fed, cfg.seed);
  for (const std::size_t id : ids) {
    Scope s(log, "data.materialize");
    plan.materialize(id);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(
        "layer_probe",
        "time each layer's public calls on one benchmark workload (see "
        "bench/suite/README.md); prints one JSON object.");
    tools::add_experiment_options(args);
    args.add_option("replay-rounds", "communication rounds to replay", "5");
    args.add_option("chrome-trace", "Chrome trace JSON path (empty = off)",
                    "");
    if (!args.parse(argc, argv)) return 0;
    const std::string method = args.str("method");
    if (method != "FedAvg" && method != "FedClust") {
      throw std::invalid_argument("layer_probe: method " + method +
                                  " is not replayed (FedAvg|FedClust)");
    }
    const auto replay_rounds =
        static_cast<std::size_t>(args.integer("replay-rounds"));
    const fl::ExperimentConfig cfg = tools::build_experiment_config(args);
    if (replay_rounds == 0 || replay_rounds > cfg.rounds) {
      throw std::invalid_argument(
          "layer_probe: need 1 <= replay-rounds <= rounds");
    }

    SpanLog log;
    std::unique_ptr<fl::Federation> fed;
    std::vector<std::size_t> assignment;
    std::vector<std::vector<float>> exact_partials;
    std::size_t n_clusters = 1;
    {
      Scope setup(log, "replay.setup");
      {
        Scope s(log, "data.population_build");
        fed = std::make_unique<fl::Federation>(cfg);
      }
      if (method == "FedClust") {
        assignment = replay_fedclust_setup(log, *fed, &exact_partials);
        n_clusters = clustering::num_clusters(assignment);
      }
    }
    if (!exact_partials.empty()) {
      exact_partials.resize(
          std::min(exact_partials.size(), kClusterProbeClients));
      time_assign(log, exact_partials);
    }
    std::vector<std::vector<float>> models(n_clusters, fed->init_params());
    for (std::size_t r = 0; r < replay_rounds; ++r) {
      replay_round(log, *fed, r, assignment, models);
    }

    if (method != "FedClust") probe_clustering(log, *fed);
    const std::vector<std::size_t> cohort = fed->sample_round(0);
    probe_batch(log, *fed, cohort.front());
    probe_wire(log, *fed);
    probe_net(log, *fed);
    std::vector<std::size_t> ids = fed->eval_ids();
    ids.resize(std::min<std::size_t>(ids.size(), kMicroReps));
    probe_materialize(log, cfg, ids);

    const auto [round_us, round_attr_us] =
        median_total_and_attributed_us(log, "replay.round");
    const auto [setup_us, setup_attr_us] =
        median_total_and_attributed_us(log, "replay.setup");
    const double model_mb = static_cast<double>(fed->model_size()) * 4.0 / 1e6;
    const std::pair<const char*, double> out[] = {
        {"model_floats", static_cast<double>(fed->model_size())},
        {"replay_rounds", static_cast<double>(replay_rounds)},
        {"replay_round_s", round_us / 1e6},
        {"replay_round_attributed_s", round_attr_us / 1e6},
        {"replay_setup_s", setup_us / 1e6},
        {"replay_setup_attributed_s", setup_attr_us / 1e6},
        {"setup_clusters", static_cast<double>(n_clusters)},
        {"data.population_build_s",
         mean_dur_us(log, "data.population_build") / 1e6},
        {"data.materialize_us", median_dur_us(log, "data.materialize")},
        {"store.acquire_us", mean_dur_us(log, "store.acquire")},
        {"round.sample_ms", mean_dur_us(log, "round.sample") / 1e3},
        {"round.pull_us", mean_dur_us(log, "round.pull")},
        {"round.deliver_us", mean_dur_us(log, "round.deliver")},
        {"nn.train_ms", mean_dur_us(log, "nn.train") / 1e3},
        {"nn.forward_ms", median_dur_us(log, "nn.forward") / 1e3},
        {"nn.backward_ms", median_dur_us(log, "nn.backward") / 1e3},
        {"nn.optim_ms", median_dur_us(log, "nn.optim") / 1e3},
        {"nn.eval_ms", mean_dur_us(log, "nn.eval") / 1e3},
        {"wire.encode_mb_s",
         model_mb / (median_dur_us(log, "wire.encode") / 1e6)},
        {"wire.decode_mb_s",
         model_mb / (median_dur_us(log, "wire.decode") / 1e6)},
        {"agg.submit_us", mean_dur_us(log, "agg.submit")},
        {"agg.finish_ms", mean_dur_us(log, "agg.finish") / 1e3},
        {"cluster.warmup_ms", mean_dur_us(log, "cluster.warmup") / 1e3},
        {"cluster.proximity_ms", mean_dur_us(log, "cluster.proximity") / 1e3},
        {"cluster.dendrogram_ms",
         mean_dur_us(log, "cluster.dendrogram") / 1e3},
        {"landmark.assign_us", mean_dur_us(log, "landmark.assign")},
        {"net.call_us", median_dur_us(log, "net.call")},
    };
    std::cout << "{";
    char buf[128];
    for (std::size_t i = 0; i < std::size(out); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", i == 0 ? "" : ", ",
                    out[i].first, out[i].second);
      std::cout << buf;
    }
    std::cout << "}\n";
    if (!args.str("chrome-trace").empty()) {
      log.write_chrome_trace(args.str("chrome-trace"));
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

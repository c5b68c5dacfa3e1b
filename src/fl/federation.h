#pragma once

// Federation: the shared simulation substrate every algorithm runs on —
// the client population, the common initial model θ0, deterministic RNG
// streams, client sampling, communication accounting, and evaluation
// helpers.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/partition.h"
#include "fl/client.h"
#include "fl/client_store.h"
#include "fl/comm.h"
#include "fl/fault.h"
#include "fl/wire.h"
#include "nn/model_zoo.h"

namespace fedclust::fl {

class Transport;  // fl/transport.h — where local training executes

// Per-algorithm hyperparameters (paper §5.1 "Hyperparameters Settings",
// re-tuned where the reduced scale demands it; see EXPERIMENTS.md).
struct AlgoOptions {
  float prox_mu = 0.01f;  // FedProx

  // LG-FedAvg: how many trailing Parameter tensors are globally shared
  // (4 = weight+bias of the last two Linear layers, the paper's "2 global
  // layers").
  std::size_t lg_global_params = 4;

  // Per-FedAvg (first-order MAML).
  float perfedavg_alpha = 0.03f;
  float perfedavg_beta = 0.03f;
  std::size_t perfedavg_eval_epochs = 1;

  // CFL (Sattler): split when mean-update norm < eps1 while the max client
  // update norm > eps2 (norms relative to the cluster-model norm).
  float cfl_eps1 = 0.4f;
  float cfl_eps2 = 0.6f;

  std::size_t ifca_k = 4;

  // PACFL: p principal vectors per class; HC threshold on the summed
  // principal angle (degrees, < 0 = data-driven largest gap); pacfl_k > 0
  // bypasses the threshold and cuts to exactly k clusters.
  std::size_t pacfl_p = 3;
  float pacfl_threshold_deg = 10.0f;
  std::size_t pacfl_k = 0;

  // FedClust: clustering threshold λ (Algorithm 1) on the L2 distance
  // between final-layer weights, linkage for HC, and how long clients train
  // before uploading their partial weights in round 0. λ < 0 selects the
  // data-driven largest-gap threshold. fedclust_k > 0 bypasses λ entirely
  // and cuts the dendrogram to exactly k clusters (used by sweeps and by
  // IFCA-style fixed-k comparisons).
  float fedclust_lambda = 1.0f;
  std::size_t fedclust_k = 0;
  std::string fedclust_linkage = "average";
  // Proximity metric over the partial weights: "l2" (Eq. 3 of the paper)
  // or "cosine" (1 - cosine similarity) for the metric ablation.
  std::string fedclust_distance = "l2";
  std::size_t fedclust_init_epochs = 1;
  // Learning rate for the round-0 warmup (0 = reuse local.lr). A slightly
  // hotter warmup amplifies the label-ownership signal in the classifier
  // weights relative to sampling noise.
  float fedclust_init_lr = 0.0f;
};

// AlgoOptions' fields in canonical order (util/fields.h).
template <util::ConfigRef<AlgoOptions> A, class V>
constexpr void for_each_field(A& a, V&& v) {
  v({"prox_mu"}, a.prox_mu);
  v({"lg_global_params"}, a.lg_global_params);
  v({"perfedavg_alpha"}, a.perfedavg_alpha);
  v({"perfedavg_beta"}, a.perfedavg_beta);
  v({"perfedavg_eval_epochs"}, a.perfedavg_eval_epochs);
  v({"cfl_eps1"}, a.cfl_eps1);
  v({"cfl_eps2"}, a.cfl_eps2);
  v({"ifca_k"}, a.ifca_k);
  v({"pacfl_p"}, a.pacfl_p);
  v({"pacfl_threshold_deg"}, a.pacfl_threshold_deg);
  v({"pacfl_k"}, a.pacfl_k);
  v({"fedclust_lambda"}, a.fedclust_lambda);
  v({"fedclust_k"}, a.fedclust_k);
  v({"fedclust_linkage"}, a.fedclust_linkage);
  v({"fedclust_distance"}, a.fedclust_distance);
  v({"fedclust_init_epochs"}, a.fedclust_init_epochs);
  v({"fedclust_init_lr"}, a.fedclust_init_lr);
}
static_assert(util::field_list_complete<AlgoOptions>);

struct ExperimentConfig {
  data::SyntheticSpec data_spec;
  data::FederatedConfig fed;
  nn::ModelSpec model;
  LocalTrainOptions local;
  AlgoOptions algo;

  std::size_t rounds = 40;
  double sample_fraction = 0.1;  // R in Algorithm 1
  std::size_t eval_every = 1;    // evaluate-all cadence (rounds)
  // Fault-injection schedule + server resilience policy (see fl/fault.h).
  FaultPlan fault;
  // Payload codec every transfer is serialized with (see fl/codec.h). The
  // raw_f32 default round-trips byte-exactly, so all determinism and comm
  // totals match the pre-wire-layer behavior bit for bit; f16/qint8 are
  // opt-in lossy compressors.
  wire::CodecId codec = wire::CodecId::kRawF32;
  std::uint64_t seed = 1;

  // Client-store capacity: clients are always regenerated on demand as a
  // pure function of (seed, client id). With virtual_clients the store
  // holds at most `client_cache` of them (0 = default capacity) and evicts
  // the least recently used; without it the store never evicts. A
  // memory/CPU dial only — trajectories are bit-identical either way — so
  // both knobs are excluded from config_fingerprint, like FEDCLUST_THREADS.
  bool virtual_clients = false;
  std::size_t client_cache = 0;
  // Evaluation-sweep subsample: evaluate_all sweeps this many clients
  // (deterministically drawn from the seed, fixed for the whole run) instead
  // of the full population; 0 = every client. Changes recorded accuracies,
  // so it IS part of config_fingerprint.
  std::size_t eval_clients = 0;
  // Landmark-sketch clustering (FedClust/PACFL setup): cluster only this
  // many deterministically sampled landmark clients on the full dendrogram,
  // then stream everyone else through nearest-landmark assignment in
  // O(N·L) with bounded memory (fl/landmark.h). 0 (or >= n_clients) makes
  // every client a landmark: exact O(N²) clustering. Changes the partition,
  // so a non-zero value IS part of config_fingerprint.
  std::size_t landmarks = 0;
  // --fast-math-kernels (FMA kernels, int8-domain qint8 aggregation).
  // Changes results, so a true value IS part of config_fingerprint.
  // tools/experiment_flags.h sets the process-wide kernel switch from it.
  bool fast_math_kernels = false;
};

// ExperimentConfig's fields in canonical order — the config fingerprint's
// byte order (util/fields.h). The nested groups are named by their manifest
// keys.
template <util::ConfigRef<ExperimentConfig> C, class V>
constexpr void for_each_field(C& c, V&& v) {
  using util::Fingerprint;
  v({"data"}, c.data_spec);
  v({"federation"}, c.fed);
  v({"model"}, c.model);
  v({"local"}, c.local);
  v({"algo"}, c.algo);
  v({"rounds"}, c.rounds);
  v({"sample_fraction"}, c.sample_fraction);
  v({"eval_every"}, c.eval_every);
  // The removed dropout_prob knob (now fault.pre_round_dropout) keeps its
  // slot at its old default, so existing snapshots keep their fingerprint.
  const double retired_dropout_prob = 0.0;
  v({.name = "dropout_prob", .fingerprint = Fingerprint::kRetired},
    retired_dropout_prob);
  v({"fault"}, c.fault);
  v({"codec"}, c.codec);
  v({"seed"}, c.seed);
  v({.name = "virtual_clients", .fingerprint = Fingerprint::kNever},
    c.virtual_clients);
  v({.name = "client_cache", .fingerprint = Fingerprint::kNever},
    c.client_cache);
  v({"eval_clients"}, c.eval_clients);
  v({.name = "landmarks", .fingerprint = Fingerprint::kIfSet}, c.landmarks);
  v({.name = "fast_math_kernels", .fingerprint = Fingerprint::kIfSet},
    c.fast_math_kernels);
}
static_assert(util::field_list_complete<ExperimentConfig>);

class Federation {
 public:
  // Plans the client population from cfg.fed / cfg.data_spec; clients are
  // synthesized on first use. Validates cfg (sample_fraction, rounds,
  // eval_every, fault plan) and throws std::invalid_argument naming the
  // offending field.
  explicit Federation(ExperimentConfig cfg);

  const ExperimentConfig& cfg() const { return cfg_; }
  std::size_t n_clients() const { return store_.size(); }

  // Shared ownership of client i, materializing it on first use. Hold the
  // returned pointer in a local when using the client across statements —
  // an evicted client stays alive for exactly as long as someone holds it.
  // Thread-safe.
  std::shared_ptr<const SimClient> client(std::size_t i) const {
    return store_.acquire(i);
  }

  // The backing store's cache statistics.
  ClientStore::CacheStats store_stats() const { return store_.stats(); }

  CommTracker& comm() { return comm_; }

  // Shared initial parameters θ0 (identical across algorithms for a given
  // seed, as in the paper's setup).
  const std::vector<float>& init_params() const { return init_params_; }
  std::size_t model_size() const { return init_params_.size(); }

  // Fresh model with architecture cfg.model (weights seeded by salt).
  nn::Model make_model(std::uint64_t salt) const;

  // The reusable workspace model algorithms load parameters into (the
  // sequential path; concurrent client work leases replicas instead).
  nn::Model& workspace() { return workspace_; }

  // Thread-safe checkout of a model replica for concurrent client work.
  // Replicas share the architecture of workspace() and are grown lazily, at
  // most one per in-flight worker; callers must load parameters with
  // set_flat_params before use. Model behavior is fully determined by the
  // flat parameter vector for every zoo architecture (no layer owns an RNG
  // stream or running statistics), which is what makes replicas
  // interchangeable with the shared workspace — keep it that way when
  // adding layers, or thread-count invariance breaks.
  nn::Model* acquire_workspace();
  void release_workspace(nn::Model* m);

  // max(R*N, 1) distinct client ids for the given round — over-selected by
  // fault.over_select_fraction to hedge expected dropouts, minus the fault
  // engine's pre-round dropouts; deterministic in (seed, round), never
  // empty.
  std::vector<std::size_t> sample_round(std::size_t round) const;

  // The fault schedule and the server's update quarantine for this
  // federation. The engine's decisions are pure functions of
  // (seed, client, round); see fl/fault.h.
  const FaultEngine& faults() const { return faults_; }
  const UpdateValidator& validator() const { return validator_; }

  // Resolves post-train delivery of one client's update for (client, round):
  // post-train crashes lose the update before any upload; transient comm
  // faults retransmit (every attempt is billed to comm()) until success or
  // the retry budget runs out; stragglers and backoff delays are checked
  // against fault.round_deadline; surviving updates are deterministically
  // corrupted when scheduled and then screened by validator(). Returns true
  // iff `params` may enter aggregation — false means the server never got a
  // usable update (the caller must exclude it from every reduction).
  // Emits fault.* counters for each injection and defense. Thread-safe:
  // callable from worker chunks (all shared state is atomic).
  // When `encoded_out` is non-null, a successfully delivered update also
  // leaves its encoded wire payload (envelope header stripped) in
  // *encoded_out — the raw bytes the int8 aggregation path consumes without
  // re-expanding to floats. Cleared on every failed delivery.
  bool deliver_update(std::size_t client, std::size_t round,
                      std::vector<float>& params,
                      std::uint64_t upload_floats,
                      std::vector<std::uint8_t>* encoded_out = nullptr);

  // True when cohort updates should be averaged in the quantized int8
  // domain: the experiment codec is qint8 AND --fast-math-kernels opted in
  // (the fixed-point average is an approximation of float averaging; see
  // wire::qint8_weighted_average).
  bool int8_aggregation_active() const;

  // ---- wire layer ----------------------------------------------------
  // Every transfer is serialized into a checksummed wire envelope with the
  // experiment codec (cfg().codec); see fl/wire.h for framing and
  // fl/codec.h for payload encodings.

  // Round-trips `payload` through an envelope (encode -> CRC verify ->
  // decode) and returns what the receiver sees: bit-exact for raw_f32,
  // quantized for lossy codecs. Pure and thread-safe; bills nothing — pair
  // with the billed helpers below. Throws if the self-produced envelope
  // fails to verify (a logic error, not a simulated fault).
  std::vector<float> through_wire(wire::MessageKind kind,
                                  const std::vector<float>& payload,
                                  std::uint64_t sender,
                                  std::size_t round) const;

  // Server -> client model pull: round-trips `payload` through the wire and
  // bills the download. `counted_floats` (>= payload.size()) is the logical
  // download volume; floats beyond the model payload (e.g. SCAFFOLD's
  // control variate riding along) are billed as a second envelope.
  std::vector<float> pull_model(const std::vector<float>& payload,
                                std::size_t round,
                                std::uint64_t counted_floats);

  // Client -> server setup payload (warmup partials, FLIS profiles, PACFL
  // subspace bases): round-trips through the wire and bills the upload.
  // Setup sweeps stay fault-free (ROADMAP "Robustness"), so this path never
  // consults the fault engine — faulted uploads go through deliver_update.
  std::vector<float> upload_payload(wire::MessageKind kind,
                                    const std::vector<float>& payload,
                                    std::size_t client, std::size_t round);

  // Count-only billing for transfers whose payload is not materialized per
  // message (IFCA's K-model browse): `messages` envelopes of `n_floats`
  // each through the experiment codec.
  void bill_download(std::uint64_t n_floats, std::uint64_t messages = 1);

  // Where train_clients executes local training: nullptr (the default)
  // keeps the in-process path; a transport (net::ServerTransport) delegates
  // the computation to worker processes. Not owned; the caller keeps it
  // alive for the run.
  // Deliberately excluded from config_fingerprint: the transport must not
  // change the trajectory (the bit-identity contract in docs/TRANSPORT.md).
  void set_transport(Transport* t) { transport_ = t; }
  Transport* transport() const { return transport_; }

  // Deterministic RNG stream for (client, round) local training. Thread-safe:
  // splitting is a pure function of (seed, client, round), so concurrent
  // workers can derive their streams without synchronization.
  util::Rng train_rng(std::size_t client, std::size_t round) const;

  // The client ids evaluate_all sweeps: every client when
  // cfg().eval_clients is 0 or >= n_clients(), otherwise a sorted
  // subsample drawn once per run from a dedicated seed-derived stream
  // (pure in seed, independent of sampling/training streams).
  std::vector<std::size_t> eval_ids() const;

  // Mean local-test accuracy over eval_ids(), where params_of(i) supplies
  // the flat parameter vector client i should be evaluated with. The sweep
  // runs client-parallel; params_of must be safe to call concurrently for
  // distinct i (return refs to per-client or immutable storage, never to a
  // shared scratch buffer).
  double average_local_accuracy(
      const std::function<const std::vector<float>&(std::size_t)>& params_of);

  // Per-client accuracy vector under the same protocol — the fairness view
  // (accuracy dispersion across clients) used by the shootout example.
  // Entry j is the accuracy of client eval_ids()[j].
  std::vector<double> local_accuracy_distribution(
      const std::function<const std::vector<float>&(std::size_t)>& params_of);

 private:
  // Shared implementation of the through_wire/pull_model/upload_payload
  // helpers; reports the actual encoded payload byte count for billing.
  std::vector<float> wire_round_trip(wire::MessageKind kind, const float* data,
                                     std::size_t n, std::uint64_t sender,
                                     std::size_t round,
                                     std::uint64_t* encoded_bytes) const;

  ExperimentConfig cfg_;
  Transport* transport_ = nullptr;
  FaultEngine faults_;
  UpdateValidator validator_;
  // mutable: acquiring a client may materialize it into the LRU cache,
  // which is invisible to every observable result (regeneration is pure).
  mutable ClientStore store_;
  CommTracker comm_;
  nn::Model workspace_;
  std::vector<float> init_params_;

  // Lazily grown pool of workspace replicas for client-parallel execution.
  std::mutex ws_mu_;
  std::vector<std::unique_ptr<nn::Model>> ws_owned_;
  std::vector<nn::Model*> ws_free_;
};

// RAII lease on a workspace replica; used by the parallel round executor's
// worker chunks.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(Federation& fed)
      : fed_(fed), model_(fed.acquire_workspace()) {}
  ~WorkspaceLease() { fed_.release_workspace(model_); }

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  nn::Model& model() { return *model_; }

 private:
  Federation& fed_;
  nn::Model* model_;
};

// n_i-weighted average of client parameter vectors (FedAvg aggregation).
// `entries` pairs each vector with its weight (sample count); weights are
// normalized internally. Throws on empty input or length mismatch.
std::vector<float> weighted_average(
    const std::vector<std::pair<const std::vector<float>*, double>>& entries);

}  // namespace fedclust::fl

#pragma once

// Client-parallel round execution.
//
// Clients inside a communication round are independent by construction:
// every client trains from an explicitly loaded parameter vector with its
// own pre-split (client, round) RNG stream, and communication accounting is
// a commutative sum. ParallelRoundRunner exploits that structure: it fans
// the sampled clients out over util::global_pool(), chunk c on the
// federation's model replica c (replica 0 is the workspace), and hands
// results to the caller keyed by client-index slot — either collected
// (train_clients) or consumed as deliveries resolve (train_clients_into).
// Aggregation folds updates over StreamingAggregator's fixed reduction
// tree, whose FP association depends only on the cohort size — so traces
// are bit-identical at any worker count (FEDCLUST_THREADS=1 runs one chunk
// through the shared workspace).
//
// Kernels (GEMM among them) run on the chunk's own thread and never fan
// out themselves (see util/thread_pool.h's nested-parallelism policy).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "fl/federation.h"

namespace fedclust::fl {

// Everything the common train-upload-collect client step needs, produced by
// the algorithm per sampled client before fan-out. `start` must outlive the
// call and must not change during it: the runner sends each distinct start
// model through the codec once per call and hands every client pointing at
// it the same decoded floats. prox_ref likewise (point it at round-constant
// storage such as the global model). grad_offset is owned by the job
// because SCAFFOLD/FedDyn derive it per client.
struct RoundTrainJob {
  const std::vector<float>* start = nullptr;  // params loaded before training
  LocalTrainOptions opts;
  util::Rng rng{0};
  const std::vector<float>* prox_ref = nullptr;
  std::optional<std::vector<float>> grad_offset;
  // Floats billed for the download before training: at least start->size(),
  // since the client always trains from the model as the wire delivers it.
  std::uint64_t download_floats = 0;
  std::uint64_t upload_floats = 0;  // accounted after training
  // Round id keying the fault schedule for this client step (algorithms set
  // it to the communication round, or a salted id for out-of-band passes
  // like CFL's split sweep). Decisions are pure in (seed, client, round).
  std::size_t round = 0;
};

struct RoundTrainResult {
  std::size_t client = 0;
  std::vector<float> params;  // post-training flat parameters
  double weight = 0.0;        // client's n_train (FedAvg weighting)
  float loss = 0.0f;          // mean training loss of the final epoch
  // Encoded wire payload of the delivered update — captured only while
  // Federation::int8_aggregation_active(), empty otherwise. Lets
  // StreamingAggregator average qint8 updates in the quantized domain.
  std::vector<std::uint8_t> encoded;
  // False when the server never got a usable update — post-train crash,
  // retry budget exhausted, deadline missed, or quarantined by the
  // validator. Undelivered results must stay out of every reduction;
  // to_entries() already filters them.
  bool delivered = true;
};

class ParallelRoundRunner {
 public:
  explicit ParallelRoundRunner(Federation& fed) : fed_(fed) {}

  // Runs fn(i, model) for i in [0, n), chunked like the pool's
  // parallel_for_chunked: chunk c runs on Federation::replica(c), so one
  // chunk (one thread, or a nested call) runs on the shared workspace. fn
  // must only write to per-index slots of captured state.
  void for_each_index(
      std::size_t n,
      const std::function<void(std::size_t, nn::Model&)>& fn);

  // Same, iterating a client-id list: fn(idx, clients[idx], workspace).
  void for_each_client(
      const std::vector<std::size_t>& clients,
      const std::function<void(std::size_t, std::size_t, nn::Model&)>& fn);

  // The journal rows of the canonical client step, for client loops that
  // run their own step over for_each_client (Local, Ditto, LG, IFCA,
  // Per-FedAvg), so every method journals what train_clients_into does.
  // Both are thread-safe.
  //
  // Count-only download (Federation::bill_download) of `messages`
  // envelopes of `n_floats` each, journaled as one `download` row for
  // `client` — IFCA's K-model browse is one row of K envelopes.
  void bill_download(std::size_t round, std::size_t client,
                     std::uint64_t n_floats, std::uint64_t messages = 1);
  // Runs `work`, all of `client`'s local work in `round`, and journals its
  // one `train` row: the wall time in µs, or 0 with the journal's wall
  // clock off.
  void journal_train(std::size_t round, std::size_t client,
                     const std::function<void()>& work);
  // Journals `client`'s `eval` row (accuracy in micro-units) under the
  // round context FlAlgorithm::run sets around evaluate_all; sweeps outside
  // it journal nothing.
  void journal_eval(std::size_t client, double acc);

  // The canonical round step shared by most algorithms: download, load
  // job.start, train, then resolve delivery through the federation's fault
  // engine (upload accounting, retries, corruption, validation — see
  // Federation::deliver_update), collect. job_of(idx, client) is called
  // from worker threads and must only read round-constant or per-client
  // state. Results come back indexed like `clients`, undelivered ones
  // flagged.
  std::vector<RoundTrainResult> train_clients(
      const std::vector<std::size_t>& clients,
      const std::function<RoundTrainJob(std::size_t, std::size_t)>& job_of);

  // Streaming variant: instead of collecting results, consume(idx, result)
  // is invoked once per sampled client the moment its delivery resolves —
  // from worker threads on the in-process path (consume must be
  // thread-safe; StreamingAggregator is) and from the server thread on the
  // remote path. The result is moved in, so the consumer decides what
  // outlives the call — feeding a reduction tree keeps per-round memory
  // at O(cohort) accumulators instead of O(cohort) parameter vectors.
  // train_clients() itself is implemented on top of this.
  void train_clients_into(
      const std::vector<std::size_t>& clients,
      const std::function<RoundTrainJob(std::size_t, std::size_t)>& job_of,
      const std::function<void(std::size_t, RoundTrainResult&&)>& consume);

 private:
  // Socket-mode variant of train_clients_into, taken when the federation
  // has a remote transport installed (see fl/transport.h for the
  // three-phase split). Produces results bit-identical to the in-process
  // path.
  void train_clients_remote_into(
      const std::vector<std::size_t>& clients,
      const std::function<RoundTrainJob(std::size_t, std::size_t)>& job_of,
      const std::function<void(std::size_t, RoundTrainResult&&)>& consume);

  Federation& fed_;
};

// weighted_average input view over the *delivered* train results (index
// order preserved; faulted updates are skipped).
std::vector<std::pair<const std::vector<float>*, double>> to_entries(
    const std::vector<RoundTrainResult>& results);

// True when at least one update survived the round's faults — check before
// dividing by a total weight.
bool any_delivered(const std::vector<RoundTrainResult>& results);

}  // namespace fedclust::fl

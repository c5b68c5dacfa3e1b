#pragma once

// Transport: where a round's local-training computation runs.
//
// The in-process simulator and the socket-backed multi-process runner share
// one seam. ParallelRoundRunner::train_clients asks the federation for its
// transport; when none is installed the unchanged in-process path
// executes. When a transport is installed, the runner splits the canonical
// client step into three phases:
//
//   1. (server) build a TrainCall per sampled client — pull_model billing,
//      kDownload journal rows, the exact start floats the client trains
//      from, the pre-split (client, round) RNG stream, and the local
//      options. Everything stochastic is resolved here, on the server.
//   2. (transport) Transport::execute ships the calls to worker processes
//      and collects TrainOutcomes. The shipped floats travel in raw_f32
//      envelopes regardless of the experiment codec: the experiment codec
//      is a *simulated* property applied server-side by pull_model /
//      deliver_update, so the physical transport must not re-quantize.
//   3. (server) outcomes feed Federation::deliver_update exactly like
//      locally trained parameters — fault injection, retries, corruption,
//      validation, and billing are all server-side and byte-identical to
//      the in-process path.
//
// Because a TrainCall carries every input of SimClient::train and workers
// rebuild the identical client population from the shared config (synthetic
// data is pure in (seed, client)), a deterministic-mode socket campaign is
// bit-identical to the in-process run by construction — which worker
// computes a call, in what order, after how many retries, cannot matter.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fl/client.h"
#include "util/rng.h"

namespace fedclust::fl {

// One delegated local-training computation. All vectors are exact float
// images (no codec applied); prox_ref/grad_offset are present only when the
// algorithm supplied them.
struct TrainCall {
  std::size_t client = 0;
  std::size_t round = 0;
  LocalTrainOptions opts;
  util::RngState rng;
  std::vector<float> start;
  std::optional<std::vector<float>> prox_ref;
  std::optional<std::vector<float>> grad_offset;
};

// The result of one TrainCall. ok == false means the transport lost the
// computation (worker crashed and the retry budget ran out): the caller
// must treat it as a lost update — never substitute stale parameters.
struct TrainOutcome {
  bool ok = false;
  std::vector<float> params;
  float loss = 0.0f;
  std::uint64_t train_us = 0;   // worker-measured wall time (telemetry only)
  std::uint32_t attempts = 1;   // delivery attempts the transport spent
};

// Executes batches of TrainCalls. Implementations: the in-process path is
// the *absence* of a transport (Federation::transport() == nullptr);
// net::ServerTransport is the socket implementation.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::string name() const = 0;

  // Resolves every call; outcomes.size() == calls.size() on return and
  // outcomes[i] answers calls[i]. Called from the algorithm thread; may
  // block. Must not throw for per-call failures (report ok = false); may
  // throw only for unrecoverable transport breakage.
  virtual void execute(const std::vector<TrainCall>& calls,
                       std::vector<TrainOutcome>& outcomes) = 0;
};

}  // namespace fedclust::fl

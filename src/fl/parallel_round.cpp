#include "fl/parallel_round.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>

#include "fl/wire.h"
#include "fl/transport.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fedclust::fl {

namespace {

// Journals client c's model pull, mirroring CommTracker's billing exactly:
// one envelope for the model itself, one more for any extra floats riding
// along (e.g. SCAFFOLD's control variate).
void journal_download(const RoundTrainJob& job, std::size_t c,
                      wire::CodecId codec) {
  const std::uint64_t base_n = job.start->size();
  std::uint64_t wire_bytes = wire::wire_size(codec, base_n);
  if (job.download_floats > base_n) {
    wire_bytes += wire::wire_size(codec, job.download_floats - base_n);
  }
  OBS_JOURNAL(job.round, c, kDownload, job.download_floats * 4, wire_bytes);
}

// The model pulls of one train_clients_into call. Each distinct job.start
// goes through the codec once: the first client that needs it does the
// round trip while any other waits, and every client trains from those
// decoded floats — the codec is pure in the payload, so they are the bits a
// round trip per client would give. Each client's download is still billed
// on its own, as pull_model bills it. The decoded models live only as long
// as the call, and raw_f32 keeps none: its round trip is byte-exact, so its
// clients train from job.start itself.
class ModelPulls {
 public:
  explicit ModelPulls(Federation& fed)
      : fed_(fed), exact_(fed.cfg().codec == wire::CodecId::kRawF32) {}

  // job.start as the client receives it; bills the client's download.
  const std::vector<float>& pull(const RoundTrainJob& job) {
    Pulled* p = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = std::find_if(
          pulled_.begin(), pulled_.end(),
          [&](const Pulled& e) { return e.start == job.start; });
      p = it != pulled_.end() ? &*it : &pulled_.emplace_back(job.start);
    }
    std::call_once(p->once, [&] {
      p->params = fed_.through_wire(wire::MessageKind::kModelPull, *job.start,
                                    wire::kServerSender, job.round);
      if (exact_) std::vector<float>().swap(p->params);
    });
    const std::uint64_t model_floats = job.start->size();
    fed_.bill_download(model_floats);
    if (job.download_floats > model_floats) {
      fed_.bill_download(job.download_floats - model_floats);
    }
    return exact_ ? *job.start : p->params;
  }

 private:
  struct Pulled {
    explicit Pulled(const std::vector<float>* s) : start(s) {}
    const std::vector<float>* start;
    std::once_flag once;
    std::vector<float> params;
  };

  Federation& fed_;
  const bool exact_;
  std::mutex mu_;
  std::deque<Pulled> pulled_;  // stable addresses for call_once waiters
};

}  // namespace

void ParallelRoundRunner::for_each_index(
    std::size_t n, const std::function<void(std::size_t, nn::Model&)>& fn) {
  if (n == 0) return;
  util::ThreadPool& pool = util::global_pool();
  // Chunk c trains on replica c. At one thread, or nested in a chunk, the
  // loop is one chunk on the workspace, and the pool runs it inline.
  const std::size_t len = pool.chunk_length(n);
  fed_.grow_replicas((n + len - 1) / len);
  const auto chunk = [&](std::size_t lo, std::size_t hi) {
    nn::Model& model = fed_.replica(lo / len);
    for (std::size_t i = lo; i < hi; ++i) fn(i, model);
  };
  // One captured reference fits std::function's inline storage, so the
  // loop allocates nothing.
  pool.parallel_for_chunked(
      0, n, [&chunk](std::size_t lo, std::size_t hi) { chunk(lo, hi); });
}

void ParallelRoundRunner::for_each_client(
    const std::vector<std::size_t>& clients,
    const std::function<void(std::size_t, std::size_t, nn::Model&)>& fn) {
  for_each_index(clients.size(), [&](std::size_t i, nn::Model& ws) {
    fn(i, clients[i], ws);
  });
}

void ParallelRoundRunner::bill_download(std::size_t round, std::size_t client,
                                        std::uint64_t n_floats,
                                        std::uint64_t messages) {
  fed_.bill_download(n_floats, messages);
  OBS_JOURNAL(round, client, kDownload, messages * n_floats * 4,
              messages * wire::wire_size(fed_.cfg().codec, n_floats));
}

void ParallelRoundRunner::journal_train(std::size_t round, std::size_t client,
                                        const std::function<void()>& work) {
  // Train wall time is journal-only telemetry; the clock is read only when
  // a journal is open (and recorded as 0 with the wall clock off, keeping
  // the determinism test's files bit-identical).
  const bool timed =
      obs::EventJournal::enabled() && obs::EventJournal::wall_clock();
  const std::int64_t t0 = timed ? util::process_elapsed_micros() : 0;
  work();
  OBS_JOURNAL(round, client, kTrain,
              timed ? static_cast<std::uint64_t>(
                          util::process_elapsed_micros() - t0)
                    : 0);
}

void ParallelRoundRunner::journal_eval(std::size_t client, double acc) {
  if (obs::EventJournal::enabled()) {
    obs::EventJournal::instance().record_in_context(
        client, obs::JournalEvent::kEval,
        static_cast<std::uint64_t>(std::llround(acc * 1e6)));
  }
}

std::vector<RoundTrainResult> ParallelRoundRunner::train_clients(
    const std::vector<std::size_t>& clients,
    const std::function<RoundTrainJob(std::size_t, std::size_t)>& job_of) {
  std::vector<RoundTrainResult> results(clients.size());
  train_clients_into(clients, job_of,
                     [&](std::size_t idx, RoundTrainResult&& res) {
                       results[idx] = std::move(res);
                     });
  return results;
}

void ParallelRoundRunner::train_clients_into(
    const std::vector<std::size_t>& clients,
    const std::function<RoundTrainJob(std::size_t, std::size_t)>& job_of,
    const std::function<void(std::size_t, RoundTrainResult&&)>& consume) {
  if (fed_.transport() != nullptr) {
    train_clients_remote_into(clients, job_of, consume);
    return;
  }
  ModelPulls pulls(fed_);
  for_each_client(clients, [&](std::size_t idx, std::size_t c,
                               nn::Model& ws) {
    const RoundTrainJob job = job_of(idx, c);
    // v = client, v2 = round: Perfetto filters train spans per client AND
    // per round. The job is fetched first so the round is in hand; job_of
    // is a pure field copy, so the span still covers all real work.
    OBS_SPAN_ARG2("client.train", c, job.round);
    // The model pull travels the wire: the client trains from what the
    // codec round-trips (bit-exact for raw_f32), and the tracker bills the
    // encoded bytes. download_floats beyond the model itself (e.g.
    // SCAFFOLD's control variate) are billed as a second envelope.
    ws.set_flat_params(pulls.pull(job));
    if (obs::EventJournal::enabled()) {
      journal_download(job, c, fed_.cfg().codec);
    }
    // One store acquisition per client step; the shared_ptr keeps the
    // client alive across train + n_train even if the LRU evicts it.
    std::shared_ptr<const SimClient> client;
    float loss = 0.0f;
    journal_train(job.round, c, [&] {
      client = fed_.client(c);
      loss = client->train(ws, job.opts, job.rng, job.prox_ref,
                           job.grad_offset ? &*job.grad_offset : nullptr);
    });
    RoundTrainResult res;
    res.client = c;
    res.params = ws.flat_params();
    res.weight = static_cast<double>(client->n_train());
    res.loss = loss;
    res.delivered = fed_.deliver_update(
        c, job.round, res.params, job.upload_floats,
        fed_.int8_aggregation_active() ? &res.encoded : nullptr);
    consume(idx, std::move(res));
  });
}

void ParallelRoundRunner::train_clients_remote_into(
    const std::vector<std::size_t>& clients,
    const std::function<RoundTrainJob(std::size_t, std::size_t)>& job_of,
    const std::function<void(std::size_t, RoundTrainResult&&)>& consume) {
  Transport& net = *fed_.transport();
  const bool journal_on = obs::EventJournal::enabled();
  std::vector<TrainCall> calls(clients.size());
  std::vector<std::uint64_t> upload_floats(clients.size(), 0);

  // Phase 1 (server): resolve everything stochastic before any byte leaves
  // the process — the model pull applies the experiment codec and bills the
  // download exactly like the in-process path, and the RNG stream ships as
  // serialized state, so the worker replays the identical computation.
  ModelPulls pulls(fed_);
  for (std::size_t idx = 0; idx < clients.size(); ++idx) {
    const std::size_t c = clients[idx];
    const RoundTrainJob job = job_of(idx, c);
    TrainCall& call = calls[idx];
    call.client = c;
    call.round = job.round;
    call.opts = job.opts;
    call.rng = job.rng.state();
    call.start = pulls.pull(job);
    if (journal_on) journal_download(job, c, fed_.cfg().codec);
    if (job.prox_ref != nullptr) call.prox_ref = *job.prox_ref;
    if (job.grad_offset) call.grad_offset = *job.grad_offset;
    upload_floats[idx] = job.upload_floats;
  }

  // Phase 2 (transport): workers compute; retries/reassignment happen
  // inside execute and surface only as outcome metadata.
  std::vector<TrainOutcome> outcomes;
  {
    OBS_SPAN_ARG2("net.execute", clients.size(),
                  clients.empty() ? 0 : calls.front().round);
    net.execute(calls, outcomes);
  }

  // Phase 3 (server): collected parameters enter the same quarantine
  // chokepoint as locally trained ones. A call the transport lost (worker
  // crashed, retry budget exhausted) is billed honestly as a comm failure:
  // no upload bytes (nothing reached the server), fault.lost_updates, and
  // exclusion from the aggregate — graceful degradation, not silent reuse
  // of stale parameters.
  for (std::size_t idx = 0; idx < clients.size(); ++idx) {
    const std::size_t c = clients[idx];
    const std::size_t round = calls[idx].round;
    TrainOutcome& out = outcomes[idx];
    RoundTrainResult res;
    res.client = c;
    res.weight = static_cast<double>(fed_.client(c)->n_train());
    if (out.attempts > 1) {
      OBS_COUNTER_ADD("fault.retries", out.attempts - 1);
      OBS_JOURNAL(round, c, kRetry, out.attempts - 1);
    }
    if (!out.ok) {
      OBS_COUNTER_ADD("fault.comm_failed", 1);
      OBS_COUNTER_ADD("fault.lost_updates", 1);
      OBS_JOURNAL(round, c, kCommFailed, out.attempts);
      res.delivered = false;
      consume(idx, std::move(res));
      continue;
    }
    if (journal_on) {
      OBS_JOURNAL(round, c, kTrain,
                  obs::EventJournal::wall_clock() ? out.train_us : 0);
    }
    res.params = std::move(out.params);
    res.loss = out.loss;
    res.delivered = fed_.deliver_update(
        c, round, res.params, upload_floats[idx],
        fed_.int8_aggregation_active() ? &res.encoded : nullptr);
    consume(idx, std::move(res));
  }
}

std::vector<std::pair<const std::vector<float>*, double>> to_entries(
    const std::vector<RoundTrainResult>& results) {
  std::vector<std::pair<const std::vector<float>*, double>> entries;
  entries.reserve(results.size());
  for (const auto& r : results) {
    if (r.delivered) entries.emplace_back(&r.params, r.weight);
  }
  return entries;
}

bool any_delivered(const std::vector<RoundTrainResult>& results) {
  for (const auto& r : results) {
    if (r.delivered) return true;
  }
  return false;
}

}  // namespace fedclust::fl

#include "fl/federation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <array>
#include <atomic>
#include <string_view>

#include "fl/parallel_round.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cpu.h"
#include "util/logging.h"

namespace fedclust::fl {

namespace {

// Per-codec span names ("wire.encode/qint8") built once through the
// tracer's interning table; the benign store race is fine because intern()
// is idempotent (equal strings return the same pointer).
const char* wire_span_name(const char* prefix, wire::CodecId codec,
                           std::array<std::atomic<const char*>,
                                      wire::kNumCodecs>& cache) {
  auto& slot = cache[static_cast<std::size_t>(codec)];
  const char* name = slot.load(std::memory_order_relaxed);
  if (name == nullptr) {
    name = obs::SpanTracer::instance().intern(std::string(prefix) +
                                              wire::codec_name(codec));
    slot.store(name, std::memory_order_relaxed);
  }
  return name;
}

const char* encode_span_name(wire::CodecId codec) {
  static std::array<std::atomic<const char*>, wire::kNumCodecs> cache{};
  return wire_span_name("wire.encode/", codec, cache);
}

const char* decode_span_name(wire::CodecId codec) {
  static std::array<std::atomic<const char*>, wire::kNumCodecs> cache{};
  return wire_span_name("wire.decode/", codec, cache);
}

// Default LRU capacity for virtual mode when --client-cache is 0: enough
// for a typical sampled cohort plus the eval subsample without rebuild
// churn, small enough that RSS stays flat at million-client populations.
constexpr std::size_t kDefaultClientCache = 256;

// Without virtual_clients the store holds the whole population, so it never
// evicts and each client is built exactly once.
std::size_t store_capacity(const ExperimentConfig& cfg) {
  if (!cfg.virtual_clients) return cfg.fed.n_clients;
  return cfg.client_cache > 0 ? cfg.client_cache : kDefaultClientCache;
}

// Rejects configurations that used to fail silently (a zero sample
// fraction sampled one client forever; eval_every == 0 was patched to 1 in
// the round loop; rounds == 0 produced an empty trace downstream consumers
// choke on; zero local epochs or a zero learning rate divide FedNova's and
// SCAFFOLD's normalizers by zero and turn the global model NaN; a zero
// batch size never advances the batch loop). Runs before any member is
// built.
ExperimentConfig validated(ExperimentConfig cfg) {
  if (!(cfg.sample_fraction > 0.0) || cfg.sample_fraction > 1.0) {
    throw std::invalid_argument(
        "ExperimentConfig.sample_fraction must be in (0, 1], got " +
        std::to_string(cfg.sample_fraction));
  }
  if (cfg.rounds == 0) {
    throw std::invalid_argument("ExperimentConfig.rounds must be >= 1");
  }
  if (cfg.eval_every == 0) {
    throw std::invalid_argument("ExperimentConfig.eval_every must be >= 1");
  }
  if (cfg.local.epochs == 0) {
    throw std::invalid_argument("ExperimentConfig.local.epochs must be >= 1");
  }
  if (cfg.local.batch_size == 0) {
    throw std::invalid_argument(
        "ExperimentConfig.local.batch_size must be >= 1");
  }
  if (!(std::isfinite(cfg.local.lr) && cfg.local.lr > 0.0f)) {
    throw std::invalid_argument(
        "ExperimentConfig.local.lr must be finite and > 0, got " +
        std::to_string(cfg.local.lr));
  }
  cfg.fault.validate();
  return cfg;
}

}  // namespace

Federation::Federation(ExperimentConfig cfg)
    : cfg_(validated(std::move(cfg))),
      faults_(cfg_.fault, cfg_.seed),
      validator_(faults_.plan().max_update_norm),
      store_(std::make_shared<const data::PartitionPlan>(cfg_.data_spec,
                                                         cfg_.fed, cfg_.seed),
             store_capacity(cfg_)),
      workspace_(nn::build_model(cfg_.model, cfg_.seed)) {
  init_params_ = workspace_.flat_params();
  if (obs::MetricsRegistry::enabled()) {
    // Record the resolved kernel dispatch in the metrics summary so every
    // run documents which ISA produced its numbers.
    obs::MetricsRegistry::instance()
        .gauge(std::string("kernels.isa.") +
               util::isa_name(util::active_isa()))
        .set(1);
    obs::MetricsRegistry::instance()
        .gauge("kernels.fast_math")
        .set(util::fast_math_kernels() ? 1 : 0);
  }
}

nn::Model Federation::make_model(std::uint64_t salt) const {
  return nn::build_model(cfg_.model, cfg_.seed ^ (salt * 0x9e3779b9ULL + 1));
}

nn::Model* Federation::acquire_workspace() {
  {
    const std::lock_guard<std::mutex> lock(ws_mu_);
    if (!ws_free_.empty()) {
      nn::Model* m = ws_free_.back();
      ws_free_.pop_back();
      return m;
    }
  }
  // Build outside the lock so concurrent first acquisitions don't serialize
  // on model construction. Initial weights are irrelevant: every user loads
  // parameters before touching the replica.
  auto replica = std::make_unique<nn::Model>(
      nn::build_model(cfg_.model, cfg_.seed));
  nn::Model* m = replica.get();
  const std::lock_guard<std::mutex> lock(ws_mu_);
  ws_owned_.push_back(std::move(replica));
  return m;
}

void Federation::release_workspace(nn::Model* m) {
  const std::lock_guard<std::mutex> lock(ws_mu_);
  ws_free_.push_back(m);
}

std::vector<std::size_t> Federation::sample_round(std::size_t round) const {
  const std::size_t n = store_.size();
  const auto want = static_cast<std::size_t>(
      cfg_.sample_fraction * static_cast<double>(n));
  std::size_t k = std::clamp<std::size_t>(want, 1, n);
  if (faults_.active() && faults_.plan().over_select_fraction > 0.0) {
    // Over-selection: hedge expected dropouts by inviting extra clients, so
    // the surviving cohort stays near the configured size.
    const auto hedged = static_cast<std::size_t>(std::ceil(
        static_cast<double>(k) *
        (1.0 + faults_.plan().over_select_fraction)));
    const std::size_t extra = std::clamp<std::size_t>(hedged, k, n) - k;
    OBS_COUNTER_ADD("fault.over_selected", extra);
    k += extra;
  }
  util::Rng rng = util::Rng(cfg_.seed).split(0xA11CE000ULL + round);
  auto ids = rng.sample_without_replacement(n, k);
  if (faults_.active()) {
    // Pre-round dropouts "have no impact" (paper §4.2): no compute, no
    // comm. Decisions come from the engine's per-(client, round) streams,
    // not from the sampling stream, so enabling other fault classes cannot
    // reshuffle the cohort.
    std::vector<std::size_t> survivors;
    for (const std::size_t id : ids) {
      if (faults_.decide(id, round).drop_pre_round) {
        OBS_COUNTER_ADD("fault.injected.pre_round_dropout", 1);
        OBS_JOURNAL(round, id, kDropped);
      } else {
        survivors.push_back(id);
      }
    }
    // A round needs at least one participant to aggregate anything.
    if (survivors.empty()) survivors.push_back(ids.front());
    ids = std::move(survivors);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::size_t id : ids) OBS_JOURNAL(round, id, kSampled);
  return ids;
}

std::vector<float> Federation::wire_round_trip(
    wire::MessageKind kind, const float* data, std::size_t n,
    std::uint64_t sender, std::size_t round,
    std::uint64_t* encoded_bytes) const {
  std::vector<std::uint8_t> bytes;
  {
    // v = payload floats, v2 = sender (client id, or kServerSender for
    // model pulls) so Perfetto can filter codec work per client.
    obs::SpanScope span(encode_span_name(cfg_.codec), n, sender);
    bytes = wire::encode(kind, cfg_.codec, sender, round, data, n);
  }
  if (encoded_bytes != nullptr) {
    *encoded_bytes = bytes.size() - wire::kHeaderSize;
  }
  wire::Envelope env;
  {
    obs::SpanScope span(decode_span_name(cfg_.codec), n, sender);
    const wire::DecodeStatus status =
        wire::try_decode(bytes.data(), bytes.size(), env);
    if (status != wire::DecodeStatus::kOk) {
      throw std::runtime_error(std::string("Federation: wire round trip of ") +
                               wire::message_kind_name(kind) + " failed: " +
                               wire::decode_status_name(status));
    }
  }
  return std::move(env.payload);
}

std::vector<float> Federation::through_wire(wire::MessageKind kind,
                                            const std::vector<float>& payload,
                                            std::uint64_t sender,
                                            std::size_t round) const {
  return wire_round_trip(kind, payload.data(), payload.size(), sender, round,
                         nullptr);
}

std::vector<float> Federation::pull_model(const std::vector<float>& payload,
                                          std::size_t round,
                                          std::uint64_t counted_floats) {
  std::uint64_t encoded = 0;
  std::vector<float> rx =
      wire_round_trip(wire::MessageKind::kModelPull, payload.data(),
                      payload.size(), wire::kServerSender, round, &encoded);
  comm_.download_envelope(payload.size(), encoded);
  if (counted_floats > payload.size()) {
    const std::uint64_t extra = counted_floats - payload.size();
    comm_.download_envelope(extra, wire::encoded_size(cfg_.codec, extra));
  }
  return rx;
}

std::vector<float> Federation::upload_payload(wire::MessageKind kind,
                                              const std::vector<float>& payload,
                                              std::size_t client,
                                              std::size_t round) {
  std::uint64_t encoded = 0;
  std::vector<float> rx = wire_round_trip(kind, payload.data(), payload.size(),
                                          client, round, &encoded);
  comm_.upload_envelope(payload.size(), encoded);
  return rx;
}

void Federation::bill_download(std::uint64_t n_floats,
                               std::uint64_t messages) {
  comm_.download_envelope(n_floats, wire::encoded_size(cfg_.codec, n_floats),
                          messages);
}

bool Federation::deliver_update(std::size_t client, std::size_t round,
                                std::vector<float>& params,
                                std::uint64_t upload_floats,
                                std::vector<std::uint8_t>* encoded_out) {
  OBS_SPAN_ARG2("fault.deliver", client, round);
  if (encoded_out != nullptr) encoded_out->clear();
  const wire::CodecId codec = cfg_.codec;
  // Validator reasons map onto the journal's quarantine codes.
  const auto quarantine_code = [](const char* why) -> std::uint64_t {
    return std::string_view(why) == "norm_bound" ? 1 : 0;
  };
  // Without a fault plan every decision is the all-zero FaultDecision (one
  // transmission, nothing lost or corrupted), so the path below reduces to
  // bill, encode, CRC-check, decode and screen.
  const bool faulted = faults_.active();
  const FaultPlan& plan = faults_.plan();
  const FaultDecision d = faults_.decide(client, round);
  if (d.crash_post_train) {
    // Compute spent, update lost before any byte moved.
    OBS_COUNTER_ADD("fault.injected.post_train_crash", 1);
    OBS_COUNTER_ADD("fault.lost_updates", 1);
    OBS_JOURNAL(round, client, kCrash);
    return false;
  }

  // Simulated round time in normalized units: a fault-free client costs
  // 1.0; stragglers stretch it; every retransmission adds exponential
  // backoff. Wall-clock never enters, so the schedule is thread-invariant.
  double sim_time = d.straggler ? d.delay_factor : 1.0;
  if (d.straggler) {
    OBS_COUNTER_ADD("fault.injected.straggler", 1);
    OBS_JOURNAL(round, client, kStraggler,
                static_cast<std::uint64_t>(std::llround(d.delay_factor *
                                                        1000.0)));
  }

  // Bounded retry-with-backoff: every attempt (including failed ones) puts
  // an encoded envelope on the wire.
  const bool comm_ok = d.transient_failures <= plan.max_retries;
  const std::size_t transmissions =
      comm_ok ? d.transient_failures + 1 : plan.max_retries + 1;
  if (upload_floats > 0) {
    comm_.upload_envelope(upload_floats,
                          wire::encoded_size(codec, upload_floats),
                          transmissions);
    // Journaled bytes are totals across every transmission attempt —
    // exactly what CommTracker bills.
    OBS_JOURNAL(round, client, kUpload, upload_floats * 4 * transmissions,
                (wire::encoded_size(codec, upload_floats) +
                 wire::kHeaderSize) *
                    transmissions);
  }
  if (transmissions > 1) {
    OBS_COUNTER_ADD("fault.injected.comm_transient", d.transient_failures);
    OBS_COUNTER_ADD("fault.retries", transmissions - 1);
    OBS_JOURNAL(round, client, kRetry, transmissions - 1);
    // Exponential backoff between retransmissions; the schedule knobs come
    // from the fault plan and are shared with the socket transport's
    // net::BackoffPolicy, so simulated and real retries follow one
    // definition. Defaults (0.25, x2) reproduce the historical schedule
    // bit for bit: 0.25, 0.5, 1.0, ...
    double backoff = plan.backoff_base;
    for (std::size_t i = 1; i < transmissions; ++i) {
      sim_time += backoff;
      backoff *= plan.backoff_mult;
    }
  }
  if (faulted) OBS_HISTOGRAM_OBSERVE("fault.sim_round_time", sim_time);
  if (!comm_ok) {
    OBS_COUNTER_ADD("fault.comm_failed", 1);
    OBS_COUNTER_ADD("fault.lost_updates", 1);
    OBS_JOURNAL(round, client, kCommFailed, transmissions);
    return false;
  }

  // The server closes the round at the deadline; a late update was still
  // transmitted (comm spent) but is discarded. Simulated time, and with it
  // the deadline, exists only under a fault plan.
  if (faulted && plan.round_deadline > 0.0 &&
      sim_time > plan.round_deadline) {
    OBS_COUNTER_ADD("fault.deadline_missed", 1);
    OBS_COUNTER_ADD("fault.lost_updates", 1);
    OBS_JOURNAL(round, client, kDeadlineMissed,
                static_cast<std::uint64_t>(std::llround(sim_time * 1000.0)));
    return false;
  }

  // Value corruption (NaN/Inf/explode) models a faulty client: it hits the
  // floats before serialization, so the damaged update travels under a
  // valid checksum and must be caught by the validator, not the CRC.
  if (d.corrupt != CorruptionKind::kNone &&
      d.corrupt != CorruptionKind::kBitFlip) {
    faults_.corrupt_update(params, client, round, d.corrupt);
    OBS_COUNTER_ADD("fault.injected.corrupted_update", 1);
  }

  std::vector<std::uint8_t> bytes;
  {
    obs::SpanScope span(encode_span_name(codec), params.size(), client);
    bytes = wire::encode(wire::MessageKind::kUpdatePush, codec, client, round,
                         params.data(), params.size());
  }

  // Bit-flip corruption models a transport fault: it flips real wire bytes
  // after the checksum was computed.
  if (d.corrupt == CorruptionKind::kBitFlip) {
    faults_.corrupt_wire(bytes, client, round);
    OBS_COUNTER_ADD("fault.injected.corrupted_update", 1);
  }

  wire::Envelope env;
  wire::DecodeStatus status;
  {
    obs::SpanScope span(decode_span_name(codec), params.size(), client);
    status = wire::try_decode(bytes.data(), bytes.size(), env);
  }
  if (status != wire::DecodeStatus::kOk) {
    // CRC verification is the first stage of quarantine: a damaged envelope
    // is rejected before any payload byte reaches a codec or a reduction.
    OBS_COUNTER_ADD("fault.checksum_rejects", 1);
    OBS_COUNTER_ADD("fault.lost_updates", 1);
    OBS_JOURNAL(round, client, kChecksumReject);
    FC_LOG_DEBUG << "client " << client << " round " << round
                 << ": envelope rejected (" << wire::decode_status_name(status)
                 << ")";
    return false;
  }
  params = std::move(env.payload);

  // Quarantine before the update can touch any FP reduction. Under a fault
  // plan quarantines are expected, so they log at DEBUG; without one a
  // quarantine means the training itself diverged.
  if (const char* reject = validator_.check(params); reject != nullptr) {
    OBS_COUNTER_ADD("fault.rejected_updates", 1);
    OBS_JOURNAL(round, client, kQuarantine, quarantine_code(reject));
    FC_LOG(faulted ? util::LogLevel::kDebug : util::LogLevel::kWarn)
        << "client " << client << " round " << round
        << ": update quarantined (" << reject << ")";
    return false;
  }
  if (encoded_out != nullptr) {
    // Bytes as the server received them (post bit-flip injection, CRC- and
    // validator-clean): exactly what int8 aggregation may consume.
    encoded_out->assign(bytes.begin() + wire::kHeaderSize, bytes.end());
  }
  OBS_JOURNAL(round, client, kDelivered);
  return true;
}

bool Federation::int8_aggregation_active() const {
  return cfg_.codec == wire::CodecId::kQInt8 && util::fast_math_kernels();
}

util::Rng Federation::train_rng(std::size_t client, std::size_t round) const {
  return util::Rng(cfg_.seed).split(0xC11E47000000ULL + client * 100003 +
                                    round);
}

std::vector<std::size_t> Federation::eval_ids() const {
  const std::size_t n = store_.size();
  if (cfg_.eval_clients == 0 || cfg_.eval_clients >= n) {
    std::vector<std::size_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = i;
    return ids;
  }
  // Fixed for the whole run, drawn from its own stream so enabling the
  // subsample cannot reshuffle sampling/training/fault draws.
  auto ids = util::Rng(cfg_.seed)
                 .split(0xE7A1C1E275ULL)
                 .sample_without_replacement(n, cfg_.eval_clients);
  std::sort(ids.begin(), ids.end());
  return ids;
}

double Federation::average_local_accuracy(
    const std::function<const std::vector<float>&(std::size_t)>& params_of) {
  // Per-client accuracies are computed (possibly in parallel) into indexed
  // slots, then reduced on one thread in ascending client order — the same
  // floating-point summation the sequential loop performed.
  const auto accs = local_accuracy_distribution(params_of);
  double sum = 0.0;
  for (const double a : accs) sum += a;
  return sum / static_cast<double>(accs.size());
}

std::vector<double> Federation::local_accuracy_distribution(
    const std::function<const std::vector<float>&(std::size_t)>& params_of) {
  const auto ids = eval_ids();
  std::vector<double> accs(ids.size());
  ParallelRoundRunner runner(*this);
  runner.for_each_index(ids.size(), [&](std::size_t idx, nn::Model& ws) {
    const std::size_t i = ids[idx];
    OBS_SPAN_ARG("client.eval", i);
    ws.set_flat_params(params_of(i));
    accs[idx] = client(i)->evaluate(ws);
    runner.journal_eval(i, accs[idx]);
  });
  return accs;
}

std::vector<float> weighted_average(
    const std::vector<std::pair<const std::vector<float>*, double>>&
        entries) {
  if (entries.empty()) {
    throw std::invalid_argument("weighted_average: no entries");
  }
  const std::size_t dim = entries.front().first->size();
  double total_weight = 0.0;
  for (const auto& [vec, w] : entries) {
    if (vec->size() != dim) {
      throw std::invalid_argument("weighted_average: length mismatch");
    }
    if (w < 0.0) {
      throw std::invalid_argument("weighted_average: negative weight");
    }
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("weighted_average: zero total weight");
  }
  // Accumulate in double: averaging ~10 vectors of ~10^5 floats.
  std::vector<double> acc(dim, 0.0);
  for (const auto& [vec, w] : entries) {
    const double f = w / total_weight;
    const auto& v = *vec;
    for (std::size_t i = 0; i < dim; ++i) acc[i] += f * v[i];
  }
  std::vector<float> out(dim);
  for (std::size_t i = 0; i < dim; ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

}  // namespace fedclust::fl

#include "fl/fault.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/journal.h"

namespace fedclust::fl {

namespace {

// Stream salts for the engine's private RNG streams. Decisions and
// corruption payloads use different salts so one cannot perturb the other.
constexpr std::uint64_t kDecisionSalt = 0xFA017DEC00000000ULL;
constexpr std::uint64_t kCorruptSalt = 0xFA017C0B00000000ULL;
constexpr std::uint64_t kClientStride = 1000003ULL;  // prime, as train_rng

void require(bool ok, const char* field, const char* rule, double v) {
  if (!ok) {
    throw std::invalid_argument(std::string("FaultPlan.") + field +
                                " must be " + rule + ", got " +
                                std::to_string(v));
  }
}

void check_prob(const char* field, double v) {
  require(v >= 0.0 && v < 1.0, field, "in [0, 1)", v);
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("FaultPlan: bad value '" + value +
                                "' for key '" + key + "'");
  }
}

// Sets field `f` from its --fault-spec value.
template <class T>
void parse_spec_value(const util::FieldInfo& f, const std::string& value,
                      T& out) {
  if constexpr (std::is_same_v<T, double>) {
    out = parse_double(f.spec_key, value);
  } else if constexpr (std::is_same_v<T, std::size_t>) {
    const double v = parse_double(f.spec_key, value);
    require(v >= 0.0 && v == std::floor(v), f.name, "a non-negative integer",
            v);
    out = static_cast<std::size_t>(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = value;
  } else if constexpr (std::is_same_v<T, std::vector<std::size_t>>) {
    std::stringstream ids(value);  // "id:id:..."
    std::string id;
    while (std::getline(ids, id, ':')) {
      if (id.empty()) continue;
      out.push_back(static_cast<std::size_t>(parse_double(f.spec_key, id)));
    }
    std::sort(out.begin(), out.end());
  } else {
    static_assert(std::is_same_v<T, bool>);  // `enabled` has no spec key
  }
}

// (spec key, value as the spec writes it) for every spec-keyed field of
// `plan`, in list order.
std::vector<std::pair<std::string, std::string>> spec_items(
    const FaultPlan& plan) {
  std::vector<std::pair<std::string, std::string>> items;
  for_each_field(plan, [&](const util::FieldInfo& f, const auto& v) {
    if (f.spec_key == nullptr) return;
    std::ostringstream os;
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                 std::vector<std::size_t>>) {
      for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ":" : "") << v[i];
    } else {
      os << v;
    }
    items.emplace_back(f.spec_key, os.str());
  });
  return items;
}

}  // namespace

bool FaultPlan::active() const {
  return enabled || pre_round_dropout > 0.0 || post_train_crash > 0.0 ||
         straggler_prob > 0.0 || transient_comm_prob > 0.0 ||
         corrupt_prob > 0.0;
}

void FaultPlan::validate() const {
  check_prob("pre_round_dropout", pre_round_dropout);
  check_prob("post_train_crash", post_train_crash);
  check_prob("straggler_prob", straggler_prob);
  check_prob("transient_comm_prob", transient_comm_prob);
  check_prob("corrupt_prob", corrupt_prob);
  require(straggler_delay >= 1.0, "straggler_delay", ">= 1", straggler_delay);
  require(explode_factor > 0.0 && std::isfinite(explode_factor),
          "explode_factor", "finite and > 0", explode_factor);
  require(round_deadline >= 0.0, "round_deadline", ">= 0", round_deadline);
  require(over_select_fraction >= 0.0, "over_select_fraction", ">= 0",
          over_select_fraction);
  require(max_update_norm >= 0.0, "max_update_norm", ">= 0",
          max_update_norm);
  require(backoff_base > 0.0 && std::isfinite(backoff_base), "backoff_base",
          "finite and > 0", backoff_base);
  require(backoff_mult >= 1.0 && std::isfinite(backoff_mult), "backoff_mult",
          "finite and >= 1", backoff_mult);
  if (corrupt_mode != "nan" && corrupt_mode != "inf" &&
      corrupt_mode != "explode" && corrupt_mode != "bitflip" &&
      corrupt_mode != "mix") {
    throw std::invalid_argument(
        "FaultPlan.corrupt_mode must be nan|inf|explode|bitflip|mix, got " +
        corrupt_mode);
  }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;  // disabled
  plan.enabled = true;

  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("FaultPlan: expected key=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    bool known = false;
    for_each_field(plan, [&](const util::FieldInfo& f, auto& field) {
      if (f.spec_key == nullptr || key != f.spec_key) return;
      parse_spec_value(f, value, field);
      known = true;
    });
    if (!known) {
      throw std::invalid_argument("FaultPlan: unknown key '" + key +
                                  "' (valid: " + spec_keys() + ")");
    }
  }
  plan.validate();
  return plan;
}

std::string FaultPlan::describe() const {
  const auto items = spec_items(*this);
  const auto defaults = spec_items(FaultPlan{});
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i] == defaults[i]) continue;
    out += (out.empty() ? "" : " ") + items[i].first + "=" + items[i].second;
  }
  if (out.empty()) return enabled ? "enabled (all-zero plan)" : "off";
  return out;
}

std::string FaultPlan::spec_keys() {
  std::string keys;
  for (const auto& item : spec_items(FaultPlan{})) {
    keys += (keys.empty() ? "" : ", ") + item.first;
  }
  return keys;
}

FaultEngine::FaultEngine(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {
  plan_.validate();
}

bool FaultEngine::applies_to(std::size_t client) const {
  if (plan_.only_clients.empty()) return true;
  return std::binary_search(plan_.only_clients.begin(),
                            plan_.only_clients.end(), client);
}

FaultDecision FaultEngine::decide(std::size_t client,
                                  std::size_t round) const {
  FaultDecision d;
  if (!active() || !applies_to(client)) return d;
  // One private stream per (client, round); every probability is resolved
  // in a fixed order so adding a consumer cannot reshuffle earlier draws.
  util::Rng rng = util::Rng(seed_).split(kDecisionSalt +
                                         client * kClientStride + round);
  d.drop_pre_round = rng.uniform() < plan_.pre_round_dropout;
  d.crash_post_train = rng.uniform() < plan_.post_train_crash;
  if (rng.uniform() < plan_.straggler_prob) {
    d.straggler = true;
    d.delay_factor = plan_.straggler_delay <= 1.0
                         ? 1.0
                         : rng.uniform(1.0, plan_.straggler_delay);
  }
  if (rng.uniform() < plan_.corrupt_prob) {
    if (plan_.corrupt_mode == "nan") {
      d.corrupt = CorruptionKind::kNan;
    } else if (plan_.corrupt_mode == "inf") {
      d.corrupt = CorruptionKind::kInf;
    } else if (plan_.corrupt_mode == "explode") {
      d.corrupt = CorruptionKind::kExplode;
    } else if (plan_.corrupt_mode == "bitflip") {
      d.corrupt = CorruptionKind::kBitFlip;
    } else {  // mix
      static constexpr CorruptionKind kinds[] = {
          CorruptionKind::kNan, CorruptionKind::kInf,
          CorruptionKind::kExplode, CorruptionKind::kBitFlip};
      d.corrupt = kinds[rng.randint(0, 4)];
    }
  }
  if (plan_.transient_comm_prob > 0.0) {
    const std::size_t cap = plan_.max_retries + 1;
    while (d.transient_failures < cap &&
           rng.uniform() < plan_.transient_comm_prob) {
      ++d.transient_failures;
    }
  }
  return d;
}

void FaultEngine::corrupt_update(std::vector<float>& params,
                                 std::size_t client, std::size_t round,
                                 CorruptionKind kind) const {
  if (kind == CorruptionKind::kNone || params.empty()) return;
  OBS_JOURNAL(round, client, kCorrupt, static_cast<std::uint64_t>(kind));
  util::Rng rng = util::Rng(seed_).split(kCorruptSalt +
                                         client * kClientStride + round);
  const auto n = static_cast<std::int64_t>(params.size());
  switch (kind) {
    case CorruptionKind::kNan:
      for (int i = 0; i < 8; ++i) {
        params[static_cast<std::size_t>(rng.randint(0, n))] =
            std::numeric_limits<float>::quiet_NaN();
      }
      break;
    case CorruptionKind::kInf:
      for (int i = 0; i < 8; ++i) {
        params[static_cast<std::size_t>(rng.randint(0, n))] =
            (i % 2 == 0) ? std::numeric_limits<float>::infinity()
                         : -std::numeric_limits<float>::infinity();
      }
      break;
    case CorruptionKind::kExplode: {
      const auto f = static_cast<float>(plan_.explode_factor);
      for (float& v : params) v *= f;
      break;
    }
    case CorruptionKind::kBitFlip:
      for (int i = 0; i < 3; ++i) {
        float& v = params[static_cast<std::size_t>(rng.randint(0, n))];
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        bits ^= 1u << static_cast<std::uint32_t>(rng.randint(0, 31));
        std::memcpy(&v, &bits, sizeof(bits));
      }
      break;
    case CorruptionKind::kNone:
      break;
  }
}

void FaultEngine::corrupt_wire(std::vector<std::uint8_t>& bytes,
                               std::size_t client, std::size_t round) const {
  if (bytes.empty()) return;
  OBS_JOURNAL(round, client, kCorrupt,
              static_cast<std::uint64_t>(CorruptionKind::kBitFlip));
  util::Rng rng = util::Rng(seed_).split(kCorruptSalt +
                                         client * kClientStride + round);
  const auto n = static_cast<std::int64_t>(bytes.size());
  for (int i = 0; i < 3; ++i) {
    std::uint8_t& b = bytes[static_cast<std::size_t>(rng.randint(0, n))];
    b = static_cast<std::uint8_t>(
        b ^ (1u << static_cast<std::uint32_t>(rng.randint(0, 8))));
  }
}

const char* UpdateValidator::check(const std::vector<float>& params) const {
  // A value is non-finite (±inf, or NaN with any payload) exactly when its
  // exponent bits are all ones. The branch-free integer scan vectorizes.
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t non_finite = 0;
  for (const float v : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    non_finite |= static_cast<std::uint32_t>((bits & kExponent) == kExponent);
  }
  if (non_finite != 0) return "non_finite";
  if (max_norm_ <= 0.0) return nullptr;
  // The exact sequential sum, so a borderline decision cannot flip.
  double sumsq = 0.0;
  for (const float v : params) sumsq += static_cast<double>(v) * v;
  return std::sqrt(sumsq) > max_norm_ ? "norm_bound" : nullptr;
}

}  // namespace fedclust::fl

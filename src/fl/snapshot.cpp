#include "fl/snapshot.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "fl/landmark.h"
#include "obs/json.h"
#include "util/cpu.h"
#include "util/fields.h"

namespace fedclust::fl {

namespace {

// ---- config fingerprint ---------------------------------------------
// FNV-1a 64 over a canonical little-endian serialization of ExperimentConfig:
// its field list (for_each_field in fl/federation.h) in list order, under
// each field's util::Fingerprint rule.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

// The encoding follows the C++ type: u64 for size_t, f32, the f64 bit
// pattern, one byte for bool and CodecId, a u64 length then the bytes of a
// string, a u64 count then each id of an id list.
struct FingerprintWriter {
  std::vector<std::uint8_t>& out;

  template <class T>
  void operator()(const util::FieldInfo& f, const T& v) const {
    if (f.fingerprint == util::Fingerprint::kNever) return;
    if constexpr (util::HasFieldList<T>) {
      for_each_field(v, *this);
    } else if (f.fingerprint == util::Fingerprint::kIfSet && v == T{}) {
      return;
    } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1);
      out.push_back(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, float>) {
      util::put_f32_le(out, v);
    } else if constexpr (std::is_same_v<T, double>) {
      util::put_f64_le(out, v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      util::put_u64_le(out, v.size());
      out.insert(out.end(), v.begin(), v.end());
    } else if constexpr (std::is_same_v<T, std::vector<std::size_t>>) {
      util::put_u64_le(out, v.size());
      for (const std::size_t id : v) util::put_u64_le(out, id);
    } else {
      static_assert(std::is_unsigned_v<T>);
      util::put_u64_le(out, v);
    }
  }
};

// ---- body (de)serialization -----------------------------------------

void write_rng_state(util::BinaryWriter& w, const util::RngState& st) {
  w.write_u64(st.seed);
  for (const std::uint64_t s : st.s) w.write_u64(s);
  w.write_u32(st.has_cached_normal ? 1u : 0u);
  w.write_f64(st.cached_normal);
}

util::RngState read_rng_state(util::BinaryReader& r) {
  util::RngState st;
  st.seed = r.read_u64();
  for (auto& s : st.s) s = r.read_u64();
  st.has_cached_normal = r.read_u32() != 0;
  st.cached_normal = r.read_f64();
  return st;
}

// The sealed file image of `snap`.
std::string seal_snapshot(const RunSnapshot& snap) {
  util::BinaryWriter w;
  w.write_u64(snap.config_fingerprint);
  w.write_u64(snap.seed);
  w.write_u64(snap.next_round);
  w.write_string(snap.method);
  w.write_string(snap.dataset);
  w.write_u64(snap.comm.bytes_up);
  w.write_u64(snap.comm.bytes_down);
  w.write_u64(snap.comm.payload_bytes);
  w.write_u64(snap.comm.wire_bytes);
  w.write_u64(snap.comm.messages);
  w.write_u64(snap.records.size());
  for (const RoundRecord& rec : snap.records) {
    w.write_u64(rec.round);
    w.write_f64(rec.avg_local_test_acc);
    w.write_u64(rec.bytes_up);
    w.write_u64(rec.bytes_down);
    w.write_u64(rec.n_clusters);
  }
  w.write_u64(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    w.write_string(name);
    w.write_u64(value);
  }
  w.write_u64(snap.rng_probes.size());
  for (const RngProbe& p : snap.rng_probes) {
    w.write_string(p.name);
    write_rng_state(w, p.state);
  }
  w.write_u64(snap.algo_state.size());
  w.write_bytes(snap.algo_state.data(), snap.algo_state.size());
  return util::seal(kSnapshotMagic, kSnapshotVersion, w.view());
}

// The least bytes each counted item of the body takes, so a count the
// remaining body cannot hold is refused before anything is reserved: a
// record is five 8-byte fields, a counter a string length and a value, a
// probe a string length and the 52-byte RngState.
constexpr std::size_t kRecordBytes = 5 * 8;
constexpr std::size_t kCounterBytes = 8 + 8;
constexpr std::size_t kProbeBytes = 8 + 52;

RunSnapshot parse_body(std::string_view body) {
  util::BinaryReader r(body);
  RunSnapshot snap;
  snap.config_fingerprint = r.read_u64();
  snap.seed = r.read_u64();
  snap.next_round = r.read_u64();
  snap.method = r.read_string();
  snap.dataset = r.read_string();
  snap.comm.bytes_up = r.read_u64();
  snap.comm.bytes_down = r.read_u64();
  snap.comm.payload_bytes = r.read_u64();
  snap.comm.wire_bytes = r.read_u64();
  snap.comm.messages = r.read_u64();
  const std::uint64_t n_records = r.read_count(kRecordBytes);
  snap.records.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    RoundRecord rec;
    rec.round = r.read_u64();
    rec.avg_local_test_acc = r.read_f64();
    rec.bytes_up = r.read_u64();
    rec.bytes_down = r.read_u64();
    rec.n_clusters = r.read_u64();
    snap.records.push_back(rec);
  }
  const std::uint64_t n_counters = r.read_count(kCounterBytes);
  snap.counters.reserve(n_counters);
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    std::string name = r.read_string();
    const std::uint64_t value = r.read_u64();
    snap.counters.emplace_back(std::move(name), value);
  }
  const std::uint64_t n_probes = r.read_count(kProbeBytes);
  snap.rng_probes.reserve(n_probes);
  for (std::uint64_t i = 0; i < n_probes; ++i) {
    RngProbe p;
    p.name = r.read_string();
    p.state = read_rng_state(r);
    snap.rng_probes.push_back(std::move(p));
  }
  snap.algo_state = r.read_bytes(r.read_u64());
  if (!r.done()) {
    throw std::runtime_error(std::to_string(r.remaining()) +
                             " bytes after the algorithm state");
  }
  return snap;
}

// Checks the frame, then parses the body; both kinds of rejection surface
// as SnapshotError.
RunSnapshot parse_sealed(std::string_view file) {
  std::string_view body;
  try {
    body = util::unseal(file, kSnapshotMagic, kSnapshotVersion);
  } catch (const std::runtime_error& e) {
    throw SnapshotError(std::string("snapshot ") + e.what());
  }
  try {
    return parse_body(body);
  } catch (const std::runtime_error& e) {
    // CRC-valid bytes that still fail to parse mean a writer bug or a
    // crafted file, not disk corruption, but the caller's handling is the
    // same.
    throw SnapshotError(std::string("snapshot body malformed: ") + e.what());
  }
}

// Runs a util::read_file / util::write_file call, rethrowing its failure as
// the SnapshotError every snapshot caller handles.
template <class F>
auto as_snapshot_error(F&& io) {
  try {
    return io();
  } catch (const std::runtime_error& e) {
    throw SnapshotError(e.what());
  }
}

// ---- manifest helpers -----------------------------------------------

std::string jstr(const std::string& s) {
  return '"' + obs::json::escape(s) + '"';
}

// JSON has no inf/nan literals, so non-finite values are written as strings.
std::string jnum(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return std::isfinite(v) ? os.str() : jstr(os.str());
}

// Writes a field list as the members of a JSON object, one per line,
// nested groups as nested objects.
class JsonFields {
 public:
  JsonFields(std::ostream& os, std::size_t indent)
      : os_(os), pad_(indent, ' ') {}

  template <class T>
  void operator()(const util::FieldInfo& f, const T& v) {
    if (f.fingerprint == util::Fingerprint::kRetired) return;
    os_ << (first_ ? "" : ",\n") << pad_ << jstr(f.name) << ": ";
    first_ = false;
    if constexpr (util::HasFieldList<T>) {
      os_ << "{\n";
      for_each_field(v, JsonFields(os_, pad_.size() + 2));
      os_ << "\n" << pad_ << "}";
    } else if constexpr (std::is_same_v<T, bool>) {
      os_ << (v ? "true" : "false");
    } else if constexpr (std::is_same_v<T, wire::CodecId>) {
      os_ << jstr(wire::codec_name(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      os_ << jnum(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      os_ << jstr(v);
    } else if constexpr (std::is_same_v<T, std::vector<std::size_t>>) {
      os_ << "[";
      for (std::size_t i = 0; i < v.size(); ++i) os_ << (i ? ", " : "") << v[i];
      os_ << "]";
    } else {
      os_ << v;
    }
  }

 private:
  std::ostream& os_;
  std::string pad_;
  bool first_ = true;
};

}  // namespace

std::uint64_t config_fingerprint(const ExperimentConfig& cfg) {
  std::vector<std::uint8_t> bytes;
  for_each_field(cfg, FingerprintWriter{bytes});
  return fnv1a64(bytes);
}

std::vector<RngProbe> rng_probes_for(const ExperimentConfig& cfg) {
  // The streams sample_round, train_rng and sample_landmarks split off: a
  // resumed binary whose splits land elsewhere would silently diverge, so
  // these states are compared bit for bit on resume.
  const util::Rng root(cfg.seed);
  std::vector<RngProbe> probes;
  probes.push_back({"root", root.state()});
  probes.push_back({"sampler.r0", root.split(kSamplerStream).state()});
  probes.push_back({"train.c0.r0", root.split(kTrainStream).state()});
  // Probed only when landmark mode is on, so exact-mode snapshots keep their
  // pre-landmark byte layout.
  if (cfg.landmarks > 0) {
    probes.push_back({"landmark", root.split(kLandmarkStream).state()});
  }
  return probes;
}

std::vector<std::uint8_t> serialize_snapshot(const RunSnapshot& snap) {
  const std::string file = seal_snapshot(snap);
  return {file.begin(), file.end()};
}

RunSnapshot parse_snapshot(const std::vector<std::uint8_t>& bytes) {
  return parse_sealed(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

void write_snapshot(const RunSnapshot& snap, const std::string& path) {
  const std::string file = seal_snapshot(snap);
  as_snapshot_error([&] { util::write_file(path, file); });
}

RunSnapshot load_snapshot(const std::string& path) {
  return parse_sealed(as_snapshot_error([&] { return util::read_file(path); }));
}

std::string snapshot_filename(std::uint64_t next_round) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snapshot-%06llu.fcsnap",
                static_cast<unsigned long long>(next_round));
  return buf;
}

// ---- manifest --------------------------------------------------------

std::string build_git_describe() {
#ifdef FEDCLUST_GIT_DESCRIBE
  return FEDCLUST_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string manifest_json(const ExperimentConfig& cfg,
                          const std::string& method) {
#ifdef FEDCLUST_BUILD_FLAGS
  const std::string build_flags = FEDCLUST_BUILD_FLAGS;
#else
  const std::string build_flags = "unknown";
#endif
  const char* threads_env = std::getenv("FEDCLUST_THREADS");
  const std::string threads = threads_env ? threads_env : "";

  char fp_hex[24];
  std::snprintf(fp_hex, sizeof(fp_hex), "0x%016llx",
                static_cast<unsigned long long>(config_fingerprint(cfg)));

  std::ostringstream os;
  os << "{\n";
  JsonFields top(os, 2);
  top({"manifest_version"}, 1);
  top({"method"}, method);
  top({"config_fingerprint"}, std::string(fp_hex));
  top({"seed"}, cfg.seed);
  top({"codec"}, cfg.codec);
  top({"fault_spec"}, cfg.fault.describe());
  top({"git_describe"}, build_git_describe());
  top({"build_flags"}, build_flags);
  top({"fedclust_threads"}, threads);
  os << ",\n  \"kernels\": {\n";
  JsonFields kernels(os, 4);
  kernels({"isa"}, std::string(util::isa_name(util::active_isa())));
  kernels({"fast_math"}, util::fast_math_kernels());
  os << "\n  }";
  top({"config"}, cfg);
  os << "\n}\n";
  return os.str();
}

void write_manifest(const ExperimentConfig& cfg, const std::string& method,
                    const std::string& dir) {
  const std::string json = manifest_json(cfg, method);
  as_snapshot_error([&] { util::write_file(dir + "/manifest.json", json); });
}

// ---- shared save_state/load_state helpers ---------------------------
// Each item the readers count is, or starts with, a u64.

void write_nested_f32(util::BinaryWriter& w,
                      const std::vector<std::vector<float>>& v) {
  w.write_u64(v.size());
  for (const auto& inner : v) w.write_f32_vec(inner);
}

std::vector<std::vector<float>> read_nested_f32(util::BinaryReader& r) {
  const std::uint64_t n = r.read_count(sizeof(std::uint64_t));
  std::vector<std::vector<float>> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.read_f32_vec());
  return v;
}

void write_index_vec(util::BinaryWriter& w,
                     const std::vector<std::size_t>& v) {
  w.write_u64(v.size());
  for (const std::size_t x : v) w.write_u64(x);
}

std::vector<std::size_t> read_index_vec(util::BinaryReader& r) {
  const std::uint64_t n = r.read_count(sizeof(std::uint64_t));
  std::vector<std::size_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v.push_back(static_cast<std::size_t>(r.read_u64()));
  }
  return v;
}

void write_tensor(util::BinaryWriter& w, const tensor::Tensor& t) {
  w.write_u64(t.shape().size());
  for (const std::size_t d : t.shape()) w.write_u64(d);
  w.write_f32_vec(t.vec());
}

tensor::Tensor read_tensor(util::BinaryReader& r) {
  const std::uint64_t ndim = r.read_count(sizeof(std::uint64_t));
  tensor::Shape shape;
  shape.reserve(ndim);
  for (std::uint64_t i = 0; i < ndim; ++i) {
    shape.push_back(static_cast<std::size_t>(r.read_u64()));
  }
  std::vector<float> data = r.read_f32_vec();
  return tensor::Tensor(std::move(shape), std::move(data));
}

}  // namespace fedclust::fl

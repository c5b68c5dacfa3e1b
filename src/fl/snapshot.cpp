#include "fl/snapshot.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/cpu.h"

namespace fedclust::fl {

namespace {

// ---- config fingerprint ---------------------------------------------
// FNV-1a 64 over a canonical little-endian serialization of every field
// that shapes the trajectory. Field order is append order below; adding a
// config field without appending it here silently weakens resume safety,
// so keep this list in sync with ExperimentConfig.

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

void put_f64_bits(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  util::put_u64_le(out, bits);
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  util::put_u64_le(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> canonical_config_bytes(const ExperimentConfig& c) {
  std::vector<std::uint8_t> b;
  // data_spec
  put_str(b, c.data_spec.name);
  util::put_u64_le(b, c.data_spec.channels);
  util::put_u64_le(b, c.data_spec.hw);
  util::put_u64_le(b, c.data_spec.num_classes);
  util::put_u64_le(b, c.data_spec.dict_size);
  util::put_u64_le(b, c.data_spec.atoms_per_class);
  util::put_u64_le(b, c.data_spec.prototypes_per_class);
  util::put_f32_le(b, c.data_spec.coeff_jitter);
  util::put_f32_le(b, c.data_spec.proto_scale);
  util::put_f32_le(b, c.data_spec.noise);
  util::put_f32_le(b, c.data_spec.grating_scale);
  // fed
  util::put_u64_le(b, c.fed.n_clients);
  util::put_u64_le(b, c.fed.train_per_client);
  util::put_u64_le(b, c.fed.test_per_client);
  put_f64_bits(b, c.fed.quantity_skew_factor);
  put_str(b, c.fed.partition);
  put_f64_bits(b, c.fed.skew_fraction);
  put_f64_bits(b, c.fed.dirichlet_alpha);
  util::put_u64_le(b, c.fed.label_set_pool);
  // model
  put_str(b, c.model.arch);
  util::put_u64_le(b, c.model.in_channels);
  util::put_u64_le(b, c.model.image_hw);
  util::put_u64_le(b, c.model.num_classes);
  util::put_u64_le(b, c.model.width);
  // local
  util::put_u64_le(b, c.local.epochs);
  util::put_u64_le(b, c.local.batch_size);
  util::put_f32_le(b, c.local.lr);
  util::put_f32_le(b, c.local.momentum);
  util::put_f32_le(b, c.local.weight_decay);
  util::put_f32_le(b, c.local.clip_grad_norm);
  util::put_f32_le(b, c.local.prox_mu);
  // algo
  util::put_f32_le(b, c.algo.prox_mu);
  util::put_u64_le(b, c.algo.lg_global_params);
  util::put_f32_le(b, c.algo.perfedavg_alpha);
  util::put_f32_le(b, c.algo.perfedavg_beta);
  util::put_u64_le(b, c.algo.perfedavg_eval_epochs);
  util::put_f32_le(b, c.algo.cfl_eps1);
  util::put_f32_le(b, c.algo.cfl_eps2);
  util::put_u64_le(b, c.algo.ifca_k);
  util::put_u64_le(b, c.algo.pacfl_p);
  util::put_f32_le(b, c.algo.pacfl_threshold_deg);
  util::put_u64_le(b, c.algo.pacfl_k);
  util::put_f32_le(b, c.algo.fedclust_lambda);
  util::put_u64_le(b, c.algo.fedclust_k);
  put_str(b, c.algo.fedclust_linkage);
  put_str(b, c.algo.fedclust_distance);
  util::put_u64_le(b, c.algo.fedclust_init_epochs);
  util::put_f32_le(b, c.algo.fedclust_init_lr);
  // run shape
  util::put_u64_le(b, c.rounds);
  put_f64_bits(b, c.sample_fraction);
  util::put_u64_le(b, c.eval_every);
  // Slot of the removed legacy dropout knob (now fault.pre_round_dropout),
  // kept at its old default so existing snapshots keep their fingerprint.
  put_f64_bits(b, 0.0);
  // fault plan
  put_f64_bits(b, c.fault.pre_round_dropout);
  put_f64_bits(b, c.fault.post_train_crash);
  put_f64_bits(b, c.fault.straggler_prob);
  put_f64_bits(b, c.fault.straggler_delay);
  put_f64_bits(b, c.fault.transient_comm_prob);
  put_f64_bits(b, c.fault.corrupt_prob);
  put_str(b, c.fault.corrupt_mode);
  put_f64_bits(b, c.fault.explode_factor);
  put_f64_bits(b, c.fault.round_deadline);
  util::put_u64_le(b, c.fault.max_retries);
  put_f64_bits(b, c.fault.backoff_base);
  put_f64_bits(b, c.fault.backoff_mult);
  put_f64_bits(b, c.fault.over_select_fraction);
  put_f64_bits(b, c.fault.max_update_norm);
  util::put_u64_le(b, c.fault.only_clients.size());
  for (const std::size_t id : c.fault.only_clients) util::put_u64_le(b, id);
  b.push_back(c.fault.enabled ? 1 : 0);
  // wire + seed
  b.push_back(static_cast<std::uint8_t>(c.codec));
  util::put_u64_le(b, c.seed);
  // eval_clients changes every recorded accuracy, so it fingerprints;
  // virtual_clients/client_cache are deliberately absent — like
  // FEDCLUST_THREADS they are perf dials that must not change results.
  util::put_u64_le(b, c.eval_clients);
  // Landmark clustering changes the partition and thus the trajectory, so
  // it fingerprints — but only when active: landmarks == 0 is byte-for-byte
  // the exact-path config it always was, so --landmarks=0 runs (and their
  // snapshots) stay bit-compatible with pre-landmark builds.
  if (c.landmarks > 0) util::put_u64_le(b, c.landmarks);
  return b;
}

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

std::string serialize_body(const RunSnapshot& snap) {
  std::ostringstream os(std::ios::binary);
  util::BinaryWriter w(os);
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
  return os.str();
}

RunSnapshot parse_body(const std::string& body) {
  std::istringstream is(body, std::ios::binary);
  util::BinaryReader r(is);
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
  const std::uint64_t n_records = r.read_u64();
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
  const std::uint64_t n_counters = r.read_u64();
  snap.counters.reserve(n_counters);
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    std::string name = r.read_string();
    const std::uint64_t value = r.read_u64();
    snap.counters.emplace_back(std::move(name), value);
  }
  const std::uint64_t n_probes = r.read_u64();
  snap.rng_probes.reserve(n_probes);
  for (std::uint64_t i = 0; i < n_probes; ++i) {
    RngProbe p;
    p.name = r.read_string();
    p.state = read_rng_state(r);
    snap.rng_probes.push_back(std::move(p));
  }
  const std::uint64_t n_state = r.read_u64();
  snap.algo_state = r.read_bytes(n_state);
  return snap;
}

// ---- manifest helpers -----------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jstr(const std::string& s) { return "\"" + json_escape(s) + "\""; }

std::string jnum(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::uint64_t config_fingerprint(const ExperimentConfig& cfg) {
  return fnv1a64(canonical_config_bytes(cfg));
}

std::vector<RngProbe> rng_probes_for(const ExperimentConfig& cfg) {
  // Mirrors the stream-split constants in federation.cpp (sample_round and
  // train_rng): a resumed binary whose splits land elsewhere would silently
  // diverge, so these states are compared bit for bit on resume.
  const util::Rng root(cfg.seed);
  std::vector<RngProbe> probes;
  probes.push_back({"root", root.state()});
  probes.push_back({"sampler.r0", root.split(0xA11CE000ULL).state()});
  probes.push_back({"train.c0.r0", root.split(0xC11E47000000ULL).state()});
  // fl/landmark.h kLandmarkStream — the landmark-id sampling stream. Probed
  // only when landmark mode is on, so exact-mode snapshots keep their
  // pre-landmark byte layout.
  if (cfg.landmarks > 0) {
    probes.push_back({"landmark", root.split(0x1A7DB4A2C5EEDULL).state()});
  }
  return probes;
}

std::vector<std::uint8_t> serialize_snapshot(const RunSnapshot& snap) {
  const std::string body = serialize_body(snap);
  std::vector<std::uint8_t> out;
  out.reserve(kSnapshotHeaderBytes + body.size());
  util::put_u32_le(out, kSnapshotMagic);
  util::put_u16_le(out, kSnapshotVersion);
  util::put_u16_le(out, 0);  // reserved
  util::put_u64_le(out, body.size());
  util::put_u32_le(
      out, util::crc32c(reinterpret_cast<const std::uint8_t*>(body.data()),
                        body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

RunSnapshot parse_snapshot(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    throw SnapshotError("snapshot truncated: " + std::to_string(bytes.size()) +
                        " bytes is smaller than the header");
  }
  const std::uint8_t* p = bytes.data();
  if (util::get_u32_le(p) != kSnapshotMagic) {
    throw SnapshotError("snapshot magic mismatch (not a snapshot file?)");
  }
  const std::uint16_t version = util::get_u16_le(p + 4);
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version));
  }
  // Reserved must be zero so every header bit is validated — a single bit
  // flip anywhere in the file is rejected (snapshot_test flips each one).
  if (util::get_u16_le(p + 6) != 0) {
    throw SnapshotError("snapshot reserved field is non-zero");
  }
  const std::uint64_t body_len = util::get_u64_le(p + 8);
  if (bytes.size() != kSnapshotHeaderBytes + body_len) {
    throw SnapshotError(
        "snapshot length mismatch: header declares " +
        std::to_string(body_len) + " body bytes, file carries " +
        std::to_string(bytes.size() - kSnapshotHeaderBytes));
  }
  const std::uint32_t want_crc = util::get_u32_le(p + 16);
  const std::uint32_t got_crc =
      util::crc32c(p + kSnapshotHeaderBytes, body_len);
  if (want_crc != got_crc) {
    throw SnapshotError("snapshot body CRC mismatch: file corrupt");
  }
  try {
    return parse_body(std::string(
        reinterpret_cast<const char*>(p + kSnapshotHeaderBytes), body_len));
  } catch (const std::runtime_error& e) {
    // CRC-valid bytes that still fail to parse mean a writer bug, not disk
    // corruption, but the caller's handling is the same.
    throw SnapshotError(std::string("snapshot body malformed: ") + e.what());
  }
}

void write_snapshot(const RunSnapshot& snap, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snap);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw SnapshotError("cannot open for write: " + tmp);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) throw SnapshotError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SnapshotError("cannot rename " + tmp + " -> " + path);
  }
}

RunSnapshot load_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SnapshotError("cannot open snapshot: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  return parse_snapshot(bytes);
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
  const std::string git_describe = build_git_describe();
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
  os << "  \"manifest_version\": 1,\n";
  os << "  \"method\": " << jstr(method) << ",\n";
  os << "  \"config_fingerprint\": " << jstr(fp_hex) << ",\n";
  os << "  \"seed\": " << cfg.seed << ",\n";
  os << "  \"codec\": " << jstr(wire::codec_name(cfg.codec)) << ",\n";
  os << "  \"fault_spec\": " << jstr(cfg.fault.describe()) << ",\n";
  os << "  \"git_describe\": " << jstr(git_describe) << ",\n";
  os << "  \"build_flags\": " << jstr(build_flags) << ",\n";
  os << "  \"fedclust_threads\": " << jstr(threads) << ",\n";
  os << "  \"kernels\": {\n";
  os << "    \"isa\": " << jstr(util::isa_name(util::active_isa())) << ",\n";
  os << "    \"fast_math\": "
     << (util::fast_math_kernels() ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"config\": {\n";
  os << "    \"data\": {\n";
  os << "      \"name\": " << jstr(cfg.data_spec.name) << ",\n";
  os << "      \"channels\": " << cfg.data_spec.channels << ",\n";
  os << "      \"hw\": " << cfg.data_spec.hw << ",\n";
  os << "      \"num_classes\": " << cfg.data_spec.num_classes << ",\n";
  os << "      \"dict_size\": " << cfg.data_spec.dict_size << ",\n";
  os << "      \"atoms_per_class\": " << cfg.data_spec.atoms_per_class
     << ",\n";
  os << "      \"prototypes_per_class\": "
     << cfg.data_spec.prototypes_per_class << ",\n";
  os << "      \"coeff_jitter\": " << jnum(cfg.data_spec.coeff_jitter)
     << ",\n";
  os << "      \"proto_scale\": " << jnum(cfg.data_spec.proto_scale) << ",\n";
  os << "      \"noise\": " << jnum(cfg.data_spec.noise) << ",\n";
  os << "      \"grating_scale\": " << jnum(cfg.data_spec.grating_scale)
     << "\n";
  os << "    },\n";
  os << "    \"federation\": {\n";
  os << "      \"n_clients\": " << cfg.fed.n_clients << ",\n";
  os << "      \"train_per_client\": " << cfg.fed.train_per_client << ",\n";
  os << "      \"test_per_client\": " << cfg.fed.test_per_client << ",\n";
  os << "      \"quantity_skew_factor\": "
     << jnum(cfg.fed.quantity_skew_factor) << ",\n";
  os << "      \"partition\": " << jstr(cfg.fed.partition) << ",\n";
  os << "      \"skew_fraction\": " << jnum(cfg.fed.skew_fraction) << ",\n";
  os << "      \"dirichlet_alpha\": " << jnum(cfg.fed.dirichlet_alpha)
     << ",\n";
  os << "      \"label_set_pool\": " << cfg.fed.label_set_pool << "\n";
  os << "    },\n";
  os << "    \"model\": {\n";
  os << "      \"arch\": " << jstr(cfg.model.arch) << ",\n";
  os << "      \"in_channels\": " << cfg.model.in_channels << ",\n";
  os << "      \"image_hw\": " << cfg.model.image_hw << ",\n";
  os << "      \"num_classes\": " << cfg.model.num_classes << ",\n";
  os << "      \"width\": " << cfg.model.width << "\n";
  os << "    },\n";
  os << "    \"local\": {\n";
  os << "      \"epochs\": " << cfg.local.epochs << ",\n";
  os << "      \"batch_size\": " << cfg.local.batch_size << ",\n";
  os << "      \"lr\": " << jnum(cfg.local.lr) << ",\n";
  os << "      \"momentum\": " << jnum(cfg.local.momentum) << ",\n";
  os << "      \"weight_decay\": " << jnum(cfg.local.weight_decay) << ",\n";
  os << "      \"clip_grad_norm\": " << jnum(cfg.local.clip_grad_norm)
     << ",\n";
  os << "      \"prox_mu\": " << jnum(cfg.local.prox_mu) << "\n";
  os << "    },\n";
  os << "    \"algo\": {\n";
  os << "      \"prox_mu\": " << jnum(cfg.algo.prox_mu) << ",\n";
  os << "      \"lg_global_params\": " << cfg.algo.lg_global_params << ",\n";
  os << "      \"perfedavg_alpha\": " << jnum(cfg.algo.perfedavg_alpha)
     << ",\n";
  os << "      \"perfedavg_beta\": " << jnum(cfg.algo.perfedavg_beta)
     << ",\n";
  os << "      \"perfedavg_eval_epochs\": " << cfg.algo.perfedavg_eval_epochs
     << ",\n";
  os << "      \"cfl_eps1\": " << jnum(cfg.algo.cfl_eps1) << ",\n";
  os << "      \"cfl_eps2\": " << jnum(cfg.algo.cfl_eps2) << ",\n";
  os << "      \"ifca_k\": " << cfg.algo.ifca_k << ",\n";
  os << "      \"pacfl_p\": " << cfg.algo.pacfl_p << ",\n";
  os << "      \"pacfl_threshold_deg\": "
     << jnum(cfg.algo.pacfl_threshold_deg) << ",\n";
  os << "      \"pacfl_k\": " << cfg.algo.pacfl_k << ",\n";
  os << "      \"fedclust_lambda\": " << jnum(cfg.algo.fedclust_lambda)
     << ",\n";
  os << "      \"fedclust_k\": " << cfg.algo.fedclust_k << ",\n";
  os << "      \"fedclust_linkage\": " << jstr(cfg.algo.fedclust_linkage)
     << ",\n";
  os << "      \"fedclust_distance\": " << jstr(cfg.algo.fedclust_distance)
     << ",\n";
  os << "      \"fedclust_init_epochs\": " << cfg.algo.fedclust_init_epochs
     << ",\n";
  os << "      \"fedclust_init_lr\": " << jnum(cfg.algo.fedclust_init_lr)
     << "\n";
  os << "    },\n";
  os << "    \"rounds\": " << cfg.rounds << ",\n";
  os << "    \"sample_fraction\": " << jnum(cfg.sample_fraction) << ",\n";
  os << "    \"eval_every\": " << cfg.eval_every << ",\n";
  os << "    \"virtual_clients\": "
     << (cfg.virtual_clients ? "true" : "false") << ",\n";
  os << "    \"client_cache\": " << cfg.client_cache << ",\n";
  os << "    \"eval_clients\": " << cfg.eval_clients << ",\n";
  os << "    \"landmarks\": " << cfg.landmarks << "\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

void write_manifest(const ExperimentConfig& cfg, const std::string& method,
                    const std::string& dir) {
  const std::string path = dir + "/manifest.json";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw SnapshotError("cannot open for write: " + tmp);
    os << manifest_json(cfg, method);
    os.flush();
    if (!os) throw SnapshotError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SnapshotError("cannot rename " + tmp + " -> " + path);
  }
}

// ---- shared save_state/load_state helpers ---------------------------

void write_nested_f32(util::BinaryWriter& w,
                      const std::vector<std::vector<float>>& v) {
  w.write_u64(v.size());
  for (const auto& inner : v) w.write_f32_vec(inner);
}

std::vector<std::vector<float>> read_nested_f32(util::BinaryReader& r) {
  const std::uint64_t n = r.read_u64();
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
  const std::uint64_t n = r.read_u64();
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
  const std::uint64_t ndim = r.read_u64();
  tensor::Shape shape;
  shape.reserve(ndim);
  for (std::uint64_t i = 0; i < ndim; ++i) {
    shape.push_back(static_cast<std::size_t>(r.read_u64()));
  }
  std::vector<float> data = r.read_f32_vec();
  return tensor::Tensor(std::move(shape), std::move(data));
}

}  // namespace fedclust::fl

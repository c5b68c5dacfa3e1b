#include "net/message.h"

#include <stdexcept>
#include <type_traits>

#include "util/fields.h"
#include "util/serialization.h"

namespace fedclust::net {

namespace {

using util::BinaryReader;
using util::BinaryWriter;

// A writer holding the body's type byte.
BinaryWriter start(MsgType type) {
  BinaryWriter w;
  w.write_u8(static_cast<std::uint8_t>(type));
  return w;
}

// Blobs and strings carry a u32 length.
void write_blob(BinaryWriter& w, const std::vector<std::uint8_t>& blob) {
  w.write_u32(static_cast<std::uint32_t>(blob.size()));
  w.write_bytes(blob.data(), blob.size());
}

std::vector<std::uint8_t> read_blob(BinaryReader& r) {
  return r.read_bytes(r.read_u32());
}

// The net RngState encoding (a u8 flag; snapshots use a u32 one).
void write_rng(BinaryWriter& w, const util::RngState& st) {
  w.write_u64(st.seed);
  for (int i = 0; i < 4; ++i) w.write_u64(st.s[i]);
  w.write_u8(st.has_cached_normal ? 1 : 0);
  w.write_f64(st.cached_normal);
}

void read_rng(BinaryReader& r, util::RngState& st) {
  st.seed = r.read_u64();
  for (int i = 0; i < 4; ++i) st.s[i] = r.read_u64();
  st.has_cached_normal = r.read_u8() != 0;
  st.cached_normal = r.read_f64();
}

// Parses a `type` body with `fields`: false when the type byte differs, a
// read runs past the body or a length overruns it, `fields` returns false,
// or bytes are left over.
template <class Fields>
bool decode(const std::vector<std::uint8_t>& body, MsgType type,
            Fields&& fields) {
  BinaryReader r(body);
  try {
    return r.read_u8() == static_cast<std::uint8_t>(type) && fields(r) &&
           r.done();
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace

std::optional<MsgType> peek_type(const std::vector<std::uint8_t>& body) {
  if (body.empty()) return std::nullopt;
  const std::uint8_t t = body[0];
  if (t < static_cast<std::uint8_t>(MsgType::kHello) ||
      t > static_cast<std::uint8_t>(MsgType::kError)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(t);
}

std::vector<std::uint8_t> encode_hello(const HelloMsg& m) {
  BinaryWriter w = start(MsgType::kHello);
  w.write_u16(m.proto);
  w.write_u64(m.fingerprint);
  w.write_u64(m.seed);
  w.write_u64(m.resume_round);
  w.write_u64(m.calls_served);
  return w.take();
}

bool decode_hello(const std::vector<std::uint8_t>& body, HelloMsg& out) {
  return decode(body, MsgType::kHello, [&](BinaryReader& r) {
    out.proto = r.read_u16();
    out.fingerprint = r.read_u64();
    out.seed = r.read_u64();
    out.resume_round = r.read_u64();
    out.calls_served = r.read_u64();
    return true;
  });
}

std::vector<std::uint8_t> encode_welcome(const WelcomeMsg& m) {
  BinaryWriter w = start(MsgType::kWelcome);
  w.write_u32(m.worker_id);
  w.write_u64(m.next_round);
  w.write_u32(m.n_workers);
  return w.take();
}

bool decode_welcome(const std::vector<std::uint8_t>& body, WelcomeMsg& out) {
  return decode(body, MsgType::kWelcome, [&](BinaryReader& r) {
    out.worker_id = r.read_u32();
    out.next_round = r.read_u64();
    out.n_workers = r.read_u32();
    return true;
  });
}

std::vector<std::uint8_t> encode_train_req(const TrainReqMsg& m) {
  BinaryWriter w = start(MsgType::kTrainReq);
  w.write_u64(m.client);
  w.write_u64(m.round);
  fl::for_each_field(m.opts, [&](const util::FieldInfo&, const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, float>) {
      w.write_f32(v);
    } else {
      static_assert(std::is_same_v<std::decay_t<decltype(v)>, std::size_t>);
      w.write_u64(v);
    }
  });
  write_rng(w, m.rng);
  std::uint8_t flags = 0;
  if (m.prox_env) flags |= 1u;
  if (m.offset_env) flags |= 2u;
  w.write_u8(flags);
  write_blob(w, m.start_env);
  if (m.prox_env) write_blob(w, *m.prox_env);
  if (m.offset_env) write_blob(w, *m.offset_env);
  return w.take();
}

bool decode_train_req(const std::vector<std::uint8_t>& body,
                      TrainReqMsg& out) {
  return decode(body, MsgType::kTrainReq, [&](BinaryReader& r) {
    out.client = r.read_u64();
    out.round = r.read_u64();
    fl::for_each_field(out.opts, [&](const util::FieldInfo&, auto& v) {
      if constexpr (std::is_same_v<std::decay_t<decltype(v)>, float>) {
        v = r.read_f32();
      } else {
        static_assert(std::is_same_v<std::decay_t<decltype(v)>, std::size_t>);
        v = static_cast<std::size_t>(r.read_u64());
      }
    });
    read_rng(r, out.rng);
    const std::uint8_t flags = r.read_u8();
    if (flags & ~3u) return false;
    out.start_env = read_blob(r);
    out.prox_env.reset();
    out.offset_env.reset();
    if (flags & 1u) out.prox_env = read_blob(r);
    if (flags & 2u) out.offset_env = read_blob(r);
    return true;
  });
}

std::vector<std::uint8_t> encode_train_resp(const TrainRespMsg& m) {
  BinaryWriter w = start(MsgType::kTrainResp);
  w.write_u64(m.client);
  w.write_u64(m.round);
  w.write_u8(m.ok ? 1 : 0);
  w.write_f32(m.loss);
  w.write_u64(m.train_us);
  if (m.ok) write_blob(w, m.params_env);
  return w.take();
}

bool decode_train_resp(const std::vector<std::uint8_t>& body,
                       TrainRespMsg& out) {
  return decode(body, MsgType::kTrainResp, [&](BinaryReader& r) {
    out.client = r.read_u64();
    out.round = r.read_u64();
    out.ok = r.read_u8() != 0;
    out.loss = r.read_f32();
    out.train_us = r.read_u64();
    out.params_env.clear();
    if (out.ok) out.params_env = read_blob(r);
    return true;
  });
}

std::vector<std::uint8_t> encode_heartbeat(const HeartbeatMsg& m) {
  BinaryWriter w = start(MsgType::kHeartbeat);
  w.write_u32(m.worker_id);
  w.write_u64(m.calls_served);
  return w.take();
}

bool decode_heartbeat(const std::vector<std::uint8_t>& body,
                      HeartbeatMsg& out) {
  return decode(body, MsgType::kHeartbeat, [&](BinaryReader& r) {
    out.worker_id = r.read_u32();
    out.calls_served = r.read_u64();
    return true;
  });
}

std::vector<std::uint8_t> encode_shutdown() {
  return {static_cast<std::uint8_t>(MsgType::kShutdown)};
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& m) {
  BinaryWriter w = start(MsgType::kError);
  w.write_u32(m.code);
  write_blob(w, {m.reason.begin(), m.reason.end()});
  return w.take();
}

bool decode_error(const std::vector<std::uint8_t>& body, ErrorMsg& out) {
  return decode(body, MsgType::kError, [&](BinaryReader& r) {
    out.code = r.read_u32();
    const std::vector<std::uint8_t> reason = read_blob(r);
    out.reason.assign(reason.begin(), reason.end());
    return true;
  });
}

}  // namespace fedclust::net

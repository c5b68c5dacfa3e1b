#include "net/message.h"

#include <cstring>
#include <type_traits>

#include "util/fields.h"
#include "util/serialization.h"

namespace fedclust::net {

namespace {

using util::get_f32_le;
using util::get_u16_le;
using util::get_u32_le;
using util::get_u64_le;
using util::put_f32_le;
using util::put_f64_le;
using util::put_u16_le;
using util::put_u32_le;
using util::put_u64_le;

// Sequential bounds-checked reader over a message body. Any out-of-range
// read trips `ok` and subsequent reads return zeros; callers check ok()
// once at the end (plus done() to reject trailing garbage).
class Cursor {
 public:
  explicit Cursor(const std::vector<std::uint8_t>& body)
      : p_(body.data()), n_(body.size()) {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p_[off_ - 1];
  }
  std::uint16_t u16() { return take(2) ? get_u16_le(p_ + off_ - 2) : 0; }
  std::uint32_t u32() { return take(4) ? get_u32_le(p_ + off_ - 4) : 0; }
  std::uint64_t u64() { return take(8) ? get_u64_le(p_ + off_ - 8) : 0; }
  float f32() { return take(4) ? get_f32_le(p_ + off_ - 4) : 0.0f; }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Length-prefixed byte blob (u32 length). Rejects lengths that overrun
  // the remaining body.
  bool blob(std::vector<std::uint8_t>& out) {
    const std::uint32_t len = u32();
    if (!ok_ || len > n_ - off_) {
      ok_ = false;
      return false;
    }
    out.assign(p_ + off_, p_ + off_ + len);
    off_ += len;
    return true;
  }

  bool str(std::string& out) {
    const std::uint32_t len = u32();
    if (!ok_ || len > n_ - off_) {
      ok_ = false;
      return false;
    }
    out.assign(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return true;
  }

  bool ok() const { return ok_; }
  bool done() const { return ok_ && off_ == n_; }

 private:
  bool take(std::size_t k) {
    if (!ok_ || k > n_ - off_) {
      ok_ = false;
      return false;
    }
    off_ += k;
    return true;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

void put_blob(std::vector<std::uint8_t>& out,
              const std::vector<std::uint8_t>& blob) {
  put_u32_le(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

void put_rng(std::vector<std::uint8_t>& out, const util::RngState& st) {
  put_u64_le(out, st.seed);
  for (int i = 0; i < 4; ++i) put_u64_le(out, st.s[i]);
  out.push_back(st.has_cached_normal ? 1 : 0);
  put_f64_le(out, st.cached_normal);
}

void get_rng(Cursor& c, util::RngState& st) {
  st.seed = c.u64();
  for (int i = 0; i < 4; ++i) st.s[i] = c.u64();
  st.has_cached_normal = c.u8() != 0;
  st.cached_normal = c.f64();
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
  std::vector<std::uint8_t> b;
  b.push_back(static_cast<std::uint8_t>(MsgType::kHello));
  put_u16_le(b, m.proto);
  put_u64_le(b, m.fingerprint);
  put_u64_le(b, m.seed);
  put_u64_le(b, m.resume_round);
  put_u64_le(b, m.calls_served);
  return b;
}

bool decode_hello(const std::vector<std::uint8_t>& body, HelloMsg& out) {
  Cursor c(body);
  if (c.u8() != static_cast<std::uint8_t>(MsgType::kHello)) return false;
  out.proto = c.u16();
  out.fingerprint = c.u64();
  out.seed = c.u64();
  out.resume_round = c.u64();
  out.calls_served = c.u64();
  return c.done();
}

std::vector<std::uint8_t> encode_welcome(const WelcomeMsg& m) {
  std::vector<std::uint8_t> b;
  b.push_back(static_cast<std::uint8_t>(MsgType::kWelcome));
  put_u32_le(b, m.worker_id);
  put_u64_le(b, m.next_round);
  put_u32_le(b, m.n_workers);
  return b;
}

bool decode_welcome(const std::vector<std::uint8_t>& body, WelcomeMsg& out) {
  Cursor c(body);
  if (c.u8() != static_cast<std::uint8_t>(MsgType::kWelcome)) return false;
  out.worker_id = c.u32();
  out.next_round = c.u64();
  out.n_workers = c.u32();
  return c.done();
}

std::vector<std::uint8_t> encode_train_req(const TrainReqMsg& m) {
  std::vector<std::uint8_t> b;
  b.push_back(static_cast<std::uint8_t>(MsgType::kTrainReq));
  put_u64_le(b, m.client);
  put_u64_le(b, m.round);
  fl::for_each_field(m.opts, [&](const util::FieldInfo&, const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, float>) {
      put_f32_le(b, v);
    } else {
      static_assert(std::is_same_v<std::decay_t<decltype(v)>, std::size_t>);
      put_u64_le(b, v);
    }
  });
  put_rng(b, m.rng);
  std::uint8_t flags = 0;
  if (m.prox_env) flags |= 1u;
  if (m.offset_env) flags |= 2u;
  b.push_back(flags);
  put_blob(b, m.start_env);
  if (m.prox_env) put_blob(b, *m.prox_env);
  if (m.offset_env) put_blob(b, *m.offset_env);
  return b;
}

bool decode_train_req(const std::vector<std::uint8_t>& body,
                      TrainReqMsg& out) {
  Cursor c(body);
  if (c.u8() != static_cast<std::uint8_t>(MsgType::kTrainReq)) return false;
  out.client = c.u64();
  out.round = c.u64();
  fl::for_each_field(out.opts, [&](const util::FieldInfo&, auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, float>) {
      v = c.f32();
    } else {
      static_assert(std::is_same_v<std::decay_t<decltype(v)>, std::size_t>);
      v = static_cast<std::size_t>(c.u64());
    }
  });
  get_rng(c, out.rng);
  const std::uint8_t flags = c.u8();
  if (flags & ~3u) return false;
  if (!c.blob(out.start_env)) return false;
  out.prox_env.reset();
  out.offset_env.reset();
  if (flags & 1u) {
    std::vector<std::uint8_t> blob;
    if (!c.blob(blob)) return false;
    out.prox_env = std::move(blob);
  }
  if (flags & 2u) {
    std::vector<std::uint8_t> blob;
    if (!c.blob(blob)) return false;
    out.offset_env = std::move(blob);
  }
  return c.done();
}

std::vector<std::uint8_t> encode_train_resp(const TrainRespMsg& m) {
  std::vector<std::uint8_t> b;
  b.push_back(static_cast<std::uint8_t>(MsgType::kTrainResp));
  put_u64_le(b, m.client);
  put_u64_le(b, m.round);
  b.push_back(m.ok ? 1 : 0);
  put_f32_le(b, m.loss);
  put_u64_le(b, m.train_us);
  if (m.ok) put_blob(b, m.params_env);
  return b;
}

bool decode_train_resp(const std::vector<std::uint8_t>& body,
                       TrainRespMsg& out) {
  Cursor c(body);
  if (c.u8() != static_cast<std::uint8_t>(MsgType::kTrainResp)) return false;
  out.client = c.u64();
  out.round = c.u64();
  out.ok = c.u8() != 0;
  out.loss = c.f32();
  out.train_us = c.u64();
  out.params_env.clear();
  if (out.ok && !c.blob(out.params_env)) return false;
  return c.done();
}

std::vector<std::uint8_t> encode_heartbeat(const HeartbeatMsg& m) {
  std::vector<std::uint8_t> b;
  b.push_back(static_cast<std::uint8_t>(MsgType::kHeartbeat));
  put_u32_le(b, m.worker_id);
  put_u64_le(b, m.calls_served);
  return b;
}

bool decode_heartbeat(const std::vector<std::uint8_t>& body,
                      HeartbeatMsg& out) {
  Cursor c(body);
  if (c.u8() != static_cast<std::uint8_t>(MsgType::kHeartbeat)) return false;
  out.worker_id = c.u32();
  out.calls_served = c.u64();
  return c.done();
}

std::vector<std::uint8_t> encode_shutdown() {
  return {static_cast<std::uint8_t>(MsgType::kShutdown)};
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& m) {
  std::vector<std::uint8_t> b;
  b.push_back(static_cast<std::uint8_t>(MsgType::kError));
  put_u32_le(b, m.code);
  put_u32_le(b, static_cast<std::uint32_t>(m.reason.size()));
  b.insert(b.end(), m.reason.begin(), m.reason.end());
  return b;
}

bool decode_error(const std::vector<std::uint8_t>& body, ErrorMsg& out) {
  Cursor c(body);
  if (c.u8() != static_cast<std::uint8_t>(MsgType::kError)) return false;
  out.code = c.u32();
  if (!c.str(out.reason)) return false;
  return c.done();
}

}  // namespace fedclust::net

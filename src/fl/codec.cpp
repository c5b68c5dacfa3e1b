#include "fl/codec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "tensor/simd.h"
#include "util/f16.h"
#include "util/serialization.h"

namespace fedclust::fl::wire {

// ------------------------------------------------------------------ names

const char* codec_name(CodecId id) {
  switch (id) {
    case CodecId::kRawF32: return "raw_f32";
    case CodecId::kF16: return "f16";
    case CodecId::kQInt8: return "qint8";
  }
  return "unknown";
}

CodecId codec_from_string(const std::string& name) {
  if (name == "raw_f32") return CodecId::kRawF32;
  if (name == "f16") return CodecId::kF16;
  if (name == "qint8") return CodecId::kQInt8;
  throw std::invalid_argument("unknown codec: " + name +
                              " (expected raw_f32, f16, or qint8)");
}

bool codec_id_valid(std::uint8_t raw) { return raw < kNumCodecs; }

// ------------------------------------------------------------------ f16

std::uint16_t f32_to_f16(float v) { return util::f32_to_f16(v); }

float f16_to_f32(std::uint16_t h) { return util::f16_to_f32(h); }

// ------------------------------------------------------------------ sizes

namespace {

std::size_t qint8_chunks(std::size_t n) {
  return (n + kQuantChunk - 1) / kQuantChunk;
}

void check_len(std::size_t len, std::size_t want, const char* codec) {
  if (len != want) {
    throw std::runtime_error(std::string("codec ") + codec +
                             ": payload length mismatch");
  }
}

// The f16 kernels operate on uint16_t; wire buffers are byte vectors. The
// byte image of a little-endian uint16_t array IS the wire format, so on LE
// hosts a 2-aligned buffer can be reinterpreted directly. Heap allocations
// are always sufficiently aligned; the check only guards sliced views.
bool f16_fast_path(const void* p) {
  return util::host_is_little_endian() &&
         (reinterpret_cast<std::uintptr_t>(p) & 1u) == 0;
}

}  // namespace

std::size_t encoded_size(CodecId codec, std::size_t n) {
  switch (codec) {
    case CodecId::kRawF32: return n * 4;
    case CodecId::kF16: return n * 2;
    case CodecId::kQInt8: return n + qint8_chunks(n) * 8;
  }
  throw std::invalid_argument("encoded_size: bad codec id");
}

// ------------------------------------------------------------------ encode

std::vector<std::uint8_t> encode_payload(CodecId codec, const float* data,
                                         std::size_t n) {
  // All float-touching work goes through the dispatched kernel table. The
  // scalar table is the golden reference and every SIMD table is bit-exact
  // against it, so the wire bytes are independent of the active ISA.
  const tensor::simd::KernelTable& kt = tensor::simd::kernels();
  std::vector<std::uint8_t> out;
  switch (codec) {
    case CodecId::kRawF32:
      out.resize(n * 4);
      if (util::host_is_little_endian()) {
        // n == 0 leaves out.data() null, which memcpy must not be passed.
        if (n != 0) std::memcpy(out.data(), data, n * 4);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          util::store_f32_le(out.data() + i * 4, data[i]);
        }
      }
      return out;
    case CodecId::kF16:
      out.resize(n * 2);
      if (f16_fast_path(out.data())) {
        kt.f16_encode(data, n, reinterpret_cast<std::uint16_t*>(out.data()));
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          util::store_u16_le(out.data() + i * 2, util::f32_to_f16(data[i]));
        }
      }
      return out;
    case CodecId::kQInt8: {
      out.resize(encoded_size(CodecId::kQInt8, n));
      std::uint8_t* pos = out.data();
      for (std::size_t i0 = 0; i0 < n; i0 += kQuantChunk) {
        const std::size_t m = std::min(kQuantChunk, n - i0);
        float lo, hi;
        bool finite;
        kt.minmax_finite(data + i0, m, &lo, &hi, &finite);
        const float scale = finite ? (hi - lo) / 255.0f : 0.0f;
        if (!finite || !std::isfinite(scale)) {
          // Poisoned chunk: a NaN scale makes the whole chunk decode to
          // NaN, so non-finite corruption survives the lossy codec instead
          // of being quantized back into the finite range.
          util::store_f32_le(pos, std::numeric_limits<float>::quiet_NaN());
          util::store_f32_le(pos + 4, 0.0f);
          std::memset(pos + 8, 0, m);
          pos += 8 + m;
          continue;
        }
        util::store_f32_le(pos, scale);
        util::store_f32_le(pos + 4, lo);
        if (scale > 0.0f) {
          kt.qint8_quantize(data + i0, m, lo, scale, pos + 8);
        } else {
          std::memset(pos + 8, 0, m);
        }
        pos += 8 + m;
      }
      return out;
    }
  }
  throw std::invalid_argument("encode_payload: bad codec id");
}

// ------------------------------------------------------------------ decode

std::vector<float> decode_payload(CodecId codec, const std::uint8_t* data,
                                  std::size_t len, std::size_t n) {
  const tensor::simd::KernelTable& kt = tensor::simd::kernels();
  std::vector<float> out;
  switch (codec) {
    case CodecId::kRawF32:
      check_len(len, n * 4, "raw_f32");
      out.resize(n);
      if (util::host_is_little_endian()) {
        if (n != 0) std::memcpy(out.data(), data, n * 4);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = util::get_f32_le(data + i * 4);
        }
      }
      return out;
    case CodecId::kF16:
      check_len(len, n * 2, "f16");
      out.resize(n);
      if (f16_fast_path(data)) {
        kt.f16_decode(reinterpret_cast<const std::uint16_t*>(data), n,
                      out.data());
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = util::f16_to_f32(util::get_u16_le(data + i * 2));
        }
      }
      return out;
    case CodecId::kQInt8: {
      check_len(len, encoded_size(CodecId::kQInt8, n), "qint8");
      out.resize(n);
      std::size_t pos = 0;
      for (std::size_t i0 = 0; i0 < n; i0 += kQuantChunk) {
        const std::size_t m = std::min(kQuantChunk, n - i0);
        const float scale = util::get_f32_le(data + pos);
        const float lo = util::get_f32_le(data + pos + 4);
        pos += 8;
        if (!std::isfinite(scale) || !std::isfinite(lo)) {
          std::fill(out.begin() + static_cast<std::ptrdiff_t>(i0),
                    out.begin() + static_cast<std::ptrdiff_t>(i0 + m),
                    std::numeric_limits<float>::quiet_NaN());
          pos += m;
          continue;
        }
        kt.qint8_dequantize(data + pos, m, lo, scale, out.data() + i0);
        pos += m;
      }
      return out;
    }
  }
  throw std::invalid_argument("decode_payload: bad codec id");
}

// ------------------------------------------- int8-domain weighted average

std::vector<float> qint8_weighted_average(
    const std::vector<std::pair<const std::vector<std::uint8_t>*, double>>&
        entries,
    std::size_t n) {
  const tensor::simd::KernelTable& kt = tensor::simd::kernels();
  const std::size_t chunks = qint8_chunks(n);

  // Per-element fixed-point sums of w*scale*q (24 fractional bits), plus
  // per-chunk double offsets sum(w*lo). `exact` holds the double fallback
  // contributions for (entry, chunk) pairs whose multiplier does not fit
  // the fixed-point guard; it is allocated lazily since the fallback is
  // rare (it needs |w*scale| >= ~0.5).
  std::vector<std::int64_t> acc(n, 0);
  std::vector<double> off(chunks, 0.0);
  std::vector<double> exact;
  std::vector<std::uint8_t> poisoned(chunks, 0);
  constexpr double kFix = 16777216.0;  // 2^24

  for (const auto& [bytes, w] : entries) {
    check_len(bytes->size(), encoded_size(CodecId::kQInt8, n), "qint8");
    const std::uint8_t* data = bytes->data();
    std::size_t pos = 0;
    for (std::size_t ci = 0; ci < chunks; ++ci) {
      const std::size_t i0 = ci * kQuantChunk;
      const std::size_t m = std::min(kQuantChunk, n - i0);
      const float scale = util::get_f32_le(data + pos);
      const float lo = util::get_f32_le(data + pos + 4);
      pos += 8 + m;
      if (!std::isfinite(scale) || !std::isfinite(lo)) {
        poisoned[ci] = 1;
        continue;
      }
      off[ci] += w * static_cast<double>(lo);
      const double ws = w * static_cast<double>(scale);
      const double m24d = ws * kFix;
      const long long m24 = std::llround(m24d);
      if (std::abs(m24d) < 8388608.0 /* 2^23: m24*255 fits int32 */) {
        if (m24 != 0) {
          kt.qint8_accumulate(acc.data() + i0, data + pos - m, m,
                              static_cast<std::int32_t>(m24));
        }
      } else {
        if (exact.empty()) exact.assign(n, 0.0);
        const std::uint8_t* q = data + pos - m;
        for (std::size_t i = 0; i < m; ++i) {
          exact[i0 + i] += ws * static_cast<double>(q[i]);
        }
      }
    }
  }

  std::vector<float> out(n);
  for (std::size_t ci = 0; ci < chunks; ++ci) {
    const std::size_t i0 = ci * kQuantChunk;
    const std::size_t m = std::min(kQuantChunk, n - i0);
    if (poisoned[ci]) {
      std::fill(out.begin() + static_cast<std::ptrdiff_t>(i0),
                out.begin() + static_cast<std::ptrdiff_t>(i0 + m),
                std::numeric_limits<float>::quiet_NaN());
      continue;
    }
    for (std::size_t i = i0; i < i0 + m; ++i) {
      double v = static_cast<double>(acc[i]) / kFix + off[ci];
      if (!exact.empty()) v += exact[i];
      out[i] = static_cast<float>(v);
    }
  }
  return out;
}

}  // namespace fedclust::fl::wire

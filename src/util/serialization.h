#pragma once

// Binary (de)serialization for checkpoints, wire envelopes, and experiment
// traces, plus a small CSV writer. All multi-byte fields are explicitly
// little-endian regardless of host byte order, so checkpoint files and wire
// payloads are portable across machines; `crc32c` provides the Castagnoli
// checksum used by both the wire layer and model checkpoints.

#include <cstdint>
#include <cstring>
#include <ostream>
#include <istream>
#include <string>
#include <vector>

namespace fedclust::util {

// ------------------------------------------------------------------
// Little-endian byte-buffer primitives.
//
// `put_*` append to a byte vector; `get_*` read from a raw pointer the
// caller has already bounds-checked. These are the shared encoding
// primitives for fl::wire envelopes and nn::checkpoint files.

inline void put_u16_le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

inline void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

inline void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

inline void put_f32_le(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32_le(out, bits);
}

inline void put_f64_le(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64_le(out, bits);
}

inline std::uint16_t get_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

inline std::uint32_t get_u32_le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

inline std::uint64_t get_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

inline float get_f32_le(const std::uint8_t* p) {
  const std::uint32_t bits = get_u32_le(p);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// `store_*` write into a caller-sized buffer at a raw pointer — the bulk
// (codec kernel) counterparts of `put_*`, which append byte-at-a-time.

inline void store_u16_le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
}

inline void store_u32_le(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
  }
}

inline void store_f32_le(std::uint8_t* p, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  store_u32_le(p, bits);
}

// True on little-endian hosts, where multi-byte LE fields can be bulk
// memcpy'd instead of assembled byte-by-byte. Every wire/checkpoint byte
// must still go through the `put_`/`store_`/`get_` primitives or be guarded
// by this check — big-endian hosts take the portable path.
inline constexpr bool host_is_little_endian() {
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
  return __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;
#else
  return false;
#endif
}

// ------------------------------------------------------------------
// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected). Known answer:
// crc32c over the ASCII bytes of "123456789" is 0xE3069283.

// One-shot checksum over a byte range.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t n);

// Incremental form: seed with 0, feed ranges in order, identical to the
// one-shot checksum over the concatenation.
std::uint32_t crc32c_extend(std::uint32_t crc, const std::uint8_t* data,
                            std::size_t n);

// ------------------------------------------------------------------
// Stream writers. Every field goes through the little-endian primitives
// above; on little-endian hosts the byte stream is identical to the old
// host-order format, on big-endian hosts it is now portable.

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_vec(const std::vector<float>& v);
  void write_f64_vec(const std::vector<double>& v);
  void write_bytes(const std::uint8_t* data, std::size_t n);

 private:
  std::ostream& os_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is) : is_(is) {}

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vec();
  std::vector<double> read_f64_vec();
  std::vector<std::uint8_t> read_bytes(std::size_t n);

 private:
  void read_raw(void* dst, std::size_t n);
  std::istream& is_;
};

// Appends rows to a CSV file; writes the header on construction.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, const std::vector<std::string>& columns);
  void add_row(const std::vector<std::string>& cells);

 private:
  std::string path_;
  std::size_t n_cols_;
};

}  // namespace fedclust::util

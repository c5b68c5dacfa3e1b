#pragma once

// Binary (de)serialization for snapshots, algorithm and worker state, net
// messages and wire envelopes, plus the whole-file I/O every file the
// product writes or reads back goes through. All multi-byte fields are
// explicitly little-endian regardless of host byte order, so files and wire
// payloads are portable across machines; `crc32c` provides the Castagnoli
// checksum used by the wire layer and the sealed file frame.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fedclust::util {

// ------------------------------------------------------------------
// Little-endian byte-buffer primitives.
//
// `put_*` append to a byte vector; `get_*` read from a raw pointer the
// caller has already bounds-checked. These are the shared encoding
// primitives for fl::wire envelopes, sealed files and the BinaryWriter /
// BinaryReader below.

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
// Byte writer and reader. Every field goes through the little-endian
// primitives above, so snapshots, algorithm state, worker state files and
// net messages are byte-order independent. Lengths and counts are written
// by the caller's format: snapshots use u64 (write_string, the vectors),
// net messages a u32 then write_bytes.

class BinaryWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u16(std::uint16_t v) { put_u16_le(buf_, v); }
  void write_u32(std::uint32_t v) { put_u32_le(buf_, v); }
  void write_u64(std::uint64_t v) { put_u64_le(buf_, v); }
  void write_f32(float v) { put_f32_le(buf_, v); }
  void write_f64(double v) { put_f64_le(buf_, v); }
  void write_string(const std::string& s);
  void write_f32_vec(const std::vector<float>& v);
  void write_f64_vec(const std::vector<double>& v);
  void write_bytes(const std::uint8_t* data, std::size_t n);

  // The bytes written so far, as a vector or as chars (for util::seal).
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(buf_.data()), buf_.size()};
  }
  // Moves the bytes out, leaving the writer empty.
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Reads a byte span the caller keeps alive. Every read checks the bytes
// left first and throws std::runtime_error naming what it wanted and how
// much was left; a length or count read from the input is checked against
// the bytes left before anything is allocated, so no input can make the
// reader allocate more than it holds.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> bytes)
      : p_(bytes.data()), n_(bytes.size()) {}
  explicit BinaryReader(std::string_view bytes)
      : p_(reinterpret_cast<const std::uint8_t*>(bytes.data())),
        n_(bytes.size()) {}

  std::uint8_t read_u8() { return *take(1, "u8"); }
  std::uint16_t read_u16() { return get_u16_le(take(2, "u16")); }
  std::uint32_t read_u32() { return get_u32_le(take(4, "u32")); }
  std::uint64_t read_u64() { return get_u64_le(take(8, "u64")); }
  float read_f32() { return get_f32_le(take(4, "f32")); }
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vec();
  std::vector<double> read_f64_vec();
  std::vector<std::uint8_t> read_bytes(std::size_t n);
  // A u64 count of items that take at least `item_bytes` each, refused when
  // the bytes left cannot hold that many.
  std::uint64_t read_count(std::size_t item_bytes);

  std::size_t remaining() const { return n_ - off_; }
  // True when every byte was consumed.
  bool done() const { return off_ == n_; }

 private:
  // The next `k` bytes, consumed; throws when fewer are left.
  const std::uint8_t* take(std::size_t k, const char* what);

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

// ------------------------------------------------------------------
// Whole files.

// The bytes of the file at `path`. Throws std::runtime_error naming the path
// when it cannot be read.
std::string read_file(const std::string& path);

// Replaces the file at `path` with `bytes` atomically: writes `path`.tmp,
// flushes it, then renames it over `path`, so a crash mid-write never leaves
// a half file under the final name. A path that exists but is not a regular
// file (/dev/null, a pipe) cannot be renamed over and is written in place.
// Throws std::runtime_error naming the path when any step fails.
void write_file(const std::string& path, std::string_view bytes);

// The sealed frame every checksummed file uses (all little-endian):
//
//   offset  size  field
//   0       4     magic (names the file type)
//   4       2     version
//   6       2     reserved (0)
//   8       8     body length in bytes
//   16      4     CRC32C over the body bytes
//   20      ...   body
inline constexpr std::size_t kSealHeaderBytes = 4 + 2 + 2 + 8 + 4;

// Header + `body`.
std::string seal(std::uint32_t magic, std::uint16_t version,
                 std::string_view body);

// The body of a sealed `file`, a view into it. Every header bit is checked,
// and the CRC before the body is handed out, so a truncated, bit-flipped or
// extended file is rejected before any byte reaches a parser. Throws
// std::runtime_error naming the defect.
std::string_view unseal(std::string_view file, std::uint32_t magic,
                        std::uint16_t version);

}  // namespace fedclust::util

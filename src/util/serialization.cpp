#include "util/serialization.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/cpu.h"

namespace fedclust::util {

// ------------------------------------------------------------------ crc32c

namespace {

// Table-driven CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the
// golden reference the SSE4.2/ARMv8 hardware loop in crc32c_hw.cpp must
// match bit for bit (it implements the same polynomial in silicon).
std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  return table;
}

}  // namespace

std::uint32_t crc32c_raw_table(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t n) {
  const auto& table = crc32c_table();
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

std::uint32_t crc32c_extend(std::uint32_t crc, const std::uint8_t* data,
                            std::size_t n) {
  // FEDCLUST_ISA=scalar pins the table path (scalar-is-golden contract);
  // any SIMD ISA implies the CRC instructions are runtime-available when
  // the build carries them. Both paths return identical checksums.
  crc = ~crc;
  if (crc32c_hw_compiled() && active_isa() != SimdIsa::kScalar) {
    crc = crc32c_raw_hw(crc, data, n);
  } else {
    crc = crc32c_raw_table(crc, data, n);
  }
  return ~crc;
}

std::uint32_t crc32c(const std::uint8_t* data, std::size_t n) {
  return crc32c_extend(0, data, n);
}

// ------------------------------------------------------------------ writer

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}
void BinaryWriter::write_f32_vec(const std::vector<float>& v) {
  write_u64(v.size());
  for (const float x : v) write_f32(x);
}
void BinaryWriter::write_f64_vec(const std::vector<double>& v) {
  write_u64(v.size());
  for (const double x : v) write_f64(x);
}
void BinaryWriter::write_bytes(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

// ------------------------------------------------------------------ reader

const std::uint8_t* BinaryReader::take(std::size_t k, const char* what) {
  if (k > remaining()) {
    throw std::runtime_error("BinaryReader: want " + std::to_string(k) +
                             " bytes for " + what + ", " +
                             std::to_string(remaining()) + " left");
  }
  off_ += k;
  return p_ + off_ - k;
}

double BinaryReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  const auto* p = reinterpret_cast<const char*>(take(n, "a string"));
  return {p, p + n};
}
std::vector<float> BinaryReader::read_f32_vec() {
  const std::uint64_t n = read_count(sizeof(float));
  const std::uint8_t* p = take(n * sizeof(float), "an f32 vector");
  std::vector<float> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = get_f32_le(p + 4 * i);
  return v;
}
std::vector<double> BinaryReader::read_f64_vec() {
  const std::uint64_t n = read_count(sizeof(double));
  std::vector<double> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = read_f64();
  return v;
}
std::vector<std::uint8_t> BinaryReader::read_bytes(std::size_t n) {
  const std::uint8_t* p = take(n, "a byte string");
  return {p, p + n};
}
std::uint64_t BinaryReader::read_count(std::size_t item_bytes) {
  const std::uint64_t n = read_u64();
  if (n > remaining() / item_bytes) {
    throw std::runtime_error("BinaryReader: count " + std::to_string(n) +
                             " of " + std::to_string(item_bytes) +
                             "-byte items overruns the " +
                             std::to_string(remaining()) + " bytes left");
  }
  return n;
}

// ------------------------------------------------------------------ files

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::string bytes;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return bytes;
}

void write_file(const std::string& path, std::string_view bytes) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  const bool in_place = fs::exists(st) && !fs::is_regular_file(st);
  const std::string target = in_place ? path : path + ".tmp";
  {
    std::ofstream os(target, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + target + " for writing");
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();
    if (!os) {
      if (!in_place) std::remove(target.c_str());
      throw std::runtime_error("write failed for " + path);
    }
  }
  if (!in_place && std::rename(target.c_str(), path.c_str()) != 0) {
    std::remove(target.c_str());
    throw std::runtime_error("cannot rename " + target + " to " + path);
  }
}

// ------------------------------------------------------------------ seal

std::string seal(std::uint32_t magic, std::uint16_t version,
                 std::string_view body) {
  std::vector<std::uint8_t> header;
  header.reserve(kSealHeaderBytes);
  put_u32_le(header, magic);
  put_u16_le(header, version);
  put_u16_le(header, 0);  // reserved
  put_u64_le(header, body.size());
  put_u32_le(header,
             crc32c(reinterpret_cast<const std::uint8_t*>(body.data()),
                    body.size()));
  std::string file;
  file.reserve(kSealHeaderBytes + body.size());
  file.append(header.begin(), header.end());
  file.append(body);
  return file;
}

std::string_view unseal(std::string_view file, std::uint32_t magic,
                        std::uint16_t version) {
  if (file.size() < kSealHeaderBytes) {
    throw std::runtime_error("truncated: " + std::to_string(file.size()) +
                             " bytes is smaller than the header");
  }
  const auto* p = reinterpret_cast<const std::uint8_t*>(file.data());
  if (get_u32_le(p) != magic) {
    throw std::runtime_error("magic mismatch (wrong file type?)");
  }
  const std::uint16_t got_version = get_u16_le(p + 4);
  if (got_version != version) {
    throw std::runtime_error("unsupported version " +
                             std::to_string(got_version));
  }
  // Reserved must be zero so every header bit is validated: a single bit
  // flip anywhere in the file is rejected.
  if (get_u16_le(p + 6) != 0) {
    throw std::runtime_error("reserved field is non-zero");
  }
  const std::uint64_t body_len = get_u64_le(p + 8);
  if (file.size() - kSealHeaderBytes != body_len) {
    throw std::runtime_error(
        "length mismatch: header declares " + std::to_string(body_len) +
        " body bytes, file carries " +
        std::to_string(file.size() - kSealHeaderBytes));
  }
  if (crc32c(p + kSealHeaderBytes, body_len) != get_u32_le(p + 16)) {
    throw std::runtime_error("body CRC mismatch: file corrupt");
  }
  return file.substr(kSealHeaderBytes);
}

}  // namespace fedclust::util

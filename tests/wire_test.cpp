// The typed wire layer: CRC32C and little-endian primitives, the three
// payload codecs (raw_f32 byte-exact, f16, qint8), envelope framing with
// checksum-first rejection of corrupt bytes, envelope-based comm billing,
// checkpoint v2 integrity, span-name interning, and end-to-end federation
// runs under a lossy codec (thread-count invariant, >= 3x smaller).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fl/codec.h"
#include "fl/comm.h"
#include "fl/fault.h"
#include "fl/federation.h"
#include "fl/fedavg.h"
#include "fl/wire.h"
#include "nn/checkpoint.h"
#include "nn/model_zoo.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

using fl::wire::CodecId;
using fl::wire::DecodeStatus;
using fl::wire::Envelope;
using fl::wire::MessageKind;

const CodecId kAllCodecs[] = {CodecId::kRawF32, CodecId::kF16,
                              CodecId::kQInt8};
const MessageKind kAllKinds[] = {
    MessageKind::kModelPull, MessageKind::kUpdatePush,
    MessageKind::kClusterAssign, MessageKind::kWarmupWeights,
    MessageKind::kSubspace};

std::uint32_t f32_bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ------------------------------------------------- serialization primitives

TEST(Crc32c, KnownAnswer) {
  // The standard CRC32C (Castagnoli) check value.
  const char* s = "123456789";
  EXPECT_EQ(util::crc32c(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xE3069283u);
  EXPECT_EQ(util::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, ExtendComposes) {
  const std::uint8_t data[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02};
  const std::uint32_t whole = util::crc32c(data, 6);
  std::uint32_t split = util::crc32c(data, 2);
  split = util::crc32c_extend(split, data + 2, 4);
  EXPECT_EQ(split, whole);
}

TEST(LittleEndian, PutGetGoldens) {
  std::vector<std::uint8_t> buf;
  util::put_u16_le(buf, 0x1234);
  util::put_u32_le(buf, 0xDEADBEEF);
  util::put_u64_le(buf, 0x0102030405060708ULL);
  util::put_f32_le(buf, 1.0f);
  const std::uint8_t want[] = {0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE,
                               0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
                               0x02, 0x01, 0x00, 0x00, 0x80, 0x3F};
  ASSERT_EQ(buf.size(), sizeof(want));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], want[i]) << "byte " << i;
  }
  EXPECT_EQ(util::get_u16_le(buf.data()), 0x1234);
  EXPECT_EQ(util::get_u32_le(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(util::get_u64_le(buf.data() + 6), 0x0102030405060708ULL);
  EXPECT_EQ(util::get_f32_le(buf.data() + 14), 1.0f);
}

// ----------------------------------------------------------------- codecs

TEST(Codec, NamesRoundTrip) {
  for (const CodecId c : kAllCodecs) {
    EXPECT_EQ(fl::wire::codec_from_string(fl::wire::codec_name(c)), c);
  }
  EXPECT_THROW(fl::wire::codec_from_string("gzip"), std::invalid_argument);
  EXPECT_TRUE(fl::wire::codec_id_valid(0));
  EXPECT_TRUE(fl::wire::codec_id_valid(2));
  EXPECT_FALSE(fl::wire::codec_id_valid(3));
}

TEST(Codec, EncodedSizeMatchesEncodeExactly) {
  util::Rng rng(7);
  for (const CodecId c : kAllCodecs) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{255},
                                std::size_t{256}, std::size_t{257},
                                std::size_t{1000}}) {
      std::vector<float> v(n);
      for (auto& x : v) x = static_cast<float>(rng.uniform(-5.0, 5.0));
      const auto bytes = fl::wire::encode_payload(c, v.data(), n);
      EXPECT_EQ(bytes.size(), fl::wire::encoded_size(c, n))
          << fl::wire::codec_name(c) << " n=" << n;
    }
  }
}

TEST(Codec, RawF32RoundTripsBitExactly) {
  const std::vector<float> v = {
      0.0f, -0.0f, 1.0f, -2.5f, 1e-38f,
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::max()};
  const auto bytes =
      fl::wire::encode_payload(CodecId::kRawF32, v.data(), v.size());
  const auto back = fl::wire::decode_payload(CodecId::kRawF32, bytes.data(),
                                             bytes.size(), v.size());
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(f32_bits(back[i]), f32_bits(v[i])) << "value " << i;
  }
}

TEST(Codec, F16KnownConversions) {
  EXPECT_EQ(fl::wire::f32_to_f16(0.0f), 0x0000);
  EXPECT_EQ(fl::wire::f32_to_f16(-0.0f), 0x8000);
  EXPECT_EQ(fl::wire::f32_to_f16(1.0f), 0x3C00);
  EXPECT_EQ(fl::wire::f32_to_f16(-2.0f), 0xC000);
  EXPECT_EQ(fl::wire::f32_to_f16(65504.0f), 0x7BFF);  // largest finite f16
  // Overflow saturates to infinity (the validator's problem downstream).
  EXPECT_EQ(fl::wire::f32_to_f16(65520.0f), 0x7C00);
  EXPECT_EQ(fl::wire::f32_to_f16(1e10f), 0x7C00);
  EXPECT_EQ(fl::wire::f32_to_f16(std::numeric_limits<float>::infinity()),
            0x7C00);
  EXPECT_EQ(fl::wire::f16_to_f32(0x3C00), 1.0f);
  EXPECT_EQ(fl::wire::f16_to_f32(0xC000), -2.0f);
  EXPECT_EQ(fl::wire::f16_to_f32(0x7BFF), 65504.0f);
  EXPECT_TRUE(std::isnan(
      fl::wire::f16_to_f32(fl::wire::f32_to_f16(std::nanf("")))));
  // Round-to-nearest-even at the halfway point: 1 + 2^-11 is exactly between
  // two f16 values and must round to the even mantissa (1.0).
  EXPECT_EQ(fl::wire::f32_to_f16(1.0f + 0.00048828125f), 0x3C00);
}

TEST(Codec, F16RoundTripIsBoundedAndIdempotent) {
  util::Rng rng(11);
  std::vector<float> v(513);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-100.0, 100.0));
  const auto bytes = fl::wire::encode_payload(CodecId::kF16, v.data(),
                                              v.size());
  const auto back = fl::wire::decode_payload(CodecId::kF16, bytes.data(),
                                             bytes.size(), v.size());
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    // binary16 keeps ~3 decimal digits: relative error <= 2^-11.
    EXPECT_LE(std::fabs(back[i] - v[i]), std::fabs(v[i]) * 0.0005f + 1e-6f);
  }
  // A decoded f16 value re-encodes to the same bits (idempotent fixpoint).
  const auto bytes2 = fl::wire::encode_payload(CodecId::kF16, back.data(),
                                               back.size());
  EXPECT_EQ(bytes, bytes2);
}

TEST(Codec, QInt8ErrorBoundedPerChunk) {
  util::Rng rng(13);
  // 2.5 chunks, each with its own range.
  std::vector<float> v(640);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float scale = 1.0f + static_cast<float>(i / fl::wire::kQuantChunk);
    v[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  const auto bytes = fl::wire::encode_payload(CodecId::kQInt8, v.data(),
                                              v.size());
  const auto back = fl::wire::decode_payload(CodecId::kQInt8, bytes.data(),
                                             bytes.size(), v.size());
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t chunk = 0; chunk * fl::wire::kQuantChunk < v.size();
       ++chunk) {
    const std::size_t lo = chunk * fl::wire::kQuantChunk;
    const std::size_t hi = std::min(v.size(), lo + fl::wire::kQuantChunk);
    float mn = v[lo], mx = v[lo];
    for (std::size_t i = lo; i < hi; ++i) {
      mn = std::min(mn, v[i]);
      mx = std::max(mx, v[i]);
    }
    const float step = (mx - mn) / 255.0f;
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_LE(std::fabs(back[i] - v[i]), step * 0.5f + 1e-6f)
          << "value " << i;
    }
  }
}

TEST(Codec, QInt8ConstantChunkIsExact) {
  std::vector<float> v(300, 0.125f);
  const auto bytes = fl::wire::encode_payload(CodecId::kQInt8, v.data(),
                                              v.size());
  const auto back = fl::wire::decode_payload(CodecId::kQInt8, bytes.data(),
                                             bytes.size(), v.size());
  for (const float x : back) EXPECT_EQ(x, 0.125f);
}

TEST(Codec, QInt8PoisonsNonFiniteChunks) {
  std::vector<float> v(520, 1.0f);
  v[300] = std::numeric_limits<float>::infinity();  // poisons chunk 1 only
  const auto bytes = fl::wire::encode_payload(CodecId::kQInt8, v.data(),
                                              v.size());
  const auto back = fl::wire::decode_payload(CodecId::kQInt8, bytes.data(),
                                             bytes.size(), v.size());
  for (std::size_t i = 0; i < fl::wire::kQuantChunk; ++i) {
    EXPECT_EQ(back[i], 1.0f) << "clean chunk value " << i;
  }
  for (std::size_t i = fl::wire::kQuantChunk; i < 512; ++i) {
    EXPECT_TRUE(std::isnan(back[i]))
        << "poisoned chunk must decode to NaN at " << i;
  }
  for (std::size_t i = 512; i < v.size(); ++i) {
    EXPECT_EQ(back[i], 1.0f) << "trailing chunk value " << i;
  }
}

TEST(Codec, EncodingIsDeterministic) {
  util::Rng rng(17);
  std::vector<float> v(777);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-3.0, 3.0));
  for (const CodecId c : kAllCodecs) {
    EXPECT_EQ(fl::wire::encode_payload(c, v.data(), v.size()),
              fl::wire::encode_payload(c, v.data(), v.size()));
  }
}

TEST(Codec, DecodeRejectsInconsistentLength) {
  std::vector<float> v(10, 1.0f);
  for (const CodecId c : kAllCodecs) {
    auto bytes = fl::wire::encode_payload(c, v.data(), v.size());
    EXPECT_THROW(
        fl::wire::decode_payload(c, bytes.data(), bytes.size() - 1, v.size()),
        std::runtime_error);
    EXPECT_THROW(
        fl::wire::decode_payload(c, bytes.data(), bytes.size(), v.size() + 1),
        std::runtime_error);
  }
}

// -------------------------------------------------------------- envelopes

TEST(Wire, RoundTripsEveryKindAndCodec) {
  util::Rng rng(19);
  std::vector<float> v(321);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (const MessageKind kind : kAllKinds) {
    for (const CodecId codec : kAllCodecs) {
      const auto bytes = fl::wire::encode(kind, codec, 42, 7, v);
      EXPECT_EQ(bytes.size(), fl::wire::wire_size(codec, v.size()));
      Envelope env;
      ASSERT_EQ(fl::wire::try_decode(bytes.data(), bytes.size(), env),
                DecodeStatus::kOk)
          << fl::wire::message_kind_name(kind) << "/"
          << fl::wire::codec_name(codec);
      EXPECT_EQ(env.kind, kind);
      EXPECT_EQ(env.codec, codec);
      EXPECT_EQ(env.sender, 42u);
      EXPECT_EQ(env.round, 7u);
      ASSERT_EQ(env.payload.size(), v.size());
      if (codec == CodecId::kRawF32) {
        for (std::size_t i = 0; i < v.size(); ++i) {
          EXPECT_EQ(f32_bits(env.payload[i]), f32_bits(v[i]));
        }
      }
    }
  }
}

TEST(Wire, GoldenBytesAreEndiannessStable) {
  // Hard-coded envelope produced by an independent CRC32C implementation:
  // kUpdatePush / raw_f32, sender 7, round 3, payload {1.0f, -2.5f}. This
  // must match on every host, or checkpoints/traces stop being portable.
  const std::vector<float> payload = {1.0f, -2.5f};
  const std::uint8_t want[] = {
      0x7E, 0x71, 0xDC, 0xFE, 0x01, 0x00, 0x01, 0x00,  // magic/ver/kind/codec
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sender
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // element count
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload bytes
      0x18, 0x45, 0x27, 0xDD,                          // CRC32C
      0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x20, 0xC0};
  const auto got = fl::wire::encode(MessageKind::kUpdatePush,
                                    CodecId::kRawF32, 7, 3, payload);
  ASSERT_EQ(got.size(), sizeof(want));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "byte " << i;
  }
}

TEST(Wire, RejectsEveryTruncation) {
  const std::vector<float> v = {1.0f, 2.0f, 3.0f};
  const auto bytes =
      fl::wire::encode(MessageKind::kModelPull, CodecId::kRawF32, 1, 2, v);
  Envelope env;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_NE(fl::wire::try_decode(bytes.data(), len, env), DecodeStatus::kOk)
        << "accepted a " << len << "-byte prefix";
  }
}

TEST(Wire, RejectsGarbage) {
  std::vector<std::uint8_t> junk(128);
  util::Rng rng(23);
  for (auto& b : junk) {
    b = static_cast<std::uint8_t>(rng.randint(0, 256));
  }
  Envelope env;
  EXPECT_EQ(fl::wire::try_decode(junk.data(), junk.size(), env),
            DecodeStatus::kBadMagic);
}

TEST(Wire, DetectsEverySingleBitFlip) {
  const std::vector<float> v = {0.5f, -1.25f};
  const auto bytes =
      fl::wire::encode(MessageKind::kUpdatePush, CodecId::kRawF32, 9, 4, v);
  Envelope env;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = bytes;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(fl::wire::try_decode(flipped.data(), flipped.size(), env),
                DecodeStatus::kOk)
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Wire, StatusPrecedenceAndNames) {
  const std::vector<float> v = {1.0f};
  const auto good =
      fl::wire::encode(MessageKind::kModelPull, CodecId::kRawF32, 0, 0, v);
  Envelope env;

  auto mutated = good;
  mutated[0] ^= 0xFF;  // magic
  EXPECT_EQ(fl::wire::try_decode(mutated.data(), mutated.size(), env),
            DecodeStatus::kBadMagic);
  mutated = good;
  mutated[4] = 0x7F;  // version
  EXPECT_EQ(fl::wire::try_decode(mutated.data(), mutated.size(), env),
            DecodeStatus::kBadVersion);
  mutated = good;
  mutated[6] = 200;  // kind
  EXPECT_EQ(fl::wire::try_decode(mutated.data(), mutated.size(), env),
            DecodeStatus::kBadKind);
  mutated = good;
  mutated[7] = 200;  // codec
  EXPECT_EQ(fl::wire::try_decode(mutated.data(), mutated.size(), env),
            DecodeStatus::kBadCodec);
  mutated = good;
  mutated[32] = 2;  // payload length field shrinks below the actual bytes
  EXPECT_EQ(fl::wire::try_decode(mutated.data(), mutated.size(), env),
            DecodeStatus::kLengthMismatch);
  mutated = good;
  mutated[32] = 200;  // payload length field beyond the actual bytes
  EXPECT_EQ(fl::wire::try_decode(mutated.data(), mutated.size(), env),
            DecodeStatus::kTruncated);
  mutated = good;
  mutated.back() ^= 0x01;  // payload bit flip
  EXPECT_EQ(fl::wire::try_decode(mutated.data(), mutated.size(), env),
            DecodeStatus::kBadChecksum);

  EXPECT_STREQ(fl::wire::decode_status_name(DecodeStatus::kBadChecksum),
               "bad_checksum");
  EXPECT_STREQ(fl::wire::message_kind_name(MessageKind::kUpdatePush),
               "update_push");
  EXPECT_THROW(fl::wire::decode(mutated), std::runtime_error);
}

TEST(Wire, BadPayloadWhenLengthFieldConsistentButWrongForCodec) {
  // Hand-build an envelope whose CRC and length field agree with the actual
  // byte count, but whose payload is not a whole number of f32 values for
  // the declared element count — kBadPayload, the codec-level rejection.
  std::vector<std::uint8_t> env_bytes;
  util::put_u32_le(env_bytes, fl::wire::kMagic);
  util::put_u16_le(env_bytes, fl::wire::kVersion);
  env_bytes.push_back(0);   // kModelPull
  env_bytes.push_back(0);   // raw_f32
  util::put_u64_le(env_bytes, 0);   // sender
  util::put_u64_le(env_bytes, 0);   // round
  util::put_u64_le(env_bytes, 3);   // claims 3 floats...
  util::put_u64_le(env_bytes, 10);  // ...in 10 bytes (needs 12)
  const std::uint8_t payload[10] = {};
  std::uint32_t crc = util::crc32c(env_bytes.data(), env_bytes.size());
  crc = util::crc32c_extend(crc, payload, sizeof(payload));
  util::put_u32_le(env_bytes, crc);
  env_bytes.insert(env_bytes.end(), payload, payload + sizeof(payload));
  Envelope env;
  EXPECT_EQ(fl::wire::try_decode(env_bytes.data(), env_bytes.size(), env),
            DecodeStatus::kBadPayload);
}

// ---------------------------------------------------------------- billing

TEST(CommTracker, BillsEnvelopes) {
  fl::CommTracker comm;
  comm.upload_envelope(/*n_floats=*/100, /*encoded_bytes=*/400);
  comm.download_envelope(/*n_floats=*/50, /*encoded_bytes=*/100,
                         /*messages=*/2);
  EXPECT_EQ(comm.bytes_up(), 400u);
  EXPECT_EQ(comm.bytes_down(), 200u);
  EXPECT_EQ(comm.bytes_total(), 600u);
  EXPECT_EQ(comm.payload_bytes(), 100u * 4 + 2u * 50 * 4);
  EXPECT_EQ(comm.wire_bytes(),
            400 + fl::wire::kHeaderSize + 2 * (100 + fl::wire::kHeaderSize));
  EXPECT_EQ(comm.messages(), 3u);
  comm.reset();
  EXPECT_EQ(comm.bytes_total() + comm.payload_bytes() + comm.wire_bytes() +
                comm.messages(),
            0u);
}

TEST(CommTracker, CountOnlyBillingMatchesRawEnvelopes) {
  // The count-only billing path (Federation::bill_upload/bill_download for
  // payload-free transfers such as IFCA's K-model browse) derives encoded
  // bytes from the configured codec; for raw_f32 that is the pre-wire n*4.
  fl::CommTracker comm;
  comm.upload_envelope(100, fl::wire::encoded_size(CodecId::kRawF32, 100));
  comm.download_envelope(25, fl::wire::encoded_size(CodecId::kRawF32, 25));
  EXPECT_EQ(comm.bytes_up(), 400u);
  EXPECT_EQ(comm.bytes_down(), 100u);
  EXPECT_EQ(comm.messages(), 2u);
}

TEST(CommTracker, LedgerRoundTripsThroughRestore) {
  fl::CommTracker comm;
  comm.upload_envelope(100, 400, 2);
  comm.download_envelope(25, 100);
  const fl::CommLedger saved = comm.ledger();
  fl::CommTracker fresh;
  fresh.restore(saved);
  EXPECT_EQ(fresh.ledger(), saved);
  EXPECT_EQ(fresh.bytes_up(), comm.bytes_up());
  EXPECT_EQ(fresh.wire_bytes(), comm.wire_bytes());
  EXPECT_EQ(fresh.messages(), comm.messages());
}

TEST(CommTracker, QInt8PutsFewerBytesOnTheWireThanPayload) {
  fl::CommTracker comm;
  comm.upload_envelope(1000, fl::wire::encoded_size(CodecId::kQInt8, 1000));
  const std::uint64_t encoded = fl::wire::encoded_size(CodecId::kQInt8, 1000);
  EXPECT_EQ(comm.bytes_up(), encoded);
  EXPECT_EQ(comm.payload_bytes(), 4000u);
  EXPECT_EQ(comm.wire_bytes(), encoded + fl::wire::kHeaderSize);
  EXPECT_LT(comm.wire_bytes(), comm.payload_bytes());
  EXPECT_GT(comm.compression_ratio(), 3.0);
}

// ------------------------------------------------------- fault interaction

TEST(FaultWire, CorruptWireIsDeterministicAndDetected) {
  fl::FaultPlan plan;
  plan.corrupt_prob = 0.99;
  plan.corrupt_mode = "bitflip";
  plan.enabled = true;
  const fl::FaultEngine engine(plan, /*seed=*/5);
  const std::vector<float> v(64, 1.0f);
  const auto clean =
      fl::wire::encode(MessageKind::kUpdatePush, CodecId::kRawF32, 3, 1, v);
  auto a = clean;
  auto b = clean;
  engine.corrupt_wire(a, /*client=*/3, /*round=*/1);
  engine.corrupt_wire(b, /*client=*/3, /*round=*/1);
  EXPECT_EQ(a, b);  // pure function of (seed, client, round)
  EXPECT_NE(a, clean);
  auto c = clean;
  engine.corrupt_wire(c, /*client=*/4, /*round=*/1);
  EXPECT_NE(a, c);  // distinct streams per client
  Envelope env;
  EXPECT_NE(fl::wire::try_decode(a.data(), a.size(), env), DecodeStatus::kOk);
}

// ----------------------------------------------------------- checkpoint v2

TEST(CheckpointV2, DetectsPayloadCorruption) {
  nn::Model a = nn::mlp(4, {3}, 2, 1);
  std::stringstream ss;
  nn::save_model(a, ss);
  std::string bytes = ss.str();
  bytes[bytes.size() - 3] ^= 0x10;  // flip a bit inside the f32 payload
  std::stringstream corrupted(bytes);
  nn::Model b = nn::mlp(4, {3}, 2, 2);
  const std::vector<float> before = b.flat_params();
  EXPECT_THROW(nn::load_model(b, corrupted), std::runtime_error);
  EXPECT_EQ(b.flat_params(), before);  // nothing leaked into the model
}

TEST(CheckpointV2, RejectsOldVersions) {
  nn::Model a = nn::mlp(4, {3}, 2, 1);
  std::stringstream ss;
  nn::save_model(a, ss);
  std::string bytes = ss.str();
  bytes[4] = 0x01;  // rewrite the version field to v1
  std::stringstream old(bytes);
  EXPECT_THROW(nn::load_model(a, old), std::runtime_error);
}

// ---------------------------------------------------------------- interning

TEST(SpanTracer, InternIsIdempotent) {
  auto& tracer = obs::SpanTracer::instance();
  const std::string name = "wire.test.span";
  const char* a = tracer.intern(name);
  const char* b = tracer.intern(name);
  EXPECT_EQ(a, b);  // same pointer: safe to compare and cache
  EXPECT_STREQ(a, name.c_str());
  const char* other = tracer.intern("wire.test.other");
  EXPECT_NE(a, other);
}

// ------------------------------------------------- federation, end to end

fl::ExperimentConfig small_cfg(CodecId codec) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("svhn");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 8;
  cfg.fed.train_per_client = 10;
  cfg.fed.test_per_client = 6;
  cfg.fed.partition = "dirichlet";
  cfg.fed.dirichlet_alpha = 0.3;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 5;
  cfg.local.lr = 0.05f;
  cfg.rounds = 2;
  cfg.sample_fraction = 0.5;
  cfg.seed = 77;
  cfg.codec = codec;
  return cfg;
}

TEST(FederationWire, DeliverUpdateQuantizesThroughQInt8) {
  fl::Federation fed(small_cfg(CodecId::kQInt8));
  std::vector<float> params(fed.model_size(), 0.25f);
  const std::vector<float> original = params;
  ASSERT_TRUE(fed.deliver_update(/*client=*/0, /*round=*/0, params,
                                 /*upload_floats=*/params.size()));
  ASSERT_EQ(params.size(), original.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    // Constant chunks quantize exactly; the point is the values passed
    // through encode->decode, not that they changed.
    EXPECT_EQ(params[i], original[i]);
  }
  EXPECT_EQ(fed.comm().bytes_up(),
            fl::wire::encoded_size(CodecId::kQInt8, original.size()));
  EXPECT_LT(fed.comm().wire_bytes(), fed.comm().payload_bytes());
}

TEST(FederationWire, ThroughWireIsExactForRawAndLossyOtherwise) {
  fl::Federation raw(small_cfg(CodecId::kRawF32));
  fl::Federation lossy(small_cfg(CodecId::kF16));
  util::Rng rng(31);
  std::vector<float> v(100);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto raw_rx = raw.through_wire(MessageKind::kModelPull, v,
                                       fl::wire::kServerSender, 0);
  EXPECT_EQ(raw_rx, v);
  const auto lossy_rx = lossy.through_wire(MessageKind::kModelPull, v,
                                           fl::wire::kServerSender, 0);
  ASSERT_EQ(lossy_rx.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(lossy_rx[i], v[i], 1e-3f);
  }
}

class WireThreadInvariance : public ::testing::Test {
 protected:
  void SetUp() override { prev_threads_ = util::global_pool().size() + 1; }
  void TearDown() override { util::reset_global_pool(prev_threads_); }

 private:
  std::size_t prev_threads_ = 1;
};

TEST_F(WireThreadInvariance, QInt8FedAvgIsThreadCountInvariantAndSmaller) {
  const auto run_with = [&](std::size_t threads, CodecId codec) {
    util::reset_global_pool(threads);
    fl::Federation fed(small_cfg(codec));
    fl::FedAvg algo(fed);
    fl::Trace trace = algo.run();
    return std::make_pair(std::move(trace), algo.global_params());
  };
  const auto [t1, p1] = run_with(1, CodecId::kQInt8);
  const auto [t4, p4] = run_with(4, CodecId::kQInt8);
  ASSERT_EQ(t1.records.size(), t4.records.size());
  for (std::size_t i = 0; i < t1.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.records[i].avg_local_test_acc,
                     t4.records[i].avg_local_test_acc);
    EXPECT_EQ(t1.records[i].bytes_up, t4.records[i].bytes_up);
    EXPECT_EQ(t1.records[i].bytes_down, t4.records[i].bytes_down);
  }
  ASSERT_EQ(p1.size(), p4.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i], p4[i]) << "params differ at " << i;
  }
  // And the lossy run moves >= 3x fewer billed bytes than raw_f32.
  const auto [raw_trace, raw_params] = run_with(1, CodecId::kRawF32);
  const std::uint64_t raw_bytes = raw_trace.records.back().bytes_up +
                                  raw_trace.records.back().bytes_down;
  const std::uint64_t q_bytes =
      t1.records.back().bytes_up + t1.records.back().bytes_down;
  EXPECT_GE(static_cast<double>(raw_bytes), 3.0 * static_cast<double>(q_bytes));
}

}  // namespace
}  // namespace fedclust

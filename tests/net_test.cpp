// The socket transport's trust boundary: frame encode/parse round trips,
// every-truncation and every-single-bit-flip rejection on a captured frame
// stream (the framing counterpart of wire_test.cpp's envelope bit-flip
// suite), short-read/short-write injection through a mock ByteStream,
// backoff-schedule purity, transport message codecs, the fault-plan
// backoff knobs shared between FaultEngine and the real transport, and the
// worker keeping what its handshake read past the welcome.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fl/fault.h"
#include "fl/federation.h"
#include "fl/wire.h"
#include "net/backoff.h"
#include "net/frame.h"
#include "net/message.h"
#include "net/socket.h"
#include "net/stream.h"
#include "net/worker.h"
#include "util/serialization.h"

namespace fedclust {
namespace {

using net::FrameReader;
using net::FrameStatus;
using net::IoStatus;

std::vector<std::uint8_t> some_body(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return b;
}

// ----------------------------------------------------------- frame basics

TEST(Frame, EncodeLayout) {
  const std::vector<std::uint8_t> body = some_body(5);
  const std::vector<std::uint8_t> f = net::frame_encode(body);
  ASSERT_EQ(f.size(), net::kFrameHeaderSize + body.size());
  // Little-endian magic in the first four bytes.
  EXPECT_EQ(f[0], 0xA3);
  EXPECT_EQ(f[1], 0xF7);
  EXPECT_EQ(f[2], 0xDC);
  EXPECT_EQ(f[3], 0xFE);
  EXPECT_TRUE(std::equal(body.begin(), body.end(),
                         f.begin() + net::kFrameHeaderSize));
}

TEST(Frame, RoundTripSingle) {
  const std::vector<std::uint8_t> body = some_body(300);
  const std::vector<std::uint8_t> f = net::frame_encode(body);
  FrameReader r;
  r.feed(f.data(), f.size());
  std::vector<std::uint8_t> out;
  EXPECT_EQ(r.next(out), FrameStatus::kOk);
  EXPECT_EQ(out, body);
  EXPECT_EQ(r.next(out), FrameStatus::kNeedMore);
  EXPECT_EQ(r.finish(), FrameStatus::kOk);
  EXPECT_FALSE(r.poisoned());
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(Frame, EmptyBodyRoundTrips) {
  const std::vector<std::uint8_t> f = net::frame_encode({});
  FrameReader r;
  r.feed(f.data(), f.size());
  std::vector<std::uint8_t> out{1, 2, 3};
  EXPECT_EQ(r.next(out), FrameStatus::kOk);
  EXPECT_TRUE(out.empty());
}

TEST(Frame, ByteAtATimeAndBackToBack) {
  // Three frames concatenated, delivered one byte per feed: reassembly must
  // be independent of chunking.
  std::vector<std::uint8_t> stream;
  for (int k = 0; k < 3; ++k) {
    const auto f = net::frame_encode(some_body(40 + 13 * k,
                                               static_cast<std::uint8_t>(k)));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameReader r;
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> out;
  for (const std::uint8_t byte : stream) {
    r.feed(&byte, 1);
    while (r.next(out) == FrameStatus::kOk) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(got[k], some_body(40 + 13 * k, static_cast<std::uint8_t>(k)));
  }
  EXPECT_EQ(r.finish(), FrameStatus::kOk);
}

TEST(Frame, OversizeLengthRejectedBeforeAllocation) {
  std::vector<std::uint8_t> f = net::frame_encode(some_body(8));
  // Rewrite the length field to something absurd.
  const std::uint32_t huge = net::kMaxFrameBody + 1;
  std::memcpy(f.data() + 4, &huge, 4);
  FrameReader r;
  r.feed(f.data(), f.size());
  std::vector<std::uint8_t> out;
  EXPECT_EQ(r.next(out), FrameStatus::kOversize);
  EXPECT_TRUE(r.poisoned());
  // Poison is sticky: feeding a pristine frame afterwards changes nothing.
  const auto good = net::frame_encode(some_body(8));
  r.feed(good.data(), good.size());
  EXPECT_EQ(r.next(out), FrameStatus::kOversize);
  EXPECT_EQ(r.finish(), FrameStatus::kOversize);
}

// ------------------------------------ exhaustive truncation and bit flips

TEST(Frame, EveryTruncationDetected) {
  // Every proper prefix of a frame must park at kNeedMore and report
  // kTruncated at EOF — no prefix may ever yield a body.
  const std::vector<std::uint8_t> body = some_body(67);
  const std::vector<std::uint8_t> f = net::frame_encode(body);
  for (std::size_t cut = 0; cut < f.size(); ++cut) {
    FrameReader r;
    r.feed(f.data(), cut);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(r.next(out), FrameStatus::kNeedMore) << "cut=" << cut;
    EXPECT_EQ(r.finish(), cut == 0 ? FrameStatus::kOk : FrameStatus::kTruncated)
        << "cut=" << cut;
  }
}

TEST(Frame, EverySingleBitFlipRejected) {
  // A captured two-frame stream with every single bit flipped, one at a
  // time: the reader must never deliver a corrupted body as kOk-with-
  // original-content, and for flips in the first frame must never deliver
  // the first body at all (damage there is always detectable).
  const std::vector<std::uint8_t> body0 = some_body(41, 1);
  const std::vector<std::uint8_t> body1 = some_body(29, 2);
  std::vector<std::uint8_t> stream = net::frame_encode(body0);
  {
    const auto f1 = net::frame_encode(body1);
    stream.insert(stream.end(), f1.begin(), f1.end());
  }
  const std::size_t frame0_size = net::kFrameHeaderSize + body0.size();

  for (std::size_t bit = 0; bit < stream.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = stream;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));

    FrameReader r;
    r.feed(damaged.data(), damaged.size());
    std::vector<std::uint8_t> out;
    const FrameStatus first = r.next(out);
    if (bit < frame0_size * 8) {
      // Damage inside frame 0: its body must not come out intact.
      EXPECT_NE(first, FrameStatus::kOk) << "bit=" << bit;
      if (bit < 32) {
        // Flips in the magic are reported as such (a length-field flip may
        // instead surface as kOversize, kBadCrc, or kNeedMore).
        EXPECT_EQ(first, FrameStatus::kBadMagic) << "bit=" << bit;
      }
      EXPECT_NE(r.finish(), FrameStatus::kOk) << "bit=" << bit;
    } else {
      // Frame 0 is clean and must still parse; the damaged frame 1 must
      // not produce its original body.
      EXPECT_EQ(first, FrameStatus::kOk) << "bit=" << bit;
      EXPECT_EQ(out, body0) << "bit=" << bit;
      const FrameStatus second = r.next(out);
      EXPECT_NE(second, FrameStatus::kOk) << "bit=" << bit;
      EXPECT_NE(r.finish(), FrameStatus::kOk) << "bit=" << bit;
    }
  }
}

// -------------------------------------------------- mock-stream injection

// Scripted ByteStream: serves reads from a canned byte sequence in
// caller-chosen chunk sizes, optionally ending in EOF or an error; records
// writes, honoring a max-bytes-per-write cap to exercise short writes.
class MockStream final : public net::ByteStream {
 public:
  std::vector<std::uint8_t> rx;       // bytes to serve
  std::size_t rx_chunk = 3;           // max bytes per read_some
  IoStatus rx_end = IoStatus::kEof;   // status once rx is exhausted
  std::vector<std::uint8_t> tx;       // bytes written
  std::size_t tx_chunk = 2;           // max bytes per write_some
  int tx_fail_after = -1;             // fail the Nth write call (-1 = never)

  IoStatus read_some(std::uint8_t* buf, std::size_t n,
                     std::size_t& got) override {
    got = 0;
    if (rx_pos_ >= rx.size()) return rx_end;
    got = std::min({n, rx_chunk, rx.size() - rx_pos_});
    std::memcpy(buf, rx.data() + rx_pos_, got);
    rx_pos_ += got;
    return IoStatus::kOk;
  }

  IoStatus write_some(const std::uint8_t* buf, std::size_t n,
                      std::size_t& put) override {
    put = 0;
    if (tx_fail_after >= 0 && tx_calls_++ >= tx_fail_after) {
      return IoStatus::kError;
    }
    put = std::min(n, tx_chunk);
    tx.insert(tx.end(), buf, buf + put);
    return IoStatus::kOk;
  }

 private:
  std::size_t rx_pos_ = 0;
  int tx_calls_ = 0;
};

TEST(Stream, ShortWritesComplete) {
  MockStream s;
  s.tx_chunk = 2;  // every write_some makes 2 bytes of progress at most
  const std::vector<std::uint8_t> body = some_body(95);
  ASSERT_EQ(net::write_frame(s, body), IoStatus::kOk);
  FrameReader r;
  r.feed(s.tx.data(), s.tx.size());
  std::vector<std::uint8_t> out;
  EXPECT_EQ(r.next(out), FrameStatus::kOk);
  EXPECT_EQ(out, body);
}

TEST(Stream, WriteFailurePropagates) {
  MockStream s;
  s.tx_fail_after = 4;
  EXPECT_EQ(net::write_frame(s, some_body(200)), IoStatus::kError);
}

TEST(Stream, ShortReadsReassemble) {
  MockStream s;
  s.rx = net::frame_encode(some_body(150, 9));
  s.rx_chunk = 1;  // worst case: one byte per read
  FrameReader r;
  std::vector<std::uint8_t> out;
  FrameStatus fst = FrameStatus::kNeedMore;
  ASSERT_EQ(net::read_frame(s, r, out, fst), IoStatus::kOk);
  EXPECT_EQ(fst, FrameStatus::kOk);
  EXPECT_EQ(out, some_body(150, 9));
}

TEST(Stream, EofMidFrameIsTruncation) {
  MockStream s;
  s.rx = net::frame_encode(some_body(80));
  s.rx.resize(s.rx.size() - 7);  // cut the tail; stream then EOFs
  FrameReader r;
  std::vector<std::uint8_t> out;
  FrameStatus fst = FrameStatus::kOk;
  EXPECT_EQ(net::read_frame(s, r, out, fst), IoStatus::kEof);
  EXPECT_EQ(fst, FrameStatus::kTruncated);
}

TEST(Stream, TimeoutSurfacesWithoutPoison) {
  MockStream s;
  const auto f = net::frame_encode(some_body(30));
  s.rx.assign(f.begin(), f.begin() + 5);
  s.rx_end = IoStatus::kTimeout;
  FrameReader r;
  std::vector<std::uint8_t> out;
  FrameStatus fst = FrameStatus::kOk;
  EXPECT_EQ(net::read_frame(s, r, out, fst), IoStatus::kTimeout);
  EXPECT_FALSE(r.poisoned());
  // The connection survived; the rest of the frame completes the read.
  MockStream rest;
  rest.rx.assign(f.begin() + 5, f.end());
  ASSERT_EQ(net::read_frame(rest, r, out, fst), IoStatus::kOk);
  EXPECT_EQ(out, some_body(30));
}

TEST(Stream, CorruptFrameSurfacesAsError) {
  MockStream s;
  s.rx = net::frame_encode(some_body(50));
  s.rx[net::kFrameHeaderSize + 10] ^= 0x40;  // flip one body bit
  FrameReader r;
  std::vector<std::uint8_t> out;
  FrameStatus fst = FrameStatus::kOk;
  EXPECT_EQ(net::read_frame(s, r, out, fst), IoStatus::kError);
  EXPECT_EQ(fst, FrameStatus::kBadCrc);
  EXPECT_TRUE(r.poisoned());
}

// ------------------------------------------------------- backoff schedule

TEST(Backoff, PureFunctionOfInputs) {
  net::BackoffPolicy p;
  for (std::uint64_t client : {0ull, 3ull, 17ull}) {
    for (std::uint64_t round : {0ull, 1ull, 9ull}) {
      for (std::uint64_t attempt : {1ull, 2ull, 5ull}) {
        const double a = p.delay_seconds(42, client, round, attempt);
        const double b = p.delay_seconds(42, client, round, attempt);
        EXPECT_EQ(a, b) << client << "/" << round << "/" << attempt;
        EXPECT_GT(a, 0.0);
      }
    }
  }
  // Different coordinates decorrelate (jitter streams are split per key).
  EXPECT_NE(p.delay_seconds(42, 1, 0, 1), p.delay_seconds(42, 2, 0, 1));
  EXPECT_NE(p.delay_seconds(42, 1, 0, 1), p.delay_seconds(43, 1, 0, 1));
}

TEST(Backoff, ExponentialShapeAndCap) {
  net::BackoffPolicy p;
  p.jitter = 0.0;  // isolate the deterministic schedule
  p.base = 0.25;
  p.mult = 2.0;
  p.cap_seconds = 10.0;
  EXPECT_EQ(p.delay_seconds(1, 0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.delay_seconds(1, 0, 0, 1), 0.25);
  EXPECT_DOUBLE_EQ(p.delay_seconds(1, 0, 0, 2), 0.5);
  EXPECT_DOUBLE_EQ(p.delay_seconds(1, 0, 0, 3), 1.0);
  EXPECT_DOUBLE_EQ(p.delay_seconds(1, 0, 0, 30), 10.0);  // capped
}

TEST(Backoff, DefaultsMatchSimulatedCommSchedule) {
  // federation.cpp's simulated retry clock walks base * mult^k with the
  // same defaults; the transport reproduces that schedule exactly when
  // jitter is off.
  fl::FaultPlan plan;
  const net::BackoffPolicy p = net::BackoffPolicy::from_fault_plan(plan);
  EXPECT_DOUBLE_EQ(p.base, 0.25);
  EXPECT_DOUBLE_EQ(p.mult, 2.0);
  EXPECT_EQ(p.max_attempts, plan.max_retries + 1);
}

TEST(Backoff, JitterBoundedByFraction) {
  net::BackoffPolicy p;
  p.jitter = 0.1;
  for (std::uint64_t a = 1; a <= 4; ++a) {
    const double base = [&] {
      net::BackoffPolicy q = p;
      q.jitter = 0.0;
      return q.delay_seconds(7, 5, 2, a);
    }();
    const double d = p.delay_seconds(7, 5, 2, a);
    EXPECT_GE(d, base);
    EXPECT_LE(d, base * 1.1000001);
  }
}

// ---------------------------------------------- fault-plan backoff knobs

TEST(FaultPlanBackoff, ParseDescribeRoundTrip) {
  const fl::FaultPlan plan =
      fl::FaultPlan::parse("comm=0.2,retries=4,backoff_base=0.5,"
                           "backoff_mult=3");
  EXPECT_DOUBLE_EQ(plan.backoff_base, 0.5);
  EXPECT_DOUBLE_EQ(plan.backoff_mult, 3.0);
  EXPECT_EQ(plan.max_retries, 4u);
  // Non-default knobs show up in the human-readable plan description.
  const std::string desc = plan.describe();
  EXPECT_NE(desc.find("backoff_base=0.5"), std::string::npos) << desc;
  EXPECT_NE(desc.find("backoff_mult=3"), std::string::npos) << desc;

  const net::BackoffPolicy p = net::BackoffPolicy::from_fault_plan(plan);
  EXPECT_DOUBLE_EQ(p.base, 0.5);
  EXPECT_DOUBLE_EQ(p.mult, 3.0);
  EXPECT_EQ(p.max_attempts, 5u);
}

TEST(FaultPlanBackoff, DefaultsOmittedFromDescribe) {
  EXPECT_EQ(fl::FaultPlan{}.describe().find("backoff"), std::string::npos);
}

TEST(FaultPlanBackoff, ValidationRejectsNonsense) {
  EXPECT_THROW(fl::FaultPlan::parse("backoff_base=0"), std::invalid_argument);
  EXPECT_THROW(fl::FaultPlan::parse("backoff_base=-1"),
               std::invalid_argument);
  EXPECT_THROW(fl::FaultPlan::parse("backoff_mult=0.5"),
               std::invalid_argument);
}

// ------------------------------------------------------- message codecs

TEST(Message, HelloWelcomeHeartbeatErrorRoundTrip) {
  net::HelloMsg h;
  h.fingerprint = 0xDEADBEEFCAFEF00Dull;
  h.seed = 7;
  h.resume_round = 5;
  h.calls_served = 123;
  net::HelloMsg h2;
  ASSERT_TRUE(net::decode_hello(net::encode_hello(h), h2));
  EXPECT_EQ(h2.fingerprint, h.fingerprint);
  EXPECT_EQ(h2.seed, 7u);
  EXPECT_EQ(h2.resume_round, 5u);
  EXPECT_EQ(h2.calls_served, 123u);

  net::WelcomeMsg w;
  w.worker_id = 3;
  w.next_round = 9;
  w.n_workers = 4;
  net::WelcomeMsg w2;
  ASSERT_TRUE(net::decode_welcome(net::encode_welcome(w), w2));
  EXPECT_EQ(w2.worker_id, 3u);
  EXPECT_EQ(w2.next_round, 9u);
  EXPECT_EQ(w2.n_workers, 4u);

  net::HeartbeatMsg hb;
  hb.worker_id = 2;
  hb.calls_served = 44;
  net::HeartbeatMsg hb2;
  ASSERT_TRUE(net::decode_heartbeat(net::encode_heartbeat(hb), hb2));
  EXPECT_EQ(hb2.worker_id, 2u);
  EXPECT_EQ(hb2.calls_served, 44u);

  net::ErrorMsg e;
  e.code = 6;
  e.reason = "envelope rejected";
  net::ErrorMsg e2;
  ASSERT_TRUE(net::decode_error(net::encode_error(e), e2));
  EXPECT_EQ(e2.code, 6u);
  EXPECT_EQ(e2.reason, "envelope rejected");
}

const std::vector<float> kReqParams{1.5f, -2.25f, 0.0f, 1e-7f};

net::TrainReqMsg train_req_with_prox() {
  net::TrainReqMsg m;
  m.client = 11;
  m.round = 4;
  m.opts.epochs = 3;
  m.opts.batch_size = 16;
  m.opts.lr = 0.05f;
  m.opts.prox_mu = 0.1f;
  m.rng = util::Rng(99).split(5).state();
  m.start_env = fl::wire::encode(fl::wire::MessageKind::kModelPull,
                                 fl::wire::CodecId::kRawF32,
                                 fl::wire::kServerSender, 4, kReqParams);
  m.prox_env = m.start_env;
  return m;
}

TEST(Message, TrainReqRoundTripWithOptionals) {
  const std::vector<float>& params = kReqParams;
  const net::TrainReqMsg m = train_req_with_prox();

  net::TrainReqMsg out;
  ASSERT_TRUE(net::decode_train_req(net::encode_train_req(m), out));
  EXPECT_EQ(out.client, 11u);
  EXPECT_EQ(out.round, 4u);
  EXPECT_EQ(out.opts.epochs, 3u);
  EXPECT_EQ(out.opts.batch_size, 16u);
  EXPECT_EQ(out.opts.lr, 0.05f);
  EXPECT_EQ(out.opts.prox_mu, 0.1f);
  EXPECT_EQ(out.rng, m.rng);
  ASSERT_TRUE(out.prox_env.has_value());
  EXPECT_FALSE(out.offset_env.has_value());
  // The embedded envelope survives byte-exactly and still decodes.
  EXPECT_EQ(out.start_env, m.start_env);
  fl::wire::Envelope env;
  ASSERT_EQ(fl::wire::try_decode(out.start_env.data(), out.start_env.size(),
                                 env),
            fl::wire::DecodeStatus::kOk);
  EXPECT_EQ(env.payload, params);
}

// Golden encoding with every LocalTrainOptions field set (computed by a
// build that wrote each option by hand): the field list must keep the
// TrainReq layout byte for byte.
TEST(Message, TrainReqEncodingIsStable) {
  net::TrainReqMsg m = train_req_with_prox();
  m.opts.momentum = 0.9f;
  m.opts.weight_decay = 1e-4f;
  m.opts.clip_grad_norm = 5.0f;
  const std::vector<std::uint8_t> body = net::encode_train_req(m);
  EXPECT_EQ(body.size(), 231u);
  EXPECT_EQ(util::crc32c(body.data(), body.size()), 0x9245A24Eu);

  net::TrainReqMsg out;
  ASSERT_TRUE(net::decode_train_req(body, out));
  EXPECT_EQ(out.opts.momentum, 0.9f);
  EXPECT_EQ(out.opts.weight_decay, 1e-4f);
  EXPECT_EQ(out.opts.clip_grad_norm, 5.0f);
  EXPECT_EQ(net::encode_train_req(out), body);
}

TEST(Message, TrainRespRoundTripBothArms) {
  net::TrainRespMsg ok;
  ok.client = 8;
  ok.round = 2;
  ok.ok = true;
  ok.loss = 1.25f;
  ok.train_us = 777;
  ok.params_env = fl::wire::encode(fl::wire::MessageKind::kUpdatePush,
                                   fl::wire::CodecId::kRawF32, 8, 2,
                                   std::vector<float>{3.0f, 4.0f});
  net::TrainRespMsg out;
  ASSERT_TRUE(net::decode_train_resp(net::encode_train_resp(ok), out));
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.loss, 1.25f);
  EXPECT_EQ(out.train_us, 777u);
  EXPECT_EQ(out.params_env, ok.params_env);

  net::TrainRespMsg fail;
  fail.client = 8;
  fail.round = 2;
  fail.ok = false;
  ASSERT_TRUE(net::decode_train_resp(net::encode_train_resp(fail), out));
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.params_env.empty());
}

TEST(Message, MalformedBodiesRejected) {
  net::TrainReqMsg req;
  net::HelloMsg hello;
  // Empty, wrong type byte, and truncated bodies all decode to false.
  EXPECT_FALSE(net::decode_hello({}, hello));
  EXPECT_FALSE(net::decode_train_req(net::encode_hello(net::HelloMsg{}),
                                     req));
  std::vector<std::uint8_t> cut = net::encode_hello(net::HelloMsg{});
  cut.pop_back();
  EXPECT_FALSE(net::decode_hello(cut, hello));
  // Trailing garbage is rejected too (no silent over-read).
  std::vector<std::uint8_t> extra = net::encode_hello(net::HelloMsg{});
  extra.push_back(0);
  EXPECT_FALSE(net::decode_hello(extra, hello));
  EXPECT_FALSE(net::peek_type({}).has_value());
  EXPECT_FALSE(net::peek_type({0xEE}).has_value());
}

TEST(Message, EveryTruncationOfTrainReqRejected) {
  net::TrainReqMsg m;
  m.client = 1;
  m.round = 1;
  m.rng = util::Rng(1).state();
  m.start_env = fl::wire::encode(fl::wire::MessageKind::kModelPull,
                                 fl::wire::CodecId::kRawF32,
                                 fl::wire::kServerSender, 1,
                                 std::vector<float>{1.0f, 2.0f, 3.0f});
  const std::vector<std::uint8_t> full = net::encode_train_req(m);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> body(full.begin(), full.begin() + cut);
    net::TrainReqMsg out;
    EXPECT_FALSE(net::decode_train_req(body, out)) << "cut=" << cut;
  }
  net::TrainReqMsg out;
  EXPECT_TRUE(net::decode_train_req(full, out));
}

// ----------------------------------------------------------- address spec

TEST(Address, ParseForms) {
  const net::Address u = net::Address::parse("unix:/tmp/x.sock");
  EXPECT_TRUE(u.is_unix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.describe(), "unix:/tmp/x.sock");

  const net::Address t = net::Address::parse("tcp:127.0.0.1:7070");
  EXPECT_FALSE(t.is_unix);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7070);

  const net::Address bare = net::Address::parse("localhost:9");
  EXPECT_EQ(bare.host, "localhost");
  EXPECT_EQ(bare.port, 9);

  EXPECT_THROW(net::Address::parse("unix:"), std::invalid_argument);
  EXPECT_THROW(net::Address::parse("tcp:hostonly"), std::invalid_argument);
  EXPECT_THROW(net::Address::parse("tcp:h:99999"), std::invalid_argument);
  EXPECT_THROW(net::Address::parse("tcp:h:"), std::invalid_argument);
  EXPECT_THROW(net::Address::parse(""), std::invalid_argument);
}

// ------------------------------------------------------------ worker state

TEST(WorkerState, SealedFileRoundTripsAndEveryDefectStartsFresh) {
  const std::string path = ::testing::TempDir() + "net_test_worker.state";
  net::WorkerState st;
  st.fingerprint = 0x0123456789abcdefULL;
  st.seed = 13;
  st.last_round = 7;
  st.calls_served = 42;
  net::save_worker_state(path, st);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  net::WorkerState got;
  ASSERT_TRUE(net::load_worker_state(path, st.fingerprint, st.seed, got));
  EXPECT_EQ(got.fingerprint, st.fingerprint);
  EXPECT_EQ(got.seed, st.seed);
  EXPECT_EQ(got.last_round, 7u);
  EXPECT_EQ(got.calls_served, 42u);

  const std::string good = util::read_file(path);
  ASSERT_EQ(good.size(), util::kSealHeaderBytes + 4 * 8);
  // Loading `bytes` must fail and leave `out` untouched.
  const auto starts_fresh = [&](const std::string& bytes,
                                std::uint64_t fingerprint,
                                std::uint64_t seed) {
    util::write_file(path, bytes);
    net::WorkerState out;
    out.last_round = 999;
    return !net::load_worker_state(path, fingerprint, seed, out) &&
           out.last_round == 999;
  };
  const auto damaged = [&](const std::string& bytes) {
    return starts_fresh(bytes, st.fingerprint, st.seed);
  };
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_TRUE(damaged(good.substr(0, len))) << "prefix of " << len;
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = good;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      EXPECT_TRUE(damaged(bytes)) << "flip of byte " << i << " bit " << bit;
    }
  }
  EXPECT_TRUE(damaged(good + '\0'));
  // Another experiment's state file.
  EXPECT_TRUE(starts_fresh(good, st.fingerprint + 1, st.seed));
  EXPECT_TRUE(starts_fresh(good, st.fingerprint, st.seed + 1));
  // The version 1 layout: magic, u32 version, the four fields, trailing CRC.
  std::vector<std::uint8_t> v1;
  util::put_u32_le(v1, 0xFC3057A7u);
  util::put_u32_le(v1, 1);
  for (const std::uint64_t v : {st.fingerprint, st.seed, st.last_round,
                                st.calls_served}) {
    util::put_u64_le(v1, v);
  }
  util::put_u32_le(v1, util::crc32c(v1.data(), v1.size()));
  EXPECT_TRUE(damaged(std::string(v1.begin(), v1.end())));
  // No file yet: a first start.
  std::filesystem::remove(path);
  EXPECT_FALSE(net::load_worker_state(path, st.fingerprint, st.seed, got));

  // A failed save is logged, never thrown: the worker keeps serving.
  EXPECT_NO_THROW(net::save_worker_state("/nonexistent-dir-net/w.state", st));
}

// ------------------------------------------------------------ worker loop

// The server may send the first TrainReq right behind its welcome, so the
// worker's handshake can read into the request. Here both go out in one
// write; the worker must still serve the request.
TEST(WorkerLoop, ServesRequestSentWithTheWelcome) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("fmnist");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 2;
  cfg.fed.train_per_client = 4;
  cfg.fed.test_per_client = 2;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 1;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  fl::Federation fed(cfg);

  const std::string path = ::testing::TempDir() + "net_test_" +
                           std::to_string(::getpid()) + ".sock";
  const std::string addr = "unix:" + path;
  const int lfd = net::listen_on(net::Address::parse(addr));
  net::WorkerOptions opts;
  opts.connect = addr;
  opts.io_timeout_ms = 5000;
  opts.connect_attempts = 1;
  net::WorkerLoop loop(fed, opts);
  int rc = -1;
  std::thread worker([&] { rc = loop.run(); });

  bool served = false;
  const int fd = net::wait_readable(lfd, 5000) ? net::accept_conn(lfd) : -1;
  if (fd >= 0) {
    net::set_recv_timeout(fd, 5000);
    net::FdStream s(fd);
    FrameReader reader;
    std::vector<std::uint8_t> body;
    FrameStatus fst = FrameStatus::kNeedMore;
    net::HelloMsg hello;
    net::TrainReqMsg req;
    req.opts = cfg.local;
    req.rng = util::Rng(3).state();
    req.start_env = fl::wire::encode(
        fl::wire::MessageKind::kModelPull, fl::wire::CodecId::kRawF32,
        fl::wire::kServerSender, 0, fed.init_params());
    std::vector<std::uint8_t> bytes =
        net::frame_encode(net::encode_welcome(net::WelcomeMsg{}));
    const auto req_frame = net::frame_encode(net::encode_train_req(req));
    bytes.insert(bytes.end(), req_frame.begin(), req_frame.end());
    net::TrainRespMsg resp;
    served = net::read_frame(s, reader, body, fst) == IoStatus::kOk &&
             net::decode_hello(body, hello) &&
             net::write_all(s, bytes.data(), bytes.size()) == IoStatus::kOk &&
             net::read_frame(s, reader, body, fst) == IoStatus::kOk &&
             net::decode_train_resp(body, resp) && resp.ok;
    net::write_frame(s, net::encode_shutdown());
    net::close_fd(fd);
  }
  net::close_fd(lfd);
  ::unlink(path.c_str());
  worker.join();
  EXPECT_TRUE(served);
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace fedclust

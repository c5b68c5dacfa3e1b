#pragma once

// Transport control messages — the bodies that travel inside net frames.
//
// A frame body is one message: a type byte followed by little-endian fields
// (util::BinaryWriter / BinaryReader; blobs and strings carry a u32
// length). Model parameters never appear as raw floats
// here; they ride inside wire:: envelopes (always raw_f32 — the experiment
// codec is simulated server-side), embedded as length-prefixed byte blobs.
// That gives two independent integrity stages: the frame CRC over the whole
// body, then the envelope CRC over each parameter vector, mirroring the
// in-process quarantine pipeline.
//
// Every decode is bounds-checked; decode_* return false on any structural
// problem (short body, bad type, trailing garbage, a length that overruns
// the body) and never read out of range or allocate past the body's size. Decoding the *embedded envelopes* is the
// caller's job via wire::try_decode so failures can be journalled with the
// precise DecodeStatus.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fl/client.h"
#include "util/rng.h"

namespace fedclust::net {

inline constexpr std::uint16_t kProtocolVersion = 1;

enum class MsgType : std::uint8_t {
  kHello = 1,      // worker -> server: identify + config fingerprint
  kWelcome = 2,    // server -> worker: assigned id + campaign position
  kTrainReq = 3,   // server -> worker: one TrainCall
  kTrainResp = 4,  // worker -> server: one TrainOutcome
  kHeartbeat = 5,  // worker -> server: liveness while idle
  kShutdown = 6,   // server -> worker: campaign over, exit cleanly
  kError = 7,      // worker -> server: request could not be served
};

// Peeks the type byte; returns std::nullopt for empty bodies or unknown
// type values.
std::optional<MsgType> peek_type(const std::vector<std::uint8_t>& body);

// ---- kHello ------------------------------------------------------------

struct HelloMsg {
  std::uint16_t proto = kProtocolVersion;
  std::uint64_t fingerprint = 0;   // canonical config fingerprint
  std::uint64_t seed = 0;          // experiment seed (cross-check)
  std::uint64_t resume_round = 0;  // from the worker state file, else 0
  std::uint64_t calls_served = 0;  // lifetime counter across restarts
};

std::vector<std::uint8_t> encode_hello(const HelloMsg& m);
bool decode_hello(const std::vector<std::uint8_t>& body, HelloMsg& out);

// ---- kWelcome ----------------------------------------------------------

struct WelcomeMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t next_round = 0;  // round the server will dispatch next
  std::uint32_t n_workers = 0;   // peers the server expects
};

std::vector<std::uint8_t> encode_welcome(const WelcomeMsg& m);
bool decode_welcome(const std::vector<std::uint8_t>& body, WelcomeMsg& out);

// ---- kTrainReq ---------------------------------------------------------

// Wire image of fl::TrainCall. The start / prox_ref / grad_offset vectors
// are shipped as embedded wire envelopes (kModelPull, raw_f32, sender =
// kServerSender, round = call round) so each gets its own CRC stage.
struct TrainReqMsg {
  std::uint64_t client = 0;
  std::uint64_t round = 0;
  fl::LocalTrainOptions opts;
  util::RngState rng;
  std::vector<std::uint8_t> start_env;
  std::optional<std::vector<std::uint8_t>> prox_env;
  std::optional<std::vector<std::uint8_t>> offset_env;
};

std::vector<std::uint8_t> encode_train_req(const TrainReqMsg& m);
bool decode_train_req(const std::vector<std::uint8_t>& body, TrainReqMsg& out);

// ---- kTrainResp --------------------------------------------------------

// ok == true carries the trained parameters as an embedded kUpdatePush
// raw_f32 envelope (sender = client). ok == false means the worker could
// not serve the call (e.g. an embedded envelope failed its CRC).
struct TrainRespMsg {
  std::uint64_t client = 0;
  std::uint64_t round = 0;
  bool ok = false;
  float loss = 0.0f;
  std::uint64_t train_us = 0;
  std::vector<std::uint8_t> params_env;  // empty when !ok
};

std::vector<std::uint8_t> encode_train_resp(const TrainRespMsg& m);
bool decode_train_resp(const std::vector<std::uint8_t>& body,
                       TrainRespMsg& out);

// ---- kHeartbeat --------------------------------------------------------

struct HeartbeatMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t calls_served = 0;
};

std::vector<std::uint8_t> encode_heartbeat(const HeartbeatMsg& m);
bool decode_heartbeat(const std::vector<std::uint8_t>& body,
                      HeartbeatMsg& out);

// ---- kShutdown ---------------------------------------------------------

std::vector<std::uint8_t> encode_shutdown();

// ---- kError ------------------------------------------------------------

struct ErrorMsg {
  std::uint32_t code = 0;  // wire::DecodeStatus ordinal or 0 (unspecified)
  std::string reason;
};

std::vector<std::uint8_t> encode_error(const ErrorMsg& m);
bool decode_error(const std::vector<std::uint8_t>& body, ErrorMsg& out);

}  // namespace fedclust::net

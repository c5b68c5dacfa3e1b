#include "net/worker.h"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "fl/federation.h"
#include "fl/wire.h"
#include "net/message.h"
#include "net/socket.h"
#include "net/stream.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/serialization.h"
#include "util/signal.h"
#include "util/timer.h"

namespace fedclust::net {

namespace {

constexpr std::uint32_t kStateMagic = 0xFC3057A7u;
// v2: the util::seal frame around four u64 fields; v1 files are rejected.
constexpr std::uint16_t kStateVersion = 2;

}  // namespace

bool load_worker_state(const std::string& path, std::uint64_t fingerprint,
                       std::uint64_t seed, WorkerState& out) {
  if (!std::filesystem::exists(path)) return false;  // first start
  WorkerState st;
  try {
    const std::string file = util::read_file(path);
    util::BinaryReader r(util::unseal(file, kStateMagic, kStateVersion));
    st.fingerprint = r.read_u64();
    st.seed = r.read_u64();
    st.last_round = r.read_u64();
    st.calls_served = r.read_u64();
    if (!r.done()) {
      throw std::runtime_error(std::to_string(r.remaining()) +
                               " bytes after the four fields");
    }
  } catch (const std::runtime_error& e) {
    FC_LOG_WARN << "worker: ignoring state file " << path << ": "
                << e.what();
    return false;
  }
  // A state file from a different experiment must not seed a resume.
  if (st.fingerprint != fingerprint || st.seed != seed) return false;
  out = st;
  return true;
}

void save_worker_state(const std::string& path, const WorkerState& st) {
  util::BinaryWriter w;
  w.write_u64(st.fingerprint);
  w.write_u64(st.seed);
  w.write_u64(st.last_round);
  w.write_u64(st.calls_served);
  try {
    util::write_file(path,
                     util::seal(kStateMagic, kStateVersion, w.view()));
  } catch (const std::runtime_error& e) {
    FC_LOG_WARN << "worker: failed saving state file: " << e.what();
  }
}

WorkerLoop::WorkerLoop(fl::Federation& fed, WorkerOptions opts)
    : fed_(fed), opts_(std::move(opts)) {
  state_.fingerprint = opts_.fingerprint;
  state_.seed = opts_.seed;
}

int WorkerLoop::connect_and_handshake(FrameReader& reader) {
  const Address addr = Address::parse(opts_.connect);
  for (int attempt = 0; attempt < opts_.connect_attempts; ++attempt) {
    if (util::shutdown_requested()) return -1;
    if (attempt > 0) {
      const double d = opts_.backoff.delay_seconds(
          opts_.seed, /*client=*/0, /*round=*/0,
          static_cast<std::uint64_t>(attempt));
      std::this_thread::sleep_for(std::chrono::duration<double>(d));
    }
    const int fd = connect_to(addr);
    if (fd < 0) continue;
    set_recv_timeout(fd, opts_.io_timeout_ms);
    set_send_timeout(fd, opts_.io_timeout_ms);

    HelloMsg hello;
    hello.proto = kProtocolVersion;
    hello.fingerprint = opts_.fingerprint;
    hello.seed = opts_.seed;
    hello.resume_round = state_.last_round;
    hello.calls_served = state_.calls_served;

    FdStream s(fd);
    reader = FrameReader();
    std::vector<std::uint8_t> body;
    FrameStatus fst = FrameStatus::kNeedMore;
    WelcomeMsg welcome;
    if (write_frame(s, encode_hello(hello)) != IoStatus::kOk ||
        read_frame(s, reader, body, fst) != IoStatus::kOk ||
        !decode_welcome(body, welcome)) {
      close_fd(fd);
      continue;
    }
    worker_id_ = welcome.worker_id;
    FC_LOG_INFO << "worker " << worker_id_ << ": connected to "
                << addr.describe() << " (server at round "
                << welcome.next_round << ", resume from round "
                << state_.last_round << ", served " << state_.calls_served
                << ")";
    return fd;
  }
  return -1;
}

bool WorkerLoop::serve(int fd, const std::vector<std::uint8_t>& body) {
  using fl::wire::DecodeStatus;
  FdStream s(fd);

  TrainReqMsg req;
  if (!decode_train_req(body, req)) {
    ErrorMsg err;
    err.code = 0;
    err.reason = "train_req: malformed body";
    write_frame(s, encode_error(err));
    return true;
  }

  // Second integrity stage: each embedded parameter vector carries its own
  // wire-envelope CRC, verified before a single float is trusted.
  fl::wire::Envelope start, prox, offset;
  DecodeStatus ds = fl::wire::try_decode(req.start_env.data(),
                                         req.start_env.size(), start);
  if (ds == DecodeStatus::kOk && req.prox_env) {
    ds = fl::wire::try_decode(req.prox_env->data(), req.prox_env->size(),
                              prox);
  }
  if (ds == DecodeStatus::kOk && req.offset_env) {
    ds = fl::wire::try_decode(req.offset_env->data(), req.offset_env->size(),
                              offset);
  }
  if (ds != DecodeStatus::kOk) {
    ErrorMsg err;
    err.code = static_cast<std::uint32_t>(ds);
    err.reason = std::string("train_req: envelope rejected (") +
                 fl::wire::decode_status_name(ds) + ")";
    write_frame(s, encode_error(err));
    return true;
  }

  nn::Model& ws = fed_.workspace();
  ws.set_flat_params(start.payload);
  util::Rng rng = util::Rng::from_state(req.rng);
  const std::int64_t t0 = util::process_elapsed_micros();
  const float loss = fed_.client(static_cast<std::size_t>(req.client))
                         ->train(ws, req.opts, rng,
                                 req.prox_env ? &prox.payload : nullptr,
                                 req.offset_env ? &offset.payload : nullptr);
  const std::int64_t t1 = util::process_elapsed_micros();

  TrainRespMsg resp;
  resp.client = req.client;
  resp.round = req.round;
  resp.ok = true;
  resp.loss = loss;
  resp.train_us = static_cast<std::uint64_t>(t1 - t0);
  resp.params_env = fl::wire::encode(fl::wire::MessageKind::kUpdatePush,
                                     fl::wire::CodecId::kRawF32, req.client,
                                     req.round, ws.flat_params());
  if (write_frame(s, encode_train_resp(resp)) != IoStatus::kOk) return false;

  OBS_COUNTER_ADD("net.calls_served", 1);
  state_.last_round = req.round;
  state_.calls_served += 1;
  if (!opts_.state_path.empty()) save_worker_state(opts_.state_path, state_);
  return true;
}

int WorkerLoop::run() {
  if (!opts_.state_path.empty() &&
      load_worker_state(opts_.state_path, opts_.fingerprint, opts_.seed,
                        state_)) {
    FC_LOG_INFO << "worker: resuming from state file (round "
                << state_.last_round << ", served " << state_.calls_served
                << ")";
  }

  FrameReader reader;
  int fd = connect_and_handshake(reader);
  if (fd < 0) {
    FC_LOG_ERROR << "worker: could not reach server at " << opts_.connect;
    return 1;
  }

  std::vector<std::uint8_t> body;
  double last_beat = util::process_elapsed_seconds();
  while (true) {
    if (util::shutdown_requested()) {
      FC_LOG_INFO << "worker " << worker_id_ << ": shutdown requested";
      if (!opts_.state_path.empty()) {
        save_worker_state(opts_.state_path, state_);
      }
      close_fd(fd);
      return 0;
    }

    // Serve every complete frame already buffered before blocking on the
    // socket: the handshake may have read past the welcome into the
    // server's first request.
    bool conn_dead = false;
    while (!conn_dead) {
      const FrameStatus fst = reader.next(body);
      if (fst == FrameStatus::kNeedMore) break;
      if (fst != FrameStatus::kOk) {
        FC_LOG_WARN << "worker " << worker_id_ << ": frame rejected ("
                    << frame_status_name(fst) << "); reconnecting";
        conn_dead = true;
        break;
      }
      const std::optional<MsgType> type = peek_type(body);
      if (!type) continue;
      if (*type == MsgType::kShutdown) {
        FC_LOG_INFO << "worker " << worker_id_ << ": shutdown from server, "
                    << "served " << state_.calls_served << " call(s)";
        if (!opts_.state_path.empty()) {
          save_worker_state(opts_.state_path, state_);
        }
        close_fd(fd);
        return 0;
      }
      if (*type == MsgType::kTrainReq) {
        if (!serve(fd, body)) {
          conn_dead = true;
          break;
        }
        last_beat = util::process_elapsed_seconds();
      }
      // Anything else (stray welcome/heartbeat) is ignored.
    }
    if (conn_dead) {
      close_fd(fd);
      fd = connect_and_handshake(reader);
      if (fd < 0) return 1;
      continue;
    }

    bool readable = false;
    try {
      readable = wait_readable(fd, opts_.heartbeat_ms);
    } catch (const std::exception&) {
      readable = false;
    }
    if (!readable) {
      const double now = util::process_elapsed_seconds();
      if ((now - last_beat) * 1000.0 >= opts_.heartbeat_ms) {
        HeartbeatMsg hb;
        hb.worker_id = worker_id_;
        hb.calls_served = state_.calls_served;
        FdStream s(fd);
        write_frame(s, encode_heartbeat(hb));
        last_beat = now;
      }
      continue;
    }

    std::uint8_t chunk[16 * 1024];
    std::size_t got = 0;
    FdStream s(fd);
    const IoStatus ist = s.read_some(chunk, sizeof(chunk), got);
    if (ist == IoStatus::kTimeout) continue;
    if (ist != IoStatus::kOk) {
      FC_LOG_WARN << "worker " << worker_id_
                  << ": connection lost; reconnecting";
      close_fd(fd);
      fd = connect_and_handshake(reader);
      if (fd < 0) return 1;
      continue;
    }
    reader.feed(chunk, got);
  }
}

}  // namespace fedclust::net

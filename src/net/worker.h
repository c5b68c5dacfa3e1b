#pragma once

// net::WorkerLoop — the client side of the socket transport.
//
// A worker process rebuilds the identical Federation from the shared CLI
// config (synthetic data and client populations are pure functions of the
// seed), connects to the server, and serves TrainReq messages: load the
// shipped start parameters into the workspace, reconstruct the pre-split
// RNG stream from its serialized state, run SimClient::train, reply with
// the resulting parameters. All stochastic *decisions* stay on the server;
// the worker only replays pure computation, which is what makes any
// assignment of calls to workers bit-identical.
//
// Crash-restart: after every served call the worker persists a tiny state
// file (fingerprint, last round, calls served). A worker restarted after
// kill -9 reloads it, reconnects mid-campaign, and announces the resume
// point in its hello — the server journals the restart and immediately
// hands it requeued calls. The model state itself needs no recovery: every
// TrainReq is self-contained.

#include <cstdint>
#include <string>
#include <vector>

#include "net/backoff.h"
#include "net/frame.h"

namespace fedclust::fl {
class Federation;
}

namespace fedclust::net {

struct WorkerOptions {
  std::string connect;            // server address spec
  int io_timeout_ms = 30000;      // recv timeout; idle gaps send heartbeats
  int heartbeat_ms = 1000;        // idle heartbeat period
  std::string state_path;         // crash-restart state file ("" = off)
  int connect_attempts = 10;      // initial / re-connect retry budget
  BackoffPolicy backoff;          // connect retry schedule
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;
};

// Durable worker progress, persisted after every served call.
struct WorkerState {
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint64_t last_round = 0;
  std::uint64_t calls_served = 0;
};

// Loads/saves the state file: a util::seal frame (version 2) around the four
// fields, replaced atomically by util::write_file. load returns false on a
// missing file, a damaged or older-version file, or a config mismatch —
// callers start fresh. save logs a warning when any step of the write
// fails, and the worker keeps serving.
bool load_worker_state(const std::string& path, std::uint64_t fingerprint,
                       std::uint64_t seed, WorkerState& out);
void save_worker_state(const std::string& path, const WorkerState& st);

class WorkerLoop {
 public:
  WorkerLoop(fl::Federation& fed, WorkerOptions opts);

  // Serves until the server sends kShutdown (returns 0), the connection is
  // lost beyond the reconnect budget (returns 1), or a shutdown signal
  // arrives (returns 0 after persisting state).
  int run();

 private:
  // Connect + hello/welcome handshake; returns the connected fd or -1.
  // Resets `reader`; on success it keeps whatever the handshake read past
  // the welcome, which the caller must parse before reading again.
  int connect_and_handshake(FrameReader& reader);

  // Serves one TrainReq; false when the reply could not be sent.
  bool serve(int fd, const std::vector<std::uint8_t>& body);

  fl::Federation& fed_;
  WorkerOptions opts_;
  WorkerState state_;
  std::uint32_t worker_id_ = 0;
};

}  // namespace fedclust::net

#pragma once

// net::ServerTransport — the socket implementation of fl::Transport.
//
// The server owns the campaign (Federation, sampling, billing, aggregation)
// and farms out only the pure local-training computation. execute() is an
// event loop over poll(2): it dispatches TrainCalls to live workers, one
// call in flight per worker, watches every connection for responses and
// heartbeats, detects crashed or hung workers (EOF / framing damage /
// heartbeat deadline), and requeues their in-flight calls onto surviving
// workers with deterministic exponential backoff. A call whose retry
// budget runs out is reported ok = false — the caller bills it as a lost
// update; the campaign never aborts because a worker died.
//
// Workers may join mid-campaign (crash-restart): a handshake on the listen
// socket during execute() admits them immediately and they start taking
// requeued calls. Supervision telemetry flows through the usual channels —
// net.* counters and kConnect/kReconnect/kHeartbeatMissed/kWorkerRestart/
// kFrameReject journal rows (worker id in the client slot).

#include <cstdint>
#include <string>
#include <vector>

#include "fl/transport.h"
#include "net/backoff.h"
#include "net/frame.h"
#include "net/socket.h"

namespace fedclust::net {

struct ServerOptions {
  std::string listen;              // address spec (unix:/path or tcp:host:port)
  std::size_t expect_workers = 1;  // handshakes to wait for before round 0
  int io_timeout_ms = 30000;       // heartbeat deadline; also send timeout.
                                   // Must exceed the worst-case single-call
                                   // training time — workers are silent
                                   // while they train.
  int accept_timeout_ms = 60000;   // wait_for_workers() budget
  BackoffPolicy backoff;           // requeue schedule (from the fault plan)
  std::uint64_t seed = 0;          // experiment seed (handshake cross-check)
  std::uint64_t fingerprint = 0;   // canonical config fingerprint
};

class ServerTransport final : public fl::Transport {
 public:
  explicit ServerTransport(ServerOptions opts);
  ~ServerTransport() override;

  ServerTransport(const ServerTransport&) = delete;
  ServerTransport& operator=(const ServerTransport&) = delete;

  // Binds the listen socket; throws std::runtime_error on failure.
  void start();

  // Blocks until `expect_workers` workers have completed the handshake or
  // accept_timeout_ms passes; true when the quorum arrived.
  bool wait_for_workers();

  // Sends kShutdown to every live worker and closes all connections.
  void shutdown_workers();

  std::string name() const override { return "socket"; }

  void execute(const std::vector<fl::TrainCall>& calls,
               std::vector<fl::TrainOutcome>& outcomes) override;

  std::size_t live_workers() const;

 private:
  struct Worker {
    int fd = -1;
    std::uint32_t id = 0;
    bool alive = false;
    FrameReader reader;
    double last_heard = 0.0;          // process_elapsed_seconds()
    std::uint64_t calls_served = 0;
    std::vector<std::size_t> inflight;  // call indices awaiting a response
  };

  struct CallState {
    std::uint32_t attempts = 0;  // dispatches so far
    double ready_at = 0.0;       // earliest next dispatch (backoff)
    int worker = -1;             // index into workers_, -1 = unassigned
    bool done = false;
  };

  // Accepts + handshakes one pending connection; false when the peer was
  // rejected (bad hello) or accept failed. `campaign` selects the journal
  // row kind (kConnect vs kReconnect/kWorkerRestart).
  bool admit_worker(bool campaign);

  // Marks a worker dead, closes its fd, and requeues its in-flight calls.
  void worker_lost(std::size_t w, const std::vector<fl::TrainCall>& calls,
                   std::vector<CallState>& st,
                   std::vector<fl::TrainOutcome>& outcomes,
                   std::size_t& remaining);

  // Re-arms one call after a failed dispatch: schedules the next attempt,
  // or fails the call outright when the retry budget is exhausted.
  void requeue(std::size_t i, const std::vector<fl::TrainCall>& calls,
               std::vector<CallState>& st,
               std::vector<fl::TrainOutcome>& outcomes,
               std::size_t& remaining);

  // Sends one TrainReq; false (and worker_lost) on write failure.
  bool dispatch(std::size_t i, std::size_t w,
                const std::vector<fl::TrainCall>& calls,
                std::vector<CallState>& st,
                std::vector<fl::TrainOutcome>& outcomes,
                std::size_t& remaining);

  // Drains every complete frame buffered for worker `w`; false when the
  // worker was lost in the process.
  bool drain_frames(std::size_t w, const std::vector<fl::TrainCall>& calls,
                    std::vector<CallState>& st,
                    std::vector<fl::TrainOutcome>& outcomes,
                    std::size_t& remaining);

  ServerOptions opts_;
  int listen_fd_ = -1;
  std::vector<Worker> workers_;
  std::uint32_t next_worker_id_ = 0;
  std::uint64_t current_round_ = 0;  // journal context for transport rows
};

}  // namespace fedclust::net

#include "net/server_transport.h"

#include <algorithm>
#include <limits>
#include <poll.h>

#include "fl/wire.h"
#include "net/message.h"
#include "net/stream.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace fedclust::net {

namespace {

using fedclust::fl::wire::CodecId;
using fedclust::fl::wire::MessageKind;

// Calls one worker may hold at once. Requests go out with a blocking
// write_frame, and a worker reads nothing while it trains. A queued request
// that does not fit the socket buffer blocks the server, which then stops
// reading; once the worker's response does not fit either, both sides
// block until the I/O timeout declares the worker lost. One call per
// worker never queues a request, whatever the model size. A worker serves
// calls one at a time, so a deeper queue would only hide the gap between
// two calls.
constexpr std::size_t kMaxInflightPerWorker = 1;

std::vector<std::uint8_t> envelope_of(const std::vector<float>& v,
                                      std::uint64_t round) {
  // Always raw_f32: the experiment codec is applied server-side by
  // pull_model/deliver_update; the physical transport must not re-quantize.
  return fl::wire::encode(MessageKind::kModelPull, CodecId::kRawF32,
                          fl::wire::kServerSender, round, v);
}

}  // namespace

ServerTransport::ServerTransport(ServerOptions opts)
    : opts_(std::move(opts)) {}

ServerTransport::~ServerTransport() {
  for (Worker& w : workers_) {
    if (w.alive) close_fd(w.fd);
    w.alive = false;
  }
  close_fd(listen_fd_);
}

void ServerTransport::start() {
  const Address addr = Address::parse(opts_.listen);
  listen_fd_ = listen_on(addr);
  FC_LOG_INFO << "server: listening on " << addr.describe();
}

std::size_t ServerTransport::live_workers() const {
  std::size_t n = 0;
  for (const Worker& w : workers_) n += w.alive ? 1 : 0;
  return n;
}

bool ServerTransport::admit_worker(bool campaign) {
  const int fd = accept_conn(listen_fd_);
  if (fd < 0) return false;
  set_recv_timeout(fd, opts_.io_timeout_ms);
  set_send_timeout(fd, opts_.io_timeout_ms);

  FdStream s(fd);
  FrameReader reader;
  std::vector<std::uint8_t> body;
  FrameStatus fst = FrameStatus::kNeedMore;
  HelloMsg hello;
  if (read_frame(s, reader, body, fst) != IoStatus::kOk ||
      !decode_hello(body, hello)) {
    FC_LOG_WARN << "server: rejecting connection (bad hello, frame="
                << frame_status_name(fst) << ")";
    close_fd(fd);
    return false;
  }
  if (hello.proto != kProtocolVersion) {
    FC_LOG_WARN << "server: rejecting worker (protocol " << hello.proto
                << " != " << kProtocolVersion << ")";
    close_fd(fd);
    return false;
  }
  if (hello.fingerprint != opts_.fingerprint || hello.seed != opts_.seed) {
    FC_LOG_WARN << "server: rejecting worker (config mismatch: fingerprint "
                << hello.fingerprint << " vs " << opts_.fingerprint
                << ", seed " << hello.seed << " vs " << opts_.seed << ")";
    close_fd(fd);
    return false;
  }

  Worker w;
  w.fd = fd;
  w.id = next_worker_id_++;
  w.alive = true;
  w.last_heard = util::process_elapsed_seconds();
  w.calls_served = hello.calls_served;

  WelcomeMsg welcome;
  welcome.worker_id = w.id;
  welcome.next_round = current_round_;
  welcome.n_workers = static_cast<std::uint32_t>(opts_.expect_workers);
  if (write_frame(s, encode_welcome(welcome)) != IoStatus::kOk) {
    close_fd(fd);
    return false;
  }

  if (!campaign) {
    OBS_COUNTER_ADD("net.connects", 1);
    OBS_JOURNAL(current_round_, w.id, kConnect);
  } else if (hello.calls_served > 0 || hello.resume_round > 0) {
    OBS_COUNTER_ADD("net.worker_restarts", 1);
    OBS_JOURNAL(current_round_, w.id, kWorkerRestart, hello.calls_served);
  } else {
    OBS_COUNTER_ADD("net.reconnects", 1);
    OBS_JOURNAL(current_round_, w.id, kReconnect);
  }
  FC_LOG_INFO << "server: worker " << w.id << " joined"
              << (campaign ? " (mid-campaign)" : "") << ", served="
              << hello.calls_served;
  workers_.push_back(std::move(w));
  return true;
}

bool ServerTransport::wait_for_workers() {
  const double deadline = util::process_elapsed_seconds() +
                          opts_.accept_timeout_ms / 1000.0;
  while (live_workers() < opts_.expect_workers) {
    const double left = deadline - util::process_elapsed_seconds();
    if (left <= 0.0) return false;
    if (wait_readable(listen_fd_, static_cast<int>(left * 1000.0) + 1)) {
      admit_worker(/*campaign=*/false);
    }
  }
  return true;
}

void ServerTransport::shutdown_workers() {
  const std::vector<std::uint8_t> bye = encode_shutdown();
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    FdStream s(w.fd);
    write_frame(s, bye);  // best-effort: the worker may already be gone
    close_fd(w.fd);
    w.alive = false;
  }
}

void ServerTransport::worker_lost(std::size_t w,
                                  const std::vector<fl::TrainCall>& calls,
                                  std::vector<CallState>& st,
                                  std::vector<fl::TrainOutcome>& outcomes,
                                  std::size_t& remaining) {
  Worker& worker = workers_[w];
  if (!worker.alive) return;
  FC_LOG_WARN << "server: lost worker " << worker.id << " with "
              << worker.inflight.size() << " call(s) in flight";
  close_fd(worker.fd);
  worker.alive = false;
  OBS_COUNTER_ADD("fault.worker_crash", 1);
  const std::vector<std::size_t> orphans = std::move(worker.inflight);
  worker.inflight.clear();
  for (const std::size_t i : orphans) {
    if (st[i].done) continue;
    st[i].worker = -1;
    requeue(i, calls, st, outcomes, remaining);
  }
}

void ServerTransport::requeue(std::size_t i,
                              const std::vector<fl::TrainCall>& calls,
                              std::vector<CallState>& st,
                              std::vector<fl::TrainOutcome>& outcomes,
                              std::size_t& remaining) {
  CallState& c = st[i];
  if (c.attempts >= static_cast<std::uint32_t>(opts_.backoff.max_attempts)) {
    // Retry budget spent: the update is lost. The caller bills it through
    // the same fault counters as a simulated comm failure.
    outcomes[i].ok = false;
    outcomes[i].attempts = c.attempts;
    c.done = true;
    --remaining;
    return;
  }
  c.ready_at = util::process_elapsed_seconds() +
               opts_.backoff.delay_seconds(opts_.seed, calls[i].client,
                                           calls[i].round, c.attempts);
}

bool ServerTransport::dispatch(std::size_t i, std::size_t w,
                               const std::vector<fl::TrainCall>& calls,
                               std::vector<CallState>& st,
                               std::vector<fl::TrainOutcome>& outcomes,
                               std::size_t& remaining) {
  const fl::TrainCall& call = calls[i];
  TrainReqMsg req;
  req.client = call.client;
  req.round = call.round;
  req.opts = call.opts;
  req.rng = call.rng;
  req.start_env = envelope_of(call.start, call.round);
  if (call.prox_ref) req.prox_env = envelope_of(*call.prox_ref, call.round);
  if (call.grad_offset) {
    req.offset_env = envelope_of(*call.grad_offset, call.round);
  }

  st[i].attempts += 1;
  FdStream s(workers_[w].fd);
  if (write_frame(s, encode_train_req(req)) != IoStatus::kOk) {
    worker_lost(w, calls, st, outcomes, remaining);  // requeues i too
    return false;
  }
  st[i].worker = static_cast<int>(w);
  workers_[w].inflight.push_back(i);
  return true;
}

bool ServerTransport::drain_frames(std::size_t w,
                                   const std::vector<fl::TrainCall>& calls,
                                   std::vector<CallState>& st,
                                   std::vector<fl::TrainOutcome>& outcomes,
                                   std::size_t& remaining) {
  Worker& worker = workers_[w];
  std::vector<std::uint8_t> body;
  while (worker.alive) {
    const FrameStatus fst = worker.reader.next(body);
    if (fst == FrameStatus::kNeedMore) return true;
    if (fst != FrameStatus::kOk) {
      // Framing damage: the connection is untrustworthy from here on
      // (FrameReader poisons itself), so the worker is dropped before any
      // byte of the damaged frame reaches a decoder.
      OBS_COUNTER_ADD("net.frame_rejects", 1);
      OBS_JOURNAL(current_round_, worker.id, kFrameReject,
                  static_cast<std::uint64_t>(fst));
      FC_LOG_WARN << "server: frame rejected from worker " << worker.id
                  << " (" << frame_status_name(fst) << ")";
      worker_lost(w, calls, st, outcomes, remaining);
      return false;
    }

    const std::optional<MsgType> type = peek_type(body);
    if (!type) {
      OBS_COUNTER_ADD("net.frame_rejects", 1);
      OBS_JOURNAL(current_round_, worker.id, kFrameReject, 0);
      worker_lost(w, calls, st, outcomes, remaining);
      return false;
    }
    switch (*type) {
      case MsgType::kHeartbeat: {
        HeartbeatMsg hb;
        if (decode_heartbeat(body, hb)) worker.calls_served = hb.calls_served;
        break;
      }
      case MsgType::kError: {
        // The worker could not serve a request (e.g. an embedded envelope
        // failed its CRC in transit). Its queue state is now uncertain, so
        // requeue everything it held elsewhere.
        ErrorMsg err;
        if (decode_error(body, err)) {
          FC_LOG_WARN << "server: worker " << worker.id
                      << " reported error: " << err.reason;
        }
        OBS_COUNTER_ADD("net.frame_rejects", 1);
        OBS_JOURNAL(current_round_, worker.id, kFrameReject,
                    err.code);
        worker_lost(w, calls, st, outcomes, remaining);
        return false;
      }
      case MsgType::kTrainResp: {
        TrainRespMsg resp;
        if (!decode_train_resp(body, resp)) {
          OBS_COUNTER_ADD("net.frame_rejects", 1);
          OBS_JOURNAL(current_round_, worker.id, kFrameReject, 0);
          worker_lost(w, calls, st, outcomes, remaining);
          return false;
        }
        // Match the response to its call. A stale duplicate (the call was
        // already completed via a retry on another worker) is ignored —
        // both workers computed the identical result, so dropping one is
        // determinism-safe.
        std::size_t i = calls.size();
        for (std::size_t k = 0; k < calls.size(); ++k) {
          if (!st[k].done && calls[k].client == resp.client &&
              calls[k].round == resp.round) {
            i = k;
            break;
          }
        }
        auto& inflight = worker.inflight;
        if (i < calls.size()) {
          inflight.erase(std::remove(inflight.begin(), inflight.end(), i),
                         inflight.end());
        }
        if (i == calls.size()) break;  // stale or unknown: ignore
        fl::TrainOutcome& out = outcomes[i];
        out.attempts = st[i].attempts;
        out.loss = resp.loss;
        out.train_us = resp.train_us;
        if (!resp.ok) {
          requeue(i, calls, st, outcomes, remaining);
          st[i].worker = -1;
          break;
        }
        fl::wire::Envelope env;
        const auto ds = fl::wire::try_decode(resp.params_env.data(),
                                             resp.params_env.size(), env);
        if (ds != fl::wire::DecodeStatus::kOk ||
            env.payload.size() != calls[i].start.size()) {
          // Frame CRC passed but the inner envelope is damaged — treat as a
          // failed attempt and retry elsewhere.
          OBS_COUNTER_ADD("net.frame_rejects", 1);
          OBS_JOURNAL(current_round_, worker.id, kFrameReject,
                      static_cast<std::uint64_t>(ds));
          st[i].worker = -1;
          requeue(i, calls, st, outcomes, remaining);
          break;
        }
        out.ok = true;
        out.params = std::move(env.payload);
        worker.calls_served += 1;
        st[i].done = true;
        --remaining;
        break;
      }
      default:
        // kHello/kWelcome/kTrainReq/kShutdown are not valid worker->server
        // messages mid-campaign; drop the peer.
        worker_lost(w, calls, st, outcomes, remaining);
        return false;
    }
  }
  return worker.alive;
}

void ServerTransport::execute(const std::vector<fl::TrainCall>& calls,
                              std::vector<fl::TrainOutcome>& outcomes) {
  outcomes.assign(calls.size(), fl::TrainOutcome{});
  if (calls.empty()) return;
  current_round_ = calls.front().round;
  std::vector<CallState> st(calls.size());
  std::size_t remaining = calls.size();
  const double hb_deadline = opts_.io_timeout_ms / 1000.0;

  while (remaining > 0) {
    // Dispatch every ready, unassigned call to the least-loaded live worker
    // with a free slot.
    const double dispatched_at = util::process_elapsed_seconds();
    for (std::size_t i = 0; i < calls.size(); ++i) {
      while (!st[i].done && st[i].worker < 0 &&
             st[i].ready_at <= dispatched_at) {
        std::size_t best = workers_.size();
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          if (!workers_[w].alive ||
              workers_[w].inflight.size() >= kMaxInflightPerWorker) {
            continue;
          }
          if (best == workers_.size() ||
              workers_[w].inflight.size() < workers_[best].inflight.size()) {
            best = w;
          }
        }
        if (best == workers_.size()) break;  // no live worker has a slot
        if (dispatch(i, best, calls, st, outcomes, remaining)) break;
        // dispatch failed -> that worker died and i was requeued; if i is
        // still ready (attempt budget left, zero backoff) try the next one.
        if (st[i].done || st[i].ready_at > dispatched_at) break;
      }
    }
    if (remaining == 0) break;

    // Nobody alive and nothing in flight: hold the door open for a
    // crash-restarted worker, then fail what's left. The campaign always
    // completes; lost calls degrade to lost updates.
    if (live_workers() == 0) {
      FC_LOG_WARN << "server: no live workers; waiting " << opts_.io_timeout_ms
                  << " ms for a replacement";
      if (wait_readable(listen_fd_, opts_.io_timeout_ms)) {
        admit_worker(/*campaign=*/true);
        continue;
      }
      for (std::size_t i = 0; i < calls.size(); ++i) {
        if (st[i].done) continue;
        outcomes[i].ok = false;
        outcomes[i].attempts = st[i].attempts;
        st[i].done = true;
        --remaining;
      }
      break;
    }

    // Poll timeout: the nearest of (a) a backoff window opening, (b) a
    // heartbeat deadline expiring. A call that was ready at dispatch but
    // still unassigned is waiting for a worker slot; only a response or a
    // lost worker frees one, and both wake poll.
    double now = util::process_elapsed_seconds();
    double next_event = now + 60.0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (!st[i].done && st[i].worker < 0 && st[i].ready_at > dispatched_at) {
        next_event = std::min(next_event, st[i].ready_at);
      }
    }
    for (const Worker& w : workers_) {
      if (w.alive && !w.inflight.empty()) {
        next_event = std::min(next_event, w.last_heard + hb_deadline);
      }
    }
    const int timeout_ms =
        std::max(1, static_cast<int>((next_event - now) * 1000.0) + 1);

    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_worker;  // workers_ index per pollfd (past 0)
    fds.push_back({listen_fd_, POLLIN, 0});
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].alive) continue;
      fds.push_back({workers_[w].fd, POLLIN, 0});
      fd_worker.push_back(w);
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      FC_LOG_WARN << "server: poll failed; failing remaining calls";
      for (std::size_t i = 0; i < calls.size(); ++i) {
        if (st[i].done) continue;
        outcomes[i].ok = false;
        outcomes[i].attempts = st[i].attempts;
        st[i].done = true;
        --remaining;
      }
      break;
    }

    if (rc > 0 && (fds[0].revents & POLLIN)) {
      admit_worker(/*campaign=*/true);  // crash-restarted worker rejoining
    }
    for (std::size_t k = 1; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const std::size_t w = fd_worker[k - 1];
      Worker& worker = workers_[w];
      if (!worker.alive) continue;
      std::uint8_t chunk[16 * 1024];
      std::size_t got = 0;
      FdStream s(worker.fd);
      const IoStatus ist = s.read_some(chunk, sizeof(chunk), got);
      if (ist == IoStatus::kOk) {
        worker.last_heard = util::process_elapsed_seconds();
        worker.reader.feed(chunk, got);
        drain_frames(w, calls, st, outcomes, remaining);
      } else if (ist != IoStatus::kTimeout) {
        // EOF (kill -9, clean exit) or a connection error.
        worker_lost(w, calls, st, outcomes, remaining);
      }
    }

    // Heartbeat supervision: a worker holding calls that has said nothing
    // for a full deadline window is presumed hung or dead.
    now = util::process_elapsed_seconds();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      Worker& worker = workers_[w];
      if (!worker.alive || worker.inflight.empty()) continue;
      if (now - worker.last_heard > hb_deadline) {
        OBS_COUNTER_ADD("net.heartbeat_missed", 1);
        OBS_JOURNAL(current_round_, worker.id, kHeartbeatMissed,
                    worker.inflight.size());
        FC_LOG_WARN << "server: worker " << worker.id
                    << " missed its heartbeat deadline";
        worker_lost(w, calls, st, outcomes, remaining);
      }
    }
  }
}

}  // namespace fedclust::net

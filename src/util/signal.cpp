#include "util/signal.h"

#include <csignal>

#include <atomic>

namespace fedclust::util {

namespace {

std::atomic<bool> g_shutdown{false};

// Async-signal-safe: one relaxed store plus re-arming the default
// disposition so a second signal kills the process the traditional way.
void on_signal(int sig) {
  g_shutdown.store(true, std::memory_order_relaxed);
  std::signal(sig, SIG_DFL);
}

}  // namespace

void install_shutdown_handler() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  // SA_RESTART keeps in-flight reads/writes (checkpoint I/O, socket frames)
  // from failing with EINTR; the flag is polled at round boundaries.
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void request_shutdown() { g_shutdown.store(true, std::memory_order_relaxed); }

}  // namespace fedclust::util

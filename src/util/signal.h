#pragma once

// Cooperative shutdown for the long-running binaries (fedclust_sim,
// fedclust_server, fedclust_worker).
//
// install_shutdown_handler() routes SIGINT/SIGTERM to a single async-safe
// flag; the round loop (FlAlgorithm::run) polls it at round boundaries and
// stops cleanly — final checkpoint written, journal/metrics/trace flushed,
// exit 0 — instead of losing the run mid-round. A second signal restores
// the default disposition, so a stuck process still dies on the next ^C.

namespace fedclust::util {

// Idempotent; installs SA_RESTART handlers for SIGINT and SIGTERM.
void install_shutdown_handler();

// True once a handled signal arrived (or request_shutdown() was called).
bool shutdown_requested();

// Programmatic trigger — lets tests and the worker loop share the flag.
void request_shutdown();

}  // namespace fedclust::util

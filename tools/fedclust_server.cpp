// fedclust_server — the multi-process variant of fedclust_sim.
//
// Owns the whole campaign (Federation, sampling, fault injection, billing,
// aggregation, evaluation, checkpoints) exactly like fedclust_sim; only the
// pure local-training computation is farmed out to fedclust_worker
// processes over a Unix or TCP socket. Every algorithm runs unmodified: the
// net::ServerTransport plugs into Federation, and the round runner splits
// the client step around it (see src/fl/transport.h).
//
// With --deterministic the trace CSV and "state crc32c=" digest are
// bit-identical to the in-process run of the same flags, at any worker
// count and any FEDCLUST_THREADS. Worker crashes (kill -9) never abort the
// campaign: in-flight calls are requeued onto surviving workers with
// exponential backoff, and calls whose retry budget runs out degrade to
// honestly-billed lost updates.
//
//   $ fedclust_server --listen=unix:/tmp/fed.sock --workers=2
//       --method=FedClust --rounds=10 --out=trace.csv

#include <iostream>

#include "campaign.h"
#include "core/registry.h"
#include "experiment_flags.h"
#include "net/server_transport.h"
#include "util/signal.h"

int main(int argc, char** argv) {
  using namespace fedclust;
  try {
    util::ArgParser args(
        "fedclust_server",
        "run one FL experiment with local training delegated to "
        "fedclust_worker processes over a socket.\n"
        "Start the server first, then the workers with the same experiment "
        "flags (the handshake rejects config mismatches). Environment: "
        "FEDCLUST_LOG_LEVEL, FEDCLUST_THREADS, FEDCLUST_ISA, FEDCLUST_TRACE "
        "and FEDCLUST_METRICS behave as in fedclust_sim.");
    tools::add_experiment_options(args);
    tools::add_obs_options(args);
    args.add_option("listen",
                    "address to listen on: unix:/path or tcp:host:port",
                    "unix:/tmp/fedclust.sock");
    args.add_option("workers",
                    "worker handshakes to wait for before round 0", "1");
    args.add_option("net-timeout-ms",
                    "heartbeat deadline and per-connection I/O timeout; "
                    "must exceed the worst-case single-call training time",
                    "30000");
    args.add_option("accept-timeout-ms",
                    "how long to wait for the initial worker quorum",
                    "60000");
    tools::add_campaign_options(args);
    if (!args.parse(argc, argv)) return 0;

    util::install_shutdown_handler();
    tools::setup_observability(args);

    fl::ExperimentConfig cfg = tools::build_experiment_config(args);
    if (!args.str("journal-out").empty()) {
      obs::EventJournal::instance().set_codec_name(
          fl::wire::codec_name(cfg.codec));
    }

    fl::Federation fed(cfg);
    const auto algo = core::make_algorithm(args.str("method"), fed);

    net::ServerOptions sopts;
    sopts.listen = args.str("listen");
    sopts.expect_workers = static_cast<std::size_t>(args.integer("workers"));
    sopts.io_timeout_ms = static_cast<int>(args.integer("net-timeout-ms"));
    sopts.accept_timeout_ms =
        static_cast<int>(args.integer("accept-timeout-ms"));
    sopts.backoff = net::BackoffPolicy::from_fault_plan(cfg.fault);
    sopts.seed = cfg.seed;
    sopts.fingerprint = fl::config_fingerprint(cfg);
    net::ServerTransport transport(sopts);
    transport.start();
    if (!transport.wait_for_workers()) {
      std::cerr << "error: only " << transport.live_workers() << " of "
                << sopts.expect_workers << " workers connected within "
                << sopts.accept_timeout_ms << " ms\n";
      return 1;
    }
    fed.set_transport(&transport);
    tools::run_campaign(args, fed, *algo, " over " + transport.name());
    transport.shutdown_workers();
    fed.set_transport(nullptr);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

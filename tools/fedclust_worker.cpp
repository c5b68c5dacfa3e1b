// fedclust_worker — hosts the virtual clients for a fedclust_server
// campaign.
//
// Started with the *same experiment flags* as the server, it rebuilds the
// identical Federation (synthetic data and client populations are pure
// functions of the config), connects, and serves TrainReq messages until
// the server says shutdown. All randomness arrives pre-split from the
// server as serialized RNG state, so the worker's computation is pure —
// any number of workers, in any assignment, produces bit-identical
// campaigns.
//
// --checkpoint-state makes the worker crash-restartable: a tiny CRC-checked
// state file is rewritten after every served call, and a worker relaunched
// after kill -9 resumes from it, reconnects mid-campaign, and picks up
// requeued calls.
//
//   $ fedclust_worker --connect=unix:/tmp/fed.sock --method=FedClust
//       --rounds=10 --checkpoint-state=/tmp/worker0.state

#include <iostream>

#include "experiment_flags.h"
#include "fl/snapshot.h"
#include "net/worker.h"
#include "util/signal.h"

int main(int argc, char** argv) {
  using namespace fedclust;
  try {
    util::ArgParser args(
        "fedclust_worker",
        "serve local-training calls for a fedclust_server campaign.\n"
        "Pass the same experiment flags as the server — the handshake "
        "rejects a worker whose config fingerprint disagrees. Environment: "
        "FEDCLUST_LOG_LEVEL, FEDCLUST_THREADS, FEDCLUST_ISA behave as in "
        "fedclust_sim.");
    tools::add_experiment_options(args);
    tools::add_obs_options(args);
    args.add_option("connect",
                    "server address: unix:/path or tcp:host:port",
                    "unix:/tmp/fedclust.sock");
    args.add_option("net-timeout-ms",
                    "per-connection I/O timeout", "30000");
    args.add_option("heartbeat-ms",
                    "idle heartbeat period", "1000");
    args.add_option("connect-attempts",
                    "initial / re-connect retry budget (exponential "
                    "backoff between attempts)",
                    "10");
    args.add_option("checkpoint-state",
                    "crash-restart state file, rewritten after every "
                    "served call (empty = stateless)",
                    "");
    if (!args.parse(argc, argv)) return 0;

    util::install_shutdown_handler();
    tools::setup_observability(args);

    fl::ExperimentConfig cfg = tools::build_experiment_config(args);
    fl::Federation fed(cfg);

    net::WorkerOptions wopts;
    wopts.connect = args.str("connect");
    wopts.io_timeout_ms = static_cast<int>(args.integer("net-timeout-ms"));
    wopts.heartbeat_ms = static_cast<int>(args.integer("heartbeat-ms"));
    wopts.state_path = args.str("checkpoint-state");
    wopts.connect_attempts =
        static_cast<int>(args.integer("connect-attempts"));
    wopts.backoff = net::BackoffPolicy::from_fault_plan(cfg.fault);
    wopts.seed = cfg.seed;
    wopts.fingerprint = fl::config_fingerprint(cfg);

    net::WorkerLoop loop(fed, wopts);
    const int rc = loop.run();
    tools::finish_observability(args, std::cout);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

#pragma once

// Shared CLI surface for fedclust_sim / fedclust_server / fedclust_worker.
//
// The socket transport's bit-identity contract requires the server and
// every worker to build the *same* Federation, which means the same
// ExperimentConfig from the same flags. Registering and decoding the
// experiment flags in one place makes drift impossible: a flag added here
// appears in all three binaries, feeds config_fingerprint, and the
// handshake rejects any worker whose decoded config disagrees.

#include <string>

#include "core/registry.h"
#include "fl/federation.h"
#include "fl/fault.h"
#include "fl/snapshot.h"
#include "fl/wire.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/config.h"
#include "util/cpu.h"
#include "util/serialization.h"

namespace fedclust::tools {

// The config-defining experiment flags (everything that feeds
// config_fingerprint, plus --method).
inline void add_experiment_options(util::ArgParser& args) {
  args.add_option("method", core::method_names("|"), "FedClust");
  args.add_option("dataset", "cifar10|cifar100|fmnist|svhn", "cifar10");
  args.add_option("partition", "skew|dirichlet|iid", "skew");
  args.add_option("skew", "label-skew fraction", "0.2");
  args.add_option("alpha", "dirichlet alpha", "0.1");
  args.add_option("label-pool",
                  "skew partition: draw each client's label set from this "
                  "many disjoint ground-truth groups instead of "
                  "independently (0 = off; makes the population genuinely "
                  "clusterable, e.g. for clustering-agreement gates)",
                  "0");
  args.add_option("clients", "number of clients", "40");
  args.add_option("train", "train samples per client", "10");
  args.add_option("test", "test samples per client", "10");
  args.add_option("rounds", "communication rounds", "40");
  args.add_option("sample", "client fraction per round", "0.1");
  args.add_option("epochs", "local epochs", "2");
  args.add_option("lr", "learning rate", "0.02");
  args.add_option("momentum", "SGD momentum", "0.5");
  args.add_option("lambda", "FedClust λ (-1 = auto largest-gap)", "-1");
  args.add_option("k", "FedClust/PACFL fixed cluster count (0 = use λ)",
                  "0");
  args.add_option("codec",
                  "wire codec for model payloads: raw_f32 (byte-exact "
                  "default), f16, qint8 (per-chunk affine, ~3.9x smaller)",
                  "raw_f32");
  args.add_option("fault-spec",
                  "fault-injection plan, comma-separated key=value pairs "
                  "(" + fl::FaultPlan::spec_keys() + "; only=id:id:...); "
                  "retries/backoff_* also set the socket transport's "
                  "requeue schedule; e.g. "
                  "\"crash=0.1,straggle=0.2,deadline=4,corrupt=0.05\"",
                  "");
  args.add_option("seed", "root seed", "1");
  args.add_option("virtual-clients",
                  "bound the client store to an LRU cache of "
                  "--client-cache clients instead of keeping every client "
                  "it builds (0 = never evict); clients are built on demand "
                  "from (seed, id) either way, and results are "
                  "bit-identical (1|0)",
                  "0");
  args.add_option("client-cache",
                  "max clients resident in the bounded store's LRU cache "
                  "(0 = default 256; ignored without --virtual-clients)",
                  "0");
  args.add_option("eval-clients",
                  "evaluate on a fixed random subsample of this many "
                  "clients instead of all of them (0 = all; changes "
                  "recorded accuracies, so it feeds the config "
                  "fingerprint)",
                  "0");
  args.add_option("landmarks",
                  "FedClust/PACFL setup: cluster only this many "
                  "deterministically sampled landmark clients, then assign "
                  "everyone else to the nearest landmark in O(N·L) with "
                  "bounded memory (0 = exact O(N²) clustering; changes the "
                  "partition, so it feeds the config fingerprint)",
                  "0");
  args.add_option("fast-math-kernels",
                  "FMA-contracted SIMD kernels + int8-domain qint8 "
                  "aggregation; trades bit-identity with the scalar "
                  "reference for speed, so it feeds the config fingerprint "
                  "(1|0)",
                  "0");
}

// Observability outputs + the deterministic switch, shared by all three
// binaries (the worker's journal stays mostly empty but the flags parse).
inline void add_obs_options(util::ArgParser& args) {
  args.add_option("trace-out",
                  "Chrome Trace Event JSON path (open in Perfetto; "
                  "empty = tracing off)",
                  util::env_string("FEDCLUST_TRACE", ""));
  args.add_option("metrics-out",
                  "per-round metrics JSONL path (empty = metrics off)",
                  util::env_string("FEDCLUST_METRICS", ""));
  args.add_option("journal-out",
                  "per-(round, client) event journal JSONL path — the "
                  "input to fedclust_report (empty = journal off)",
                  util::env_string("FEDCLUST_JOURNAL", ""));
  args.add_option("deterministic",
                  "zero every wall-clock field in the journal so output "
                  "files are bit-identical across thread counts and across "
                  "the in-process/socket transports (1|0)",
                  "0");
}

// Decodes the experiment flags into the config every binary agrees on.
// Also applies cfg.fast_math_kernels to the process-wide kernel switch.
inline fl::ExperimentConfig build_experiment_config(
    const util::ArgParser& args) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec(args.str("dataset"));
  cfg.fed.n_clients = static_cast<std::size_t>(args.integer("clients"));
  cfg.fed.train_per_client = static_cast<std::size_t>(args.integer("train"));
  cfg.fed.test_per_client = static_cast<std::size_t>(args.integer("test"));
  cfg.fed.partition = args.str("partition");
  cfg.fed.skew_fraction = args.real("skew");
  cfg.fed.label_set_pool = static_cast<std::size_t>(args.integer("label-pool"));
  cfg.fed.dirichlet_alpha = args.real("alpha");
  cfg.model.arch = args.str("dataset") == "cifar100" ? "resnet9" : "lenet5";
  cfg.model.in_channels = cfg.data_spec.channels;
  cfg.model.image_hw = cfg.data_spec.hw;
  cfg.model.num_classes = cfg.data_spec.num_classes;
  cfg.local.epochs = static_cast<std::size_t>(args.integer("epochs"));
  cfg.local.lr = static_cast<float>(args.real("lr"));
  cfg.local.momentum = static_cast<float>(args.real("momentum"));
  cfg.rounds = static_cast<std::size_t>(args.integer("rounds"));
  cfg.sample_fraction = args.real("sample");
  cfg.codec = fl::wire::codec_from_string(args.str("codec"));
  cfg.fault = fl::FaultPlan::parse(args.str("fault-spec"));
  cfg.seed = static_cast<std::uint64_t>(args.integer("seed"));
  cfg.virtual_clients = args.integer("virtual-clients") != 0;
  cfg.client_cache = static_cast<std::size_t>(args.integer("client-cache"));
  cfg.eval_clients = static_cast<std::size_t>(args.integer("eval-clients"));
  cfg.landmarks = static_cast<std::size_t>(args.integer("landmarks"));
  cfg.algo.fedclust_lambda = static_cast<float>(args.real("lambda"));
  cfg.algo.fedclust_k = static_cast<std::size_t>(args.integer("k"));
  cfg.algo.pacfl_k = cfg.algo.fedclust_k;
  cfg.algo.fedclust_init_epochs = 3;
  cfg.fast_math_kernels = args.integer("fast-math-kernels") != 0;
  util::set_fast_math_kernels(cfg.fast_math_kernels);
  return cfg;
}

// Enables the requested sinks. Call before the Federation is built so the
// construction spans are captured too.
inline void setup_observability(const util::ArgParser& args) {
  if (!args.str("trace-out").empty()) {
    obs::SpanTracer::instance().set_enabled(true);
  }
  if (!args.str("metrics-out").empty()) {
    obs::MetricsRegistry::instance().set_enabled(true);
    obs::MetricsRegistry::instance().open_round_log(args.str("metrics-out"));
  }
  if (!args.str("journal-out").empty()) {
    obs::EventJournal::instance().open(args.str("journal-out"));
  }
  if (args.integer("deterministic") != 0) {
    obs::EventJournal::instance().set_wall_clock(false);
  }
}

// Flushes and closes whatever setup_observability opened, echoing the
// output paths like fedclust_sim always has.
inline void finish_observability(const util::ArgParser& args,
                                 std::ostream& os) {
  const std::string trace_out = args.str("trace-out");
  const std::string metrics_out = args.str("metrics-out");
  const std::string journal_out = args.str("journal-out");
  if (!trace_out.empty()) {
    util::write_file(trace_out,
                     obs::SpanTracer::instance().chrome_trace_json());
    os << "span trace written to " << trace_out
       << " (open in https://ui.perfetto.dev)\n";
  }
  if (!metrics_out.empty()) {
    obs::MetricsRegistry::instance().close_round_log();
    os << obs::MetricsRegistry::instance().summary_table()
       << "metrics written to " << metrics_out << "\n";
  }
  if (!journal_out.empty()) {
    obs::EventJournal::instance().close();
    os << "journal written to " << journal_out << "\n";
  }
}

}  // namespace fedclust::tools

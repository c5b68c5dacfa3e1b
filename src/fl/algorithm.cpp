#include "fl/algorithm.h"

#include <sstream>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/signal.h"
#include "util/timer.h"

namespace fedclust::fl {

namespace {

std::vector<std::uint8_t> state_bytes(const FlAlgorithm& algo) {
  util::BinaryWriter w;
  algo.save_state(w);
  return w.take();
}

}  // namespace

void FlAlgorithm::resume_from(RunSnapshot snap) {
  const std::uint64_t want = config_fingerprint(fed_.cfg());
  if (snap.config_fingerprint != want) {
    std::ostringstream msg;
    msg << "snapshot config fingerprint mismatch: snapshot 0x" << std::hex
        << snap.config_fingerprint << ", live config 0x" << want
        << " — resume requires the exact configuration that wrote the "
           "snapshot (see its manifest.json)";
    throw SnapshotError(msg.str());
  }
  if (snap.method != name()) {
    throw SnapshotError("snapshot was written by method '" + snap.method +
                        "', not '" + name() + "'");
  }
  if (snap.seed != fed_.cfg().seed) {
    throw SnapshotError("snapshot seed mismatch");
  }
  if (snap.next_round > fed_.cfg().rounds) {
    throw SnapshotError("snapshot next_round " +
                        std::to_string(snap.next_round) +
                        " exceeds configured rounds " +
                        std::to_string(fed_.cfg().rounds));
  }
  if (snap.rng_probes != rng_probes_for(fed_.cfg())) {
    throw SnapshotError(
        "snapshot RNG probe mismatch: the RNG algorithm or stream-split "
        "layout changed since the snapshot was written, so a resumed run "
        "could not reproduce the uninterrupted trajectory");
  }
  resume_ = std::move(snap);
}

RunSnapshot FlAlgorithm::capture_snapshot(
    std::size_t next_round, const std::vector<RoundRecord>& records) {
  RunSnapshot snap;
  snap.config_fingerprint = config_fingerprint(fed_.cfg());
  snap.seed = fed_.cfg().seed;
  snap.next_round = next_round;
  snap.method = name();
  snap.dataset = fed_.cfg().data_spec.name;
  snap.comm = fed_.comm().ledger();
  snap.records = records;
  if (obs::MetricsRegistry::enabled()) {
    snap.counters = obs::MetricsRegistry::instance().snapshot().counters;
  }
  snap.rng_probes = rng_probes_for(fed_.cfg());
  snap.algo_state = state_bytes(*this);
  return snap;
}

std::uint32_t FlAlgorithm::state_crc32c() const {
  const std::vector<std::uint8_t> blob = state_bytes(*this);
  return util::crc32c(blob.data(), blob.size());
}

Trace FlAlgorithm::run() {
  Trace trace;
  trace.method = name();
  trace.dataset = fed_.cfg().data_spec.name;

  std::size_t start_round = 0;
  if (resume_) {
    // Everything setup() produced (including the comm it billed) lives in
    // the restored state, so setup() must not run again. The state loads
    // first, so a refused one leaves the ledger and counters untouched.
    util::BinaryReader rd(resume_->algo_state);
    try {
      load_state(rd);
    } catch (const std::runtime_error& e) {
      throw SnapshotError(std::string("snapshot algorithm state: ") +
                          e.what());
    }
    if (!rd.done()) {
      throw SnapshotError("snapshot algorithm state: " +
                          std::to_string(rd.remaining()) +
                          " bytes left after load_state");
    }
    fed_.comm().restore(resume_->comm);
    trace.records = resume_->records;
    if (obs::MetricsRegistry::enabled()) {
      auto& registry = obs::MetricsRegistry::instance();
      for (const auto& [cname, value] : resume_->counters) {
        auto& c = registry.counter(cname);
        c.reset();
        c.add(value);
      }
    }
    start_round = resume_->next_round;
    resume_.reset();
    FC_LOG_INFO << name() << "/" << trace.dataset << " resumed at round "
                << start_round;
  } else {
    OBS_SPAN("fl.setup");
    const util::Stopwatch setup_sw;
    setup();
    OBS_HISTOGRAM_OBSERVE("fl.setup_seconds", setup_sw.seconds());
  }
  if (obs::EventJournal::enabled()) {
    // Setup may run warm-up rounds (FedClust profiling, IFCA trials);
    // flush their rows before round 0's so every flush stays small.
    obs::EventJournal::instance().flush_round();
  }
  const std::size_t rounds = fed_.cfg().rounds;
  const std::size_t every = std::max<std::size_t>(1, fed_.cfg().eval_every);
  for (std::size_t r = start_round; r < rounds; ++r) {
    const util::Stopwatch round_sw;
    {
      OBS_SPAN_ARG("fl.round", r);
      round(r);
    }
    const double train_seconds = round_sw.seconds();
    OBS_HISTOGRAM_OBSERVE("fl.round_seconds", train_seconds);
    OBS_COUNTER_ADD("fl.rounds", 1);
    if (r % every == 0 || r + 1 == rounds) {
      const util::Stopwatch eval_sw;
      RoundRecord rec;
      rec.round = r;
      {
        OBS_SPAN_ARG("fl.eval_sweep", r);
        // The eval sweep runs inside Federation with no round in hand; the
        // context stamps its kEval rows with this round.
        if (obs::EventJournal::enabled()) {
          obs::EventJournal::instance().set_round_context(r);
        }
        rec.avg_local_test_acc = evaluate_all();
        if (obs::EventJournal::enabled()) {
          obs::EventJournal::instance().clear_round_context();
        }
      }
      const double eval_seconds = eval_sw.seconds();
      OBS_HISTOGRAM_OBSERVE("fl.eval_seconds", eval_seconds);
      rec.bytes_up = fed_.comm().bytes_up();
      rec.bytes_down = fed_.comm().bytes_down();
      rec.n_clusters = current_clusters();
      trace.records.push_back(rec);
      FC_LOG_DEBUG << name() << "/" << trace.dataset << " round " << r
                   << " acc=" << rec.avg_local_test_acc
                   << " clusters=" << rec.n_clusters;
      // Refresh the RSS high-water mark and the minor page fault count so
      // they ride into this round's JSONL line (and the end-of-run summary)
      // alongside the store.cache_* counters — the scale smoke asserts
      // against the mark; a jump in faults shows heap trimmed and refaulted.
      OBS_GAUGE_SET("mem.peak_rss_kb", util::peak_rss_kb());
      OBS_GAUGE_SET("mem.minor_faults", util::minor_faults());
      auto& registry = obs::MetricsRegistry::instance();
      if (obs::MetricsRegistry::enabled() && registry.round_log_open()) {
        registry.log_round(
            {{"round", static_cast<double>(r)},
             {"acc", rec.avg_local_test_acc},
             {"clusters", static_cast<double>(rec.n_clusters)},
             {"mb_total",
              static_cast<double>(rec.bytes_up + rec.bytes_down) * 8.0 /
                  1e6},
             {"round_seconds", train_seconds},
             {"eval_seconds", eval_seconds}});
      }
      if (observer_) observer_(rec, train_seconds + eval_seconds);
    }
    // Checkpoints land at boundary r+1: after round r's work AND its
    // evaluation, so the snapshot's trace records already include this
    // round and the resumed run re-enters at exactly r+1.
    const std::size_t boundary = r + 1;
    const bool on_grid =
        checkpoint_.every > 0 && boundary % checkpoint_.every == 0;
    const bool at_halt =
        checkpoint_.halt_after > 0 && boundary == checkpoint_.halt_after;
    if (!checkpoint_.dir.empty() && (on_grid || at_halt)) {
      OBS_SPAN_ARG("fl.checkpoint", boundary);
      write_snapshot(capture_snapshot(boundary, trace.records),
                     checkpoint_.dir + "/" + snapshot_filename(boundary));
      OBS_COUNTER_ADD("fl.checkpoints", 1);
    }
    if (obs::EventJournal::enabled()) {
      // Round boundary: parallel work has joined, so the flush walks the
      // per-thread buffers quiescently.
      obs::EventJournal::instance().flush_round();
    }
    if (at_halt) {
      FC_LOG_INFO << name() << "/" << trace.dataset
                  << " halting after boundary " << boundary
                  << " (checkpoint halt_after)";
      break;
    }
    // Graceful SIGINT/SIGTERM: the in-flight round (and its eval) just
    // finished, so stop at this boundary with a final snapshot — the run
    // resumes from here instead of being lost. Only boundaries that did
    // not already write one above get the extra snapshot.
    if (util::shutdown_requested() && boundary < rounds) {
      if (!checkpoint_.dir.empty() && !(on_grid || at_halt)) {
        OBS_SPAN_ARG("fl.checkpoint", boundary);
        write_snapshot(capture_snapshot(boundary, trace.records),
                       checkpoint_.dir + "/" + snapshot_filename(boundary));
        OBS_COUNTER_ADD("fl.checkpoints", 1);
      }
      FC_LOG_INFO << name() << "/" << trace.dataset
                  << " stopping at boundary " << boundary
                  << " (shutdown requested)";
      break;
    }
  }
  return trace;
}

}  // namespace fedclust::fl

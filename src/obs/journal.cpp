#include "obs/journal.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace fedclust::obs {

std::atomic<bool> EventJournal::g_enabled{false};
std::atomic<bool> EventJournal::g_wall_clock{true};

namespace {

constexpr std::uint64_t kNoRoundContext = ~0ULL;

// Per-thread append-only buffer. Only the owning thread appends; flush
// reads while quiescent, so the plain vector needs no synchronization
// beyond the registry mutex that orders registration and export.
struct ThreadRows {
  std::vector<JournalRow> rows;
};

struct JournalState {
  mutable std::mutex mu;  // guards registration, the sink, and export
  std::vector<std::unique_ptr<ThreadRows>> buffers;
  std::unique_ptr<std::ofstream> sink;
  std::string path;
  std::string codec = "raw_f32";
  bool header_written = false;
  std::atomic<std::uint64_t> round_context{kNoRoundContext};
};

JournalState& state() {
  static JournalState* s = new JournalState;  // leaky: workers record
  return *s;                                  // until process exit
}

thread_local ThreadRows* tls_rows = nullptr;

ThreadRows& local_rows() {
  if (tls_rows == nullptr) {
    auto buf = std::make_unique<ThreadRows>();
    JournalState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    tls_rows = buf.get();
    s.buffers.push_back(std::move(buf));
  }
  return *tls_rows;
}

const char* corruption_name(std::uint64_t ordinal) {
  switch (ordinal) {
    case 1: return "nan";
    case 2: return "inf";
    case 3: return "explode";
    case 4: return "bitflip";
    default: return "none";
  }
}

const char* quarantine_reason(std::uint64_t code) {
  return code == 1 ? "norm_bound" : "non_finite";
}

// One JSONL object per row; field names are event-specific so the file
// reads as a log, not a tuple dump. Keep in sync with
// docs/OBSERVABILITY.md §Journal row schema and obs/report.cpp.
void render_row(std::ostream& os, const JournalRow& r) {
  os << "{\"round\":" << r.round << ",\"client\":" << r.client
     << ",\"ev\":\"" << journal_event_name(r.event) << "\"";
  switch (r.event) {
    case JournalEvent::kCluster:
      os << ",\"cluster\":" << r.a;
      break;
    case JournalEvent::kDownload:
    case JournalEvent::kUpload:
      os << ",\"payload_bytes\":" << r.a << ",\"wire_bytes\":" << r.b;
      break;
    case JournalEvent::kTrain:
      os << ",\"train_us\":" << r.a;
      break;
    case JournalEvent::kStraggler:
      os << ",\"delay_milli\":" << r.a;
      break;
    case JournalEvent::kRetry:
      os << ",\"retries\":" << r.a;
      break;
    case JournalEvent::kCommFailed:
      os << ",\"attempts\":" << r.a;
      break;
    case JournalEvent::kDeadlineMissed:
      os << ",\"sim_time_milli\":" << r.a;
      break;
    case JournalEvent::kCorrupt:
      os << ",\"mode\":\"" << corruption_name(r.a) << "\"";
      break;
    case JournalEvent::kQuarantine:
      os << ",\"reason\":\"" << quarantine_reason(r.a) << "\"";
      break;
    case JournalEvent::kEval:
      os << ",\"acc_micro\":" << r.a;
      break;
    case JournalEvent::kHeartbeatMissed:
      os << ",\"in_flight\":" << r.a;
      break;
    case JournalEvent::kWorkerRestart:
      os << ",\"served\":" << r.a;
      break;
    case JournalEvent::kFrameReject:
      os << ",\"status\":" << r.a;
      break;
    case JournalEvent::kConnect:
    case JournalEvent::kReconnect:
    case JournalEvent::kSampled:
    case JournalEvent::kDropped:
    case JournalEvent::kCrash:
    case JournalEvent::kChecksumReject:
    case JournalEvent::kDelivered:
      break;
  }
  os << "}\n";
}

}  // namespace

const char* journal_event_name(JournalEvent ev) {
  switch (ev) {
    case JournalEvent::kSampled: return "sampled";
    case JournalEvent::kDropped: return "dropped";
    case JournalEvent::kCluster: return "cluster";
    case JournalEvent::kDownload: return "download";
    case JournalEvent::kTrain: return "train";
    case JournalEvent::kUpload: return "upload";
    case JournalEvent::kCrash: return "crash";
    case JournalEvent::kStraggler: return "straggler";
    case JournalEvent::kRetry: return "retry";
    case JournalEvent::kCommFailed: return "comm_failed";
    case JournalEvent::kDeadlineMissed: return "deadline_missed";
    case JournalEvent::kCorrupt: return "corrupt";
    case JournalEvent::kChecksumReject: return "checksum_reject";
    case JournalEvent::kQuarantine: return "quarantine";
    case JournalEvent::kDelivered: return "delivered";
    case JournalEvent::kEval: return "eval";
    case JournalEvent::kConnect: return "connect";
    case JournalEvent::kReconnect: return "reconnect";
    case JournalEvent::kHeartbeatMissed: return "heartbeat_missed";
    case JournalEvent::kWorkerRestart: return "worker_restart";
    case JournalEvent::kFrameReject: return "frame_reject";
  }
  return "unknown";
}

EventJournal& EventJournal::instance() {
  static EventJournal* j = new EventJournal;
  return *j;
}

void EventJournal::open(const std::string& path) {
  auto os = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*os) {
    throw std::runtime_error("EventJournal: cannot open journal output " +
                             path);
  }
  JournalState& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.sink = std::move(os);
    s.path = path;
    s.header_written = false;
    for (auto& buf : s.buffers) buf->rows.clear();
  }
  s.round_context.store(kNoRoundContext, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void EventJournal::close() {
  flush_round();
  g_enabled.store(false, std::memory_order_relaxed);
  JournalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.sink.reset();
  s.path.clear();
}

void EventJournal::set_codec_name(const std::string& name) {
  JournalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.codec = name;
}

void EventJournal::record(std::uint64_t round, std::uint64_t client,
                          JournalEvent ev, std::uint64_t a, std::uint64_t b) {
  if (!enabled()) return;
  local_rows().rows.push_back({round, client, ev, a, b});
}

void EventJournal::set_round_context(std::uint64_t round) {
  state().round_context.store(round, std::memory_order_relaxed);
}

void EventJournal::clear_round_context() {
  state().round_context.store(kNoRoundContext, std::memory_order_relaxed);
}

void EventJournal::record_in_context(std::uint64_t client, JournalEvent ev,
                                     std::uint64_t a, std::uint64_t b) {
  if (!enabled()) return;
  const std::uint64_t round =
      state().round_context.load(std::memory_order_relaxed);
  if (round == kNoRoundContext) return;
  record(round, client, ev, a, b);
}

void EventJournal::flush_round() {
  JournalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::vector<JournalRow> rows;
  for (auto& buf : s.buffers) {
    rows.insert(rows.end(), buf->rows.begin(), buf->rows.end());
    buf->rows.clear();
  }
  if (s.sink == nullptr) return;
  // Rows from different worker threads arrive in pool order; the sort key
  // restores a canonical order so the file is bit-identical at any
  // FEDCLUST_THREADS (journal_test proves it with the wall clock off).
  std::sort(rows.begin(), rows.end(),
            [](const JournalRow& x, const JournalRow& y) {
              return std::tie(x.round, x.client, x.event, x.a, x.b) <
                     std::tie(y.round, y.client, y.event, y.a, y.b);
            });
  std::ostringstream os;
  if (!s.header_written) {
    os << "{\"journal\":1,\"codec\":\"" << s.codec << "\"}\n";
    s.header_written = true;
  }
  for (const JournalRow& r : rows) render_row(os, r);
  *s.sink << os.str();
  s.sink->flush();
  if (!*s.sink) {
    throw std::runtime_error("EventJournal: write failed for " + s.path);
  }
}

std::size_t EventJournal::buffered_rows() const {
  JournalState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::size_t n = 0;
  for (const auto& buf : s.buffers) n += buf->rows.size();
  return n;
}

}  // namespace fedclust::obs

#include "obs/trace.h"

#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "obs/json.h"

namespace fedclust::obs {

std::atomic<bool> SpanTracer::g_enabled{false};

namespace {

// Per-thread fixed capacity. 1 << 15 events × 40 B ≈ 1.3 MiB per recording
// thread — enough for several full quick-scale runs of round/client spans;
// kernel-level spans may wrap, which the export reports via `dropped`.
constexpr std::size_t kRingCapacity = 1u << 15;

// Per-thread ring. `head` counts every append ever made; the live slot is
// head % kRingCapacity. Written only by the owning thread; read during
// (quiescent) export.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::string label;
  std::atomic<std::uint64_t> head{0};
  std::vector<SpanEvent> ring{std::vector<SpanEvent>(kRingCapacity)};
};

struct BufferRegistry {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

BufferRegistry& registry() {
  static BufferRegistry* r = new BufferRegistry;  // leaky: workers record
  return *r;                                      // until process exit
}

thread_local ThreadBuffer* tls_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (tls_buffer == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    BufferRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    buf->tid = static_cast<std::uint32_t>(reg.buffers.size());
    tls_buffer = buf.get();
    reg.buffers.push_back(std::move(buf));
  }
  return *tls_buffer;
}

}  // namespace

SpanTracer& SpanTracer::instance() {
  static SpanTracer* t = new SpanTracer;
  return *t;
}

void SpanTracer::record(const char* name, std::int64_t begin_us,
                        std::int64_t end_us, std::uint64_t arg, bool has_arg,
                        std::uint64_t arg2, bool has_arg2) {
  ThreadBuffer& buf = local_buffer();
  const std::uint64_t h = buf.head.load(std::memory_order_relaxed);
  buf.ring[h % kRingCapacity] = {name,     begin_us, end_us,  arg,
                                 arg2,     has_arg,  has_arg2};
  buf.head.store(h + 1, std::memory_order_relaxed);
}

void SpanTracer::set_thread_label(const std::string& label) {
  ThreadBuffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(registry().mu);
  buf.label = label;
}

const char* SpanTracer::intern(const std::string& name) {
  // Node-based set: element addresses are stable across inserts, and the
  // set leaks with the leaky singleton so interned pointers outlive every
  // recorded event.
  static std::mutex* mu = new std::mutex;
  static std::unordered_set<std::string>* names =
      new std::unordered_set<std::string>;
  const std::lock_guard<std::mutex> lock(*mu);
  return names->insert(name).first->c_str();
}

std::vector<SpanTracer::ThreadEvents> SpanTracer::collect() const {
  std::vector<ThreadEvents> out;
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  out.reserve(reg.buffers.size());
  for (const auto& buf : reg.buffers) {
    ThreadEvents te;
    te.tid = buf->tid;
    te.label = buf->label.empty()
                   ? "thread-" + std::to_string(buf->tid)
                   : buf->label;
    const std::uint64_t h = buf->head.load(std::memory_order_relaxed);
    const std::uint64_t n = h < kRingCapacity ? h : kRingCapacity;
    te.dropped = h - n;
    te.events.reserve(n);
    for (std::uint64_t i = h - n; i < h; ++i) {
      te.events.push_back(buf->ring[i % kRingCapacity]);
    }
    out.push_back(std::move(te));
  }
  return out;
}

std::size_t SpanTracer::total_recorded() const {
  std::size_t total = 0;
  for (const auto& te : collect()) total += te.events.size();
  return total;
}

std::string SpanTracer::chrome_trace_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& te : collect()) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << te.tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << json::escape(te.label) << "\"}}";
    for (const auto& ev : te.events) {
      const std::int64_t dur = ev.end_us - ev.begin_us;
      os << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << te.tid << ",\"name\":\""
         << json::escape(ev.name) << "\",\"ts\":" << ev.begin_us
         << ",\"dur\":" << (dur > 0 ? dur : 0);
      if (ev.has_arg) {
        os << ",\"args\":{\"v\":" << ev.arg;
        if (ev.has_arg2) os << ",\"v2\":" << ev.arg2;
        os << "}";
      }
      os << "}";
    }
    if (te.dropped > 0) {
      os << ",{\"ph\":\"I\",\"pid\":1,\"tid\":" << te.tid
         << ",\"name\":\"ring_overflow\",\"ts\":0,\"args\":{\"dropped\":"
         << te.dropped << "}}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

void SpanTracer::clear() {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& buf : reg.buffers) {
    buf->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fedclust::obs

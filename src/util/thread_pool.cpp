#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/config.h"

namespace fedclust::util {

namespace {

// Set while this thread executes a parallel_for chunk; consulted by nested
// parallel_for calls, which then degrade to inline execution.
thread_local bool tls_in_parallel_region = false;

struct RegionGuard {
  bool prev = tls_in_parallel_region;
  RegionGuard() { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = prev; }
};

}  // namespace

bool ThreadPool::in_parallel_region() { return tls_in_parallel_region; }

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 1;
  }
  // The calling thread participates in parallel_for, so a pool of size n
  // needs only n-1 workers to keep n chunks in flight.
  const std::size_t n_workers = n_threads > 0 ? n_threads - 1 : 0;
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this, i] {
      // Label once at startup so exported traces show which pool worker a
      // span ran on (Perfetto's per-track view).
      obs::SpanTracer::instance().set_thread_label(
          "pool-worker-" + std::to_string(i));
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

// Every worker takes every job, chunk or none, and checks out of it; the
// caller publishes the next job only after the last check-out, so a worker
// can neither miss a job nor read the next one's fields.
void ThreadPool::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    run_chunk(job, w + 1);
    const std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run_chunk(const Job& job, std::size_t c) {
  const std::size_t lo = job.begin + c * job.chunk;
  const std::size_t hi = std::min(job.end, lo + job.chunk);
  if (lo >= hi) return;
  const RegionGuard region;
  OBS_SPAN_ARG("pool.chunk", hi - lo);
  OBS_GAUGE_ADD("pool.busy_workers", 1);
  try {
    (*job.fn)(lo, hi);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
  OBS_GAUGE_ADD("pool.busy_workers", -1);
}

std::size_t ThreadPool::chunk_length(std::size_t n) const {
  if (tls_in_parallel_region) return n;
  const std::size_t n_chunks = std::min(n, workers_.size() + 1);
  return (n + n_chunks - 1) / n_chunks;
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const Job job{&fn, begin, end, chunk_length(n)};
  // One chunk runs inline: no workers, one iteration, or a dispatch nested
  // in a chunk, whose outer loop already occupies the workers.
  if (job.chunk == n) {
    if (tls_in_parallel_region) {
      OBS_COUNTER_ADD("pool.nested_inline_dispatches", 1);
    }
    fn(begin, end);
    return;
  }
  OBS_COUNTER_ADD("pool.parallel_dispatches", 1);

  const std::lock_guard<std::mutex> dispatch(dispatch_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    pending_ = workers_.size();
    ++generation_;
  }
  job_cv_.notify_all();
  run_chunk(job, 0);
  // fn belongs to the caller: every worker checks out before it returns or
  // rethrows.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

namespace {

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& global_pool() {
  auto& slot = global_pool_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(env_int("FEDCLUST_THREADS", 0)));
  }
  return *slot;
}

void reset_global_pool(std::size_t n_threads) {
  auto& slot = global_pool_slot();
  slot.reset();  // join the old workers before the replacement spins up
  slot = std::make_unique<ThreadPool>(n_threads);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(begin, end, fn);
}

}  // namespace fedclust::util

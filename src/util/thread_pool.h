#pragma once

// Fixed-size thread pool with a chunked parallel_for.
//
// The simulator is deterministic by construction: parallel_for only ever
// partitions *independent* work (clients in a round whose RNG streams were
// split ahead of time), so results do not depend on the worker count or
// schedule. On a single-core host the pool degrades to inline execution
// with zero thread overhead.
//
// A fan-out is one job in the pool's job slot: worker w runs chunk w+1,
// and the caller runs chunk 0 and returns once every worker has checked
// out. Fan-outs from different threads take turns, chunk c always runs on
// the same thread, and dispatch allocates nothing.
//
// Nested-parallelism policy: a parallel_for issued from inside a chunk
// runs inline on the calling thread as one chunk and never waits for the
// slot: the outer loop already owns every worker. No product path nests
// (kernels run on their calling thread), but a nested call must still
// complete instead of deadlocking on the job slot.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedclust::util {

class ThreadPool {
 public:
  // n_threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // True while the current thread is executing a parallel_for chunk (as a
  // pool worker or as the caller taking its own chunk). parallel_for calls
  // made in that state run inline — see the nested-parallelism policy above.
  static bool in_parallel_region();

  // Length of the chunks parallel_for_chunked splits n >= 1 iterations
  // into, called from this thread: chunk c covers [c * len, (c + 1) * len)
  // of the range, clipped to it; n itself when the loop would run inline.
  std::size_t chunk_length(std::size_t n) const;

  // Runs fn(i) for i in [begin, end), splitting the range into at most
  // size()+1 contiguous chunks (the calling thread takes one). Blocks until
  // every iteration has finished. Exceptions thrown by fn are rethrown on
  // the caller (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  // Chunked variant: fn(chunk_begin, chunk_end) — lets the body hoist
  // per-chunk setup out of the inner loop.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  // The job slot's contents: one fan-out's body, range and chunk_length.
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t begin = 0, end = 0, chunk = 0;
  };

  void worker_loop(std::size_t w);
  // Runs chunk c of `job` as a parallel region; records its exception.
  void run_chunk(const Job& job, std::size_t c);

  std::mutex dispatch_mu_;  // held by the caller for one whole fan-out
  std::mutex mu_;           // guards the fields below, up to workers_
  std::condition_variable job_cv_;   // workers: a new generation or stop_
  std::condition_variable done_cv_;  // caller: pending_ reached 0
  Job job_;
  std::uint64_t generation_ = 0;  // bumped per published job
  std::size_t pending_ = 0;       // workers not yet checked out of job_
  std::exception_ptr error_;      // first exception of the current job
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the threads use the above
};

// Process-wide pool, sized by FEDCLUST_THREADS (default: hardware
// concurrency). Constructed on first use.
ThreadPool& global_pool();

// Rebuilds the global pool with the given thread count (0 = hardware
// concurrency, 1 = no workers / fully sequential). Tests and benchmarks use
// this to sweep worker counts inside one process; callers must ensure no
// parallel_for is in flight on the old pool.
void reset_global_pool(std::size_t n_threads);

// Convenience wrapper over global_pool().
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace fedclust::util

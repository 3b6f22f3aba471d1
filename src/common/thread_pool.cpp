#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/mutex.hpp"

namespace sdc {
namespace {

/// Process-wide metric sinks (see ThreadPoolMetricSinks).  Each pointer
/// is installed/read atomically so installation can race running pools.
std::atomic<std::atomic<std::uint64_t>*> g_tasks_sink{nullptr};
std::atomic<std::atomic<std::uint64_t>*> g_help_sink{nullptr};
std::atomic<std::atomic<std::int64_t>*> g_depth_sink{nullptr};

inline void sink_add(std::atomic<std::atomic<std::uint64_t>*>& slot,
                     std::uint64_t n) {
  if (auto* sink = slot.load(std::memory_order_relaxed)) {
    sink->fetch_add(n, std::memory_order_relaxed);
  }
}

inline void depth_add(std::int64_t n) {
  if (auto* sink = g_depth_sink.load(std::memory_order_relaxed)) {
    sink->fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace

void set_thread_pool_metric_sinks(
    const ThreadPoolMetricSinks& sinks) noexcept {
  g_tasks_sink.store(sinks.tasks, std::memory_order_relaxed);
  g_help_sink.store(sinks.help_while_wait, std::memory_order_relaxed);
  g_depth_sink.store(sinks.queue_depth, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool ThreadPool::calling_thread() { return ThreadPool(NoWorkers{}); }

ThreadPool::~ThreadPool() {
  if (workers_.empty()) wait_idle();
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  depth_add(1);
  cv_task_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
  }
  depth_add(-1);
  sink_add(g_tasks_sink, 1);
  sink_add(g_help_sink, 1);
  task();
  {
    MutexLock lock(mu_);
    --in_flight_;
  }
  cv_idle_.notify_all();
  return true;
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) {
    // The waiter is the pool's only thread; tasks its tasks enqueue run
    // here too.
    while (try_run_one()) {
    }
    return;
  }
  MutexLock lock(mu_);
  while (!queue_.empty() || in_flight_ != 0) cv_idle_.wait(lock);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_task_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    depth_add(-1);
    sink_add(g_tasks_sink, 1);
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  const std::size_t shards = std::min(n, pool.thread_count());
  std::size_t done = 0;
  Mutex done_mu;
  CondVar done_cv;

  for (std::size_t s = 0; s < shards; ++s) {
    pool.submit([&] {
      std::size_t i;
      std::exception_ptr error;
      while ((i = next.fetch_add(1)) < n) {
        try {
          body(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      // Notify while holding the lock: the caller's stack frame — and with
      // it done_cv itself — may be destroyed the instant the caller
      // observes done == shards, so an unlocked notify could land on a
      // dead condition variable.
      MutexLock lock(done_mu);
      if (error && !first_error) first_error = std::move(error);
      ++done;
      done_cv.notify_one();
    });
  }
  // Help-while-wait: the caller may itself be a pool task (nested
  // fan-out), in which case blocking here could deadlock — every worker
  // could be parked in this same loop while the tasks they are waiting
  // on sit in the queue behind them.  Instead the waiter drains queued
  // work (its own shards or anyone else's) until the completion count
  // arrives.  The timed wait backstops the unavoidable race where a
  // task is enqueued right after try_run_one saw an empty queue.
  while (true) {
    {
      MutexLock lock(done_mu);
      if (done == shards) break;
    }
    if (pool.try_run_one()) continue;
    MutexLock lock(done_mu);
    if (done == shards) break;
    done_cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_chunked(
    ThreadPool& pool, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) {
    const std::size_t shares = 4 * std::max<std::size_t>(pool.thread_count(), 1);
    grain = (n + shares - 1) / shares;
  }
  if (grain < 1) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  parallel_for(pool, chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    body(begin, end);
  });
}

}  // namespace sdc

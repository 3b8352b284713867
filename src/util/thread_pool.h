#ifndef HETPS_UTIL_THREAD_POOL_H_
#define HETPS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hetps {

/// Fixed-size thread pool with a FIFO task queue.
///
/// Used by the parameter server's shard-parallel push apply, by the event
/// simulator to compute its workers' clocks in parallel, and by tests
/// that need controlled concurrency.
///
/// Shutdown contract: Shutdown() (also run by the destructor) drains the
/// queue — every task already accepted runs to completion — then joins
/// the workers. Submit after shutdown is refused (returns false) rather
/// than aborting the process, so racing producers degrade gracefully.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; returns immediately. Tasks must not throw.
  /// Returns false (task discarded) if the pool is shut down.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void Wait();

  /// Stops accepting tasks, runs everything already queued, joins all
  /// workers. Idempotent; safe to race from multiple threads.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;

  // Serializes Shutdown() callers (join must happen exactly once).
  std::mutex shutdown_mu_;
  bool joined_ = false;
};

}  // namespace hetps

#endif  // HETPS_UTIL_THREAD_POOL_H_

// A minimal fixed-size thread pool used by the measurement runner.
//
// Work items are type-erased std::function<void()>; submit() returns a
// std::future for the callable's result.  The pool joins in its destructor
// after draining the queue (tasks submitted before destruction all run).
//
// The bulk dispatcher, parallel_for_dynamic, hands out indices through an
// atomic ticket: every worker pulls the next index the moment it finishes
// the previous one, so skewed workloads balance automatically.  It can fill
// a ParallelStats with per-worker telemetry.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace mlaas {

/// Per-worker telemetry of one parallel_for_dynamic call.
struct ParallelStats {
  /// Wall seconds each worker spent inside the callable (index = worker).
  std::vector<double> busy_seconds;
  /// Items each worker executed.
  std::vector<std::size_t> items;
  /// Items executed by a different worker than the one a static contiguous
  /// partition would have assigned them to — how much work the ticket moved
  /// off overloaded workers.
  std::size_t stolen = 0;
  /// Wall seconds of the whole dispatch (submission to last completion).
  double makespan_seconds = 0.0;

  double total_busy_seconds() const;
  /// max(worker busy) / mean(worker busy); 1.0 = perfectly balanced.
  /// Returns 1.0 when no worker did any work.
  double imbalance() const;
};

class ThreadPool {
 public:
  /// Defensive ceiling on the worker count: thread handles cost real memory
  /// and a request this large is always a bug (e.g. a negative count pushed
  /// through a size_t cast), never a machine.
  static constexpr std::size_t kMaxThreads = 1024;

  /// n_threads == 0 means hardware_concurrency (at least 1).  Throws
  /// std::invalid_argument for n_threads > kMaxThreads.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n) with dynamic dispatch: one runner per worker,
  /// each pulling the next index off a shared atomic ticket.  Indices are
  /// claimed in ascending order but may execute concurrently and finish in
  /// any order.  On an exception, workers stop claiming new indices
  /// (in-flight ones finish) and the first exception is rethrown.
  void parallel_for_dynamic(std::size_t n, const std::function<void(std::size_t)>& fn,
                            ParallelStats* stats = nullptr);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace mlaas

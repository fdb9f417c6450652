// core::WorkerPool — the fixed thread pool CampaignRunner spreads whole
// campaign jobs (seed sweeps, loss sweeps) across.
//
// The pool supports *caller participation*: a thread waiting for its
// tasks to finish (help_until) pops and runs queued tasks instead of
// sleeping, so the submitting thread contributes a worker's worth of
// throughput and even a 1-worker pool drains its queue promptly.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace svcdisc::core {

class WorkerPool {
 public:
  /// `workers` == 0 picks hardware_threads(). The pool spawns exactly
  /// `workers` threads; callers add themselves via help_until.
  explicit WorkerPool(std::size_t workers = 0);
  /// Joins after draining: queued tasks still run before destruction.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task (FIFO).
  void submit(std::function<void()> task);

  /// Runs queued tasks on the calling thread until `done()` returns
  /// true. Between tasks it sleeps on the task-completion signal, so a
  /// caller waiting on work finishing elsewhere in the pool wakes
  /// promptly. `done` is evaluated without the pool lock held.
  void help_until(const std::function<bool()>& done);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable task_ready_;  // workers: queue non-empty / stop
  std::condition_variable task_done_;   // helpers: a task finished
  std::deque<std::function<void()>> queue_;
  bool stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace svcdisc::core

#pragma once
/// \file job_queue.hpp
/// \brief Bounded MPMC queue — the admission-control point of the service.
///
/// The queue is deliberately *bounded* and *rejecting*: under overload,
/// TryPush fails immediately — with a reason, PushResult::kFull vs
/// kClosed — so the caller can answer SolveStatus::kRejectedQueueFull
/// (or kShuttingDown) instead of letting latency grow without bound
/// (load shedding at the front door, not timeouts at the back).
///
/// Shutdown protocol: Close() makes all future pushes fail while consumers
/// keep draining; Pop() returns nullopt only once the queue is closed *and*
/// empty, so no accepted item is ever dropped.
///
/// Ordering: every pop hands out the highest-priority item, FIFO within a
/// priority level (so the default all-zero workload behaves exactly like
/// the plain FIFO it used to be).  MaxPriority()/TryPopAbove() exist for
/// the service's preemption loop: a worker mid-solve can ask "is something
/// more urgent waiting?" and claim it without blocking.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

namespace cdd::serve {

/// Why a push was refused — distinct reasons, because the caller's answer
/// differs: a *full* queue is backpressure on a live service (retryable,
/// kRejectedQueueFull), a *closed* queue is shutdown (kShuttingDown, do
/// not retry).  Conflating them made the shutdown window inflate the
/// overload metrics.
enum class PushResult {
  kOk,      ///< enqueued
  kFull,    ///< at capacity: backpressure, caller may retry later
  kClosed,  ///< shut down: no push will ever succeed again
};

/// Bounded multi-producer multi-consumer priority queue (FIFO within a
/// priority level).  T must be movable.
template <class T>
class JobQueue {
 public:
  /// MaxPriority() when the queue is empty: less than any real priority.
  static constexpr int kNoPriority = std::numeric_limits<int>::min();

  /// \p capacity must be >= 1; the queue never holds more items than this.
  explicit JobQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueues \p item if there is room and the queue is open.  On refusal
  /// the reason comes back (kFull vs kClosed) and \p item is untouched —
  /// the caller still owns it and can complete it with the matching
  /// rejection status.
  PushResult TryPush(T&& item, int priority = 0) {
    {
      const std::scoped_lock lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(Entry{priority, std::move(item)});
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until an item is available or the queue is closed and drained;
  /// nullopt means "no more work ever" (the consumer should exit).
  std::optional<T> Pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return PopBestLocked();
  }

  /// Non-blocking Pop; nullopt when nothing is ready right now.
  std::optional<T> TryPop() {
    const std::scoped_lock lock(mutex_);
    return PopBestLocked();
  }

  /// Priority of the item the next Pop would return, or kNoPriority when
  /// the queue is empty.  A point-in-time answer — racing producers can
  /// change it immediately — which is all the preemption check needs.
  int MaxPriority() const {
    const std::scoped_lock lock(mutex_);
    int best = kNoPriority;
    for (const Entry& entry : items_) {
      if (entry.priority > best) best = entry.priority;
    }
    return best;
  }

  /// Pops the highest-priority item only if its priority is strictly
  /// above \p floor; nullopt otherwise.  The atomic check-and-claim of
  /// the preemption loop: a worker paused at a Step boundary claims more
  /// urgent work, or nothing.
  std::optional<T> TryPopAbove(int floor) {
    const std::scoped_lock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    const auto best = FindBestLocked();
    if (best->priority <= floor) return std::nullopt;
    std::optional<T> item(std::move(best->item));
    items_.erase(best);
    return item;
  }

  /// Removes and returns the lowest-priority queued item, but only if its
  /// priority is strictly below \p below; nullopt otherwise (including
  /// empty).  The newest item of the lowest level is taken — it would
  /// have been served last anyway — so under overload a higher-priority
  /// arrival displaces exactly the work the service would shed next.
  std::optional<T> TryEvictLowest(int below) {
    const std::scoped_lock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    auto worst = items_.begin();
    for (auto it = std::next(worst); it != items_.end(); ++it) {
      // >= keeps walking to the *last* entry of the lowest level.
      if (it->priority <= worst->priority) worst = it;
    }
    if (worst->priority >= below) return std::nullopt;
    std::optional<T> item(std::move(worst->item));
    items_.erase(worst);
    return item;
  }

  /// Priority of the item TryEvictLowest would consider, or kNoPriority
  /// when the queue is empty.  Point-in-time, like MaxPriority().
  int MinPriority() const {
    const std::scoped_lock lock(mutex_);
    int worst = std::numeric_limits<int>::max();
    for (const Entry& entry : items_) {
      if (entry.priority < worst) worst = entry.priority;
    }
    return items_.empty() ? kNoPriority : worst;
  }

  /// Closes the queue: producers are rejected from now on, consumers drain
  /// the remaining items and then see nullopt.  Idempotent.
  void Close() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    const std::scoped_lock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    int priority = 0;
    T item;
  };

  /// First entry with the maximum priority — FIFO within a level.
  /// Requires mutex_ held and items_ non-empty.
  typename std::deque<Entry>::iterator FindBestLocked() {
    auto best = items_.begin();
    for (auto it = std::next(best); it != items_.end(); ++it) {
      if (it->priority > best->priority) best = it;
    }
    return best;
  }

  /// Requires mutex_ held.
  std::optional<T> PopBestLocked() {
    if (items_.empty()) return std::nullopt;
    const auto best = FindBestLocked();
    std::optional<T> item(std::move(best->item));
    items_.erase(best);
    return item;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Entry> items_;
  bool closed_ = false;
};

}  // namespace cdd::serve

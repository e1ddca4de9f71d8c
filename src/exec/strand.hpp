// Strand: a serialized FIFO task queue scheduled on a shared Executor.
//
// A strand is the concurrency unit of one state machine: tasks posted to
// it run one at a time, in post order, on whichever thread runs its
// activation (a pool worker, or the application thread that claimed it;
// see run_claimed) — never two tasks of the same strand concurrently, so the
// state the tasks touch needs no locking of its own. Independent strands
// run in parallel across the pool; this is how the threaded lock service
// keeps the paper's one-event-at-a-time semantics per (resource, node)
// state machine while independent resources use every core.
//
// Implementation: an internal ring of InlineCallback tasks guarded by a
// short mutex, plus an `active` flag that guarantees at most one
// activation of the strand exists at any time (enqueueing onto an idle
// strand claims its activation; enqueueing onto an active one just
// queues). An activation drains up to kBatch tasks, then yields its thread
// and requeues itself through the executor's fair global queue so one hot
// strand cannot monopolize a worker or starve its deque neighbours.
//
// Two-phase enqueue: push() enqueues and reports whether the caller now
// owns the activation. post() hands an owned activation to the pool;
// run_claimed() (and dispatch(), its one-call form) runs it on the calling
// application thread instead — the same bounded drain, minus the hop to a
// worker. That is how a releasing client delivers the token to the next
// holder on its own thread. Strands dispatched from inside an inline drain
// queue on a small per-thread trampoline behind the current one rather
// than recursing, so stack depth stays flat and the inline work one caller
// takes on is bounded (1 + kTrampolineSlots activations); beyond that they
// go to the pool. On a pool worker run_claimed() is exactly post().
//
// The serialization guarantee doubles as the memory fence: task i's
// effects are published to task i+1 (possibly on another worker) through
// the queue mutex, so strand-confined state is race-free by construction.
//
// Lifetime: destroy a strand only after the executor is shut down or the
// strand is known idle with no queued tasks; queued tasks are destroyed
// unrun (their captures release normally).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "exec/executor.hpp"
#include "sim/inline_function.hpp"
#include "telemetry/telemetry.hpp"

namespace dmx::exec {

class Strand;

namespace detail {
/// Shared across every strand in the process: activations (pool pickups
/// and inline drains) and the distribution of tasks drained per activation — the batching
/// evidence behind the kBatch=32 choice.
inline telemetry::CounterId strand_activations_counter() {
  static const telemetry::CounterId id =
      telemetry::Registry::global().counter("exec.strand_activations");
  return id;
}
inline telemetry::HistogramId strand_batch_hist() {
  static const telemetry::HistogramId id =
      telemetry::Registry::global().histogram("exec.strand_batch");
  return id;
}
/// The subset of activations run on an application thread (run_claimed)
/// rather than a pool worker: the work that moved off the pool.
inline telemetry::CounterId strand_inline_activations_counter() {
  static const telemetry::CounterId id =
      telemetry::Registry::global().counter("exec.strand_inline_activations");
  return id;
}
/// Per-thread queue of claimed activations waiting behind the inline drain
/// in progress (see Strand::run_claimed). Slots are not reused within one
/// outermost drain, which is what bounds the caller's inline work.
struct Trampoline {
  static constexpr int kSlots = 4;
  bool draining = false;
  int head = 0;
  int tail = 0;
  Strand* slots[kSlots] = {};
};
inline thread_local Trampoline tl_trampoline;
}  // namespace detail

class Strand {
 public:
  /// Move-only type-erased task; keep captures within the 48-byte inline
  /// budget (six pointers) to stay off the heap.
  using Task = sim::InlineCallback;

  /// Tasks drained per activation before the strand yields its worker and
  /// requeues fairly.
  static constexpr int kBatch = 32;

  explicit Strand(Executor& executor) : executor_(executor) {
    pool_task_.run = &Strand::run_activation;
    pool_task_.context = this;
    // Register up front so snapshots list it (at zero) before the first
    // inline activation.
    detail::strand_inline_activations_counter();
  }

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  ~Strand() = default;

  /// Strands an inline drain may queue behind itself before further
  /// dispatches overflow to the pool.
  static constexpr int kTrampolineSlots = detail::Trampoline::kSlots;

  /// Enqueues `task`. Returns true iff the strand was idle: the caller
  /// then owns its activation and must hand it to post_claimed() or
  /// run_claimed(). Lets a caller enqueue under its own lock and start the
  /// activation after dropping it.
  [[nodiscard]] bool push(Task task) {
    std::lock_guard<std::mutex> guard(mutex_);
    queue_.push(std::move(task));
    if (active_) return false;
    active_ = true;
    return true;
  }

  /// Enqueues `task`; schedules the strand on the pool iff it was idle.
  void post(Task task) {
    if (push(std::move(task))) post_claimed();
  }

  /// Enqueues `task`; runs the activation it claims (if any) through
  /// run_claimed().
  void dispatch(Task task) {
    if (push(std::move(task))) run_claimed();
  }

  /// Hands an activation claimed by push() to the pool.
  void post_claimed() { executor_.submit(&pool_task_); }

  /// Runs an activation claimed by push() on the calling thread: the same
  /// kBatch-bounded drain a worker runs, requeued through submit_fair when
  /// it goes past the batch. Called from inside another inline drain, the
  /// strand queues on the thread's trampoline behind the current one (the
  /// pool takes it once the slots are used up). On a worker of this
  /// strand's executor it is post_claimed(). Call it holding no lock a
  /// strand task may take. A task that throws ends the process, as it
  /// does on a worker, rather than leaving the strand claimed forever.
  void run_claimed() noexcept {
    if (executor_.on_worker_thread()) {
      post_claimed();
      return;
    }
    detail::Trampoline& trampoline = detail::tl_trampoline;
    if (trampoline.draining) {
      if (trampoline.tail < kTrampolineSlots) {
        trampoline.slots[trampoline.tail++] = this;
      } else {
        post_claimed();
      }
      return;
    }
    trampoline.draining = true;
    run(/*on_caller=*/true);
    while (trampoline.head < trampoline.tail) {
      trampoline.slots[trampoline.head++]->run(/*on_caller=*/true);
    }
    trampoline = detail::Trampoline{};
  }

  /// Tasks executed over the strand's lifetime (test introspection; only
  /// meaningful once the strand is quiescent).
  std::uint64_t executed() const { return executed_; }

 private:
  /// Grow-by-doubling ring of tasks; steady state recycles slots and
  /// never allocates.
  class TaskRing {
   public:
    bool empty() const { return size_ == 0; }

    void push(Task task) {
      if (size_ == capacity_) grow();
      slots_[(head_ + size_) & (capacity_ - 1)] = std::move(task);
      ++size_;
    }

    Task pop() {
      DMX_CHECK(size_ > 0);
      Task task = std::move(slots_[head_]);
      slots_[head_] = nullptr;
      head_ = (head_ + 1) & (capacity_ - 1);
      --size_;
      return task;
    }

   private:
    void grow() {
      const std::size_t fresh_capacity = capacity_ == 0 ? 8 : capacity_ * 2;
      auto fresh = std::make_unique<Task[]>(fresh_capacity);
      for (std::size_t i = 0; i < size_; ++i) {
        fresh[i] = std::move(slots_[(head_ + i) & (capacity_ - 1)]);
      }
      slots_ = std::move(fresh);
      capacity_ = fresh_capacity;
      head_ = 0;
    }

    std::unique_ptr<Task[]> slots_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  static void run_activation(void* context) {
    static_cast<Strand*>(context)->run(/*on_caller=*/false);
  }

  void run(bool on_caller) {
    int drained = 0;
    bool requeue = false;
    for (;;) {
      Task task;
      {
        std::lock_guard<std::mutex> guard(mutex_);
        if (queue_.empty()) {
          active_ = false;
          break;
        }
        if (drained >= kBatch) {  // stay active, yield the worker
          requeue = true;
          break;
        }
        task = queue_.pop();
      }
      task();
      ++executed_;
      ++drained;
    }
    telemetry::count(detail::strand_activations_counter());
    if (on_caller) {
      telemetry::count(detail::strand_inline_activations_counter());
    }
    // Activation counter exact; batch histogram is shape-only, sampled.
    if (telemetry::sample_1_in_8()) {
      telemetry::observe(detail::strand_batch_hist(),
                         static_cast<std::uint64_t>(drained));
    }
    if (requeue) executor_.submit_fair(&pool_task_);
  }

  Executor& executor_;
  PoolTask pool_task_;
  std::mutex mutex_;
  TaskRing queue_;
  bool active_ = false;
  std::uint64_t executed_ = 0;  // strand-confined
};

}  // namespace dmx::exec

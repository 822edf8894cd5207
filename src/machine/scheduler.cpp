// The worker pool behind FiberScheduler.  This is the one machine-layer
// file allowed to touch host threading primitives (std::thread,
// condition_variable, thread_local) — the determinism lint's raw-thread
// rule exempts exactly this file, so every other machine source is
// provably free of host-threading assumptions.
#include "machine/scheduler.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "machine/fiber.hpp"
#include "machine/event_log.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

/// Park/wake state machine.  Transitions:
///   kReady --worker picks--> kRunning
///   kRunning --prepare_park--> kParking (--cancel_park--> kRunning)
///   kParking --worker, post-switch--> kParked
///   kParking --waker--> kWakeRequested --worker, post-switch--> kReady
///   kParked --waker--> kReady (+ ready-queue push)
///   kRunning --entry returns--> kFinished
enum class FiberState : unsigned char {
  kReady,
  kRunning,
  kParking,
  kParked,
  kWakeRequested,
  kFinished,
};

struct FiberRecord {
  FiberContext ctx;
  std::atomic<FiberState> state{FiberState::kReady};
  FiberScheduler::Impl* impl = nullptr;
  int rank = 0;
  /// Park counter: bumped by prepare_park before the kParking
  /// release-store, so (rank, park_seq) names one specific park — the
  /// happens-before log pairs each wake with the park it released by it.
  /// Readable by wakers after an acquire-load of `state`.
  std::uint64_t park_seq = 0;
};

struct WorkerRecord {
  FiberContext ctx;
};

thread_local FiberScheduler* tls_sched = nullptr;
thread_local WorkerRecord* tls_worker = nullptr;
thread_local FiberRecord* tls_fiber = nullptr;

std::size_t default_stack_bytes() {
#if defined(KALI_FIBER_ASAN) || defined(KALI_FIBER_TSAN)
  return std::size_t{1} << 20;  // instrumented frames are much fatter
#else
  return std::size_t{256} << 10;
#endif
}

int default_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void fiber_entry(void* arg);

}  // namespace

struct FiberScheduler::Impl {
  int nfibers;
  int nworkers;
  FiberStackArena arena;
  std::vector<std::unique_ptr<FiberRecord>> fibers;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;  // FIFO run queue, seeded ranks ascending
  int running = 0;        // fibers currently on a worker (or in transit)
  int finished = 0;
  bool started = false;
  // Atomic so lock-free paths (prepare_park, Mailbox's re-check loop) can
  // observe an abort without taking mu; still only written under mu.
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;  // defensive: body should catch its own

  // Harness seams, all fixed before run(): dispatch hook (interleaving
  // explorer), event log, full-stall handler (deadlock diagnosis).
  SchedulerHook* hook = nullptr;
  EventLog* log = nullptr;
  StallHandler stall_handler;

  /// Actor id for events recorded from the calling context: the running
  /// fiber's rank, or the machine context (always under mu) when no fiber
  /// is on this thread.
  [[nodiscard]] static int log_actor() {
    return tls_fiber != nullptr ? tls_fiber->rank : EventLog::kMachineActor;
  }

  const std::function<void(int)>* body = nullptr;

  Impl(int nf, int nw, std::size_t stack_bytes)
      : nfibers(nf),
        nworkers(nw > 0 ? nw : default_workers()),
        arena(nf, stack_bytes != 0 ? stack_bytes : default_stack_bytes()) {
    fibers.reserve(static_cast<std::size_t>(nf));
    for (int r = 0; r < nf; ++r) {
      auto f = std::make_unique<FiberRecord>();
      f->impl = this;
      f->rank = r;
      f->ctx.init_fiber(arena.stack_bottom(r), arena.stack_bytes(),
                        &fiber_entry, f.get());
      fibers.push_back(std::move(f));
    }
  }

  FiberRecord& fiber(int rank) {
    return *fibers[static_cast<std::size_t>(rank)];
  }

  /// CAS a parked (or parking) fiber runnable.  Caller holds mu for the
  /// ready-queue push.
  void wake_locked(FiberRecord& f) {
    for (;;) {
      FiberState s = f.state.load(std::memory_order_acquire);
      if (s == FiberState::kParked) {
        if (f.state.compare_exchange_weak(s, FiberState::kReady,
                                          std::memory_order_acq_rel)) {
          if (log != nullptr) {
            log->wake(log_actor(), f.rank, f.park_seq);
          }
          ready.push_back(f.rank);
          cv.notify_one();
          return;
        }
      } else if (s == FiberState::kParking) {
        // The fiber is between announcing the park and the switch; flag
        // it and its worker requeues it right after the swap.
        if (f.state.compare_exchange_weak(s, FiberState::kWakeRequested,
                                          std::memory_order_acq_rel)) {
          if (log != nullptr) {
            log->wake(log_actor(), f.rank, f.park_seq);
          }
          return;
        }
      } else {
        return;  // ready/running/wake-requested/finished: nothing to do
      }
    }
  }

  /// Record `error` as the run's failure (the first one wins), poison
  /// future parks and wake everything so the pool unwinds.  Caller holds
  /// mu.
  void abort_locked(std::exception_ptr error) {
    if (error && !first_error) {
      first_error = std::move(error);
    }
    aborted.store(true, std::memory_order_release);
    for (auto& up : fibers) {
      wake_locked(*up);
    }
    cv.notify_all();
  }

  void resume(WorkerRecord& w, FiberRecord& f) {
    f.state.store(FiberState::kRunning, std::memory_order_release);
    tls_fiber = &f;
    fiber_switch(w.ctx, f.ctx);
    tls_fiber = nullptr;
  }

  /// Classify why the fiber switched back, under mu.
  void post_switch_locked(FiberRecord& f) {
    if (!arena.canary_ok(f.rank)) {
      // The fiber's frames reached the very bottom of its stack.  In a
      // guarded arena the guard page usually faults first; this check is
      // the backstop that still diagnoses the overflow in guardless
      // (large-population) arenas, or when a big frame stepped over the
      // guard.  Abort the run with the actionable error.
      abort_locked(std::make_exception_ptr(Error(
          "fiber stack overflow: rank " + std::to_string(f.rank) +
          " overran its " + std::to_string(arena.stack_bytes()) +
          "-byte stack (bottom canary destroyed); raise "
          "MachineConfig::fiber_stack_bytes")));
    }
    FiberState s = f.state.load(std::memory_order_acquire);
    if (s == FiberState::kFinished) {
      f.ctx.destroy();  // TSan fiber teardown — never from the fiber itself
      ++finished;
      if (finished == nfibers) {
        cv.notify_all();
      }
      return;
    }
    FiberState expect = FiberState::kParking;
    if (f.state.compare_exchange_strong(expect, FiberState::kParked,
                                        std::memory_order_acq_rel)) {
      return;
    }
    KALI_CHECK(expect == FiberState::kWakeRequested,
               "fiber in impossible state after switching out");
    f.state.store(FiberState::kReady, std::memory_order_release);
    ready.push_back(f.rank);
    cv.notify_one();
  }

  /// Full stall: nothing ready, nothing running, some fibers unfinished.
  /// If every unfinished fiber is parked, nothing can ever wake one: abort
  /// the run with the stall handler's diagnostic, or the built-in one.
  void stall_locked(std::unique_lock<std::mutex>& lk) {
    std::vector<StallState> states(fibers.size());
    int parked = 0;
    for (std::size_t r = 0; r < fibers.size(); ++r) {
      const FiberRecord& f = *fibers[r];
      // The acquire pairs with the fiber's kParking release-store, so the
      // handler sees everything the fiber wrote before it parked.
      const FiberState s = f.state.load(std::memory_order_acquire);
      if (s == FiberState::kFinished) {
        states[r] = StallState::kFinished;
      } else if (s == FiberState::kParked) {
        states[r] = StallState::kParked;
        ++parked;
      } else {
        cv.wait(lk);  // a wake is in transit: not a full stall after all
        return;
      }
    }
    std::exception_ptr error;
    if (!stall_handler) {
      error = std::make_exception_ptr(Error(
          "full stall: " + std::to_string(parked) +
          " rank(s) parked, none can be woken"));
    } else {
      try {
        error = std::make_exception_ptr(Error(stall_handler(states)));
      } catch (...) {
        // Runs on a worker thread: a throwing handler fails the run instead
        // of escaping the thread.
        error = std::current_exception();
      }
    }
    abort_locked(std::move(error));
  }

  void worker_main(FiberScheduler* self) {
    WorkerRecord w;
    w.ctx.init_host();
    tls_sched = self;
    tls_worker = &w;
    std::unique_lock<std::mutex> lk(mu);
    while (finished < nfibers) {
      if (!ready.empty()) {
        std::size_t pick = 0;
        if (hook != nullptr) {
          // Explorer seam: the hook chooses among the runnable fibers
          // (called under mu; see SchedulerHook).  Invoked even for
          // singleton ready sets so a replaying hook sees a stable
          // step numbering.
          const std::vector<int> snapshot(ready.begin(), ready.end());
          pick = hook->pick_next(snapshot);
          if (pick >= snapshot.size()) {
            pick = 0;
          }
        }
        FiberRecord& f = fiber(ready[pick]);
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
        ++running;
        lk.unlock();
        resume(w, f);
        lk.lock();
        // Order matters: classify the fiber before dropping `running`, so
        // peers never observe a stall while a park is still in transit.
        post_switch_locked(f);
        --running;
        continue;
      }
      if (running > 0) {
        cv.wait(lk);
        continue;
      }
      stall_locked(lk);
    }
    lk.unlock();
    cv.notify_all();
    tls_worker = nullptr;
    tls_sched = nullptr;
  }
};

namespace {

void fiber_entry(void* arg) {
  auto* f = static_cast<FiberRecord*>(arg);
  FiberScheduler::Impl* im = f->impl;
  try {
    (*im->body)(f->rank);
  } catch (...) {
    // Machine::run's per-rank body catches everything itself; this is the
    // safety net for standalone scheduler use.
    std::lock_guard<std::mutex> lk(im->mu);
    im->abort_locked(std::current_exception());
  }
  f->state.store(FiberState::kFinished, std::memory_order_release);
  WorkerRecord* w = tls_worker;
  w->ctx.set_asan_bounds(f->ctx.peer_bottom(), f->ctx.peer_size());
  fiber_switch(f->ctx, w->ctx, /*from_dying=*/true);
  // Unreachable: the dying switch never returns.
}

}  // namespace

FiberScheduler::FiberScheduler(int nfibers, int workers,
                               std::size_t stack_bytes) {
  KALI_CHECK(nfibers >= 1, "scheduler needs at least one fiber");
  impl_ = std::make_unique<Impl>(nfibers, workers, stack_bytes);
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::run(const std::function<void(int)>& body) {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    KALI_CHECK(!im.started, "FiberScheduler::run is single-shot");
    im.started = true;
    im.body = &body;
    for (int r = 0; r < im.nfibers; ++r) {
      im.ready.push_back(r);  // deterministic seed: ranks ascending
    }
  }
  const int w = std::min(im.nworkers, im.nfibers);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    workers.emplace_back([this, &im] { im.worker_main(this); });
  }
  for (auto& t : workers) {
    t.join();
  }
  im.body = nullptr;
  if (im.first_error) {
    std::rethrow_exception(im.first_error);
  }
}

void FiberScheduler::prepare_park() {
  FiberRecord* f = tls_fiber;
  KALI_CHECK(f != nullptr && f->impl == impl_.get(),
             "prepare_park outside a fiber of this scheduler");
  Impl& im = *impl_;
  ++f->park_seq;
  if (im.log != nullptr) {
    im.log->park(f->rank, f->park_seq);
  }
  f->state.store(FiberState::kParking, std::memory_order_release);
}

void FiberScheduler::commit_park() {
  FiberRecord* f = tls_fiber;
  WorkerRecord* w = tls_worker;
  KALI_CHECK(f != nullptr && w != nullptr, "commit_park outside a fiber");
  w->ctx.set_asan_bounds(f->ctx.peer_bottom(), f->ctx.peer_size());
  fiber_switch(f->ctx, w->ctx);
  // Resumed — possibly on a different worker thread (tls_worker moved on).
  Impl& im = *impl_;
  if (im.log != nullptr) {
    im.log->woken(f->rank, f->park_seq);
  }
}

bool FiberScheduler::cancel_park() {
  FiberRecord* f = tls_fiber;
  KALI_CHECK(f != nullptr, "cancel_park outside a fiber");
  // kParking normally; kWakeRequested if a wake hit the announce window —
  // either way the fiber is running and the waker's effect (a pushed
  // message, the abort flag) is visible to the caller's re-check.
  const FiberState prev =
      f->state.exchange(FiberState::kRunning, std::memory_order_acq_rel);
  const bool consumed = prev == FiberState::kWakeRequested;
  Impl& im = *impl_;
  if (consumed && im.log != nullptr) {
    // The waker already logged `wake (rank, park_seq)`; consume it here so
    // the edge pairs up even though no suspension happened.
    im.log->woken(f->rank, f->park_seq);
  }
  return consumed;
}

void FiberScheduler::wake(int rank) {
  Impl& im = *impl_;
  KALI_CHECK(rank >= 0 && rank < im.nfibers, "wake: rank out of range");
  std::lock_guard<std::mutex> lk(im.mu);
  im.wake_locked(im.fiber(rank));
}

void FiberScheduler::abort() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);
  im.abort_locked(nullptr);
}

bool FiberScheduler::aborted() const {
  // Lock-free: Mailbox's recv loop polls this between park attempts.
  return impl_->aborted.load(std::memory_order_acquire);
}

int FiberScheduler::nfibers() const { return impl_->nfibers; }

void FiberScheduler::set_hook(SchedulerHook* hook) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);
  KALI_CHECK(!im.started, "set_hook: scheduler already started");
  im.hook = hook;
}

void FiberScheduler::set_stall_handler(StallHandler handler) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);
  KALI_CHECK(!im.started, "set_stall_handler: scheduler already started");
  im.stall_handler = std::move(handler);
}

void FiberScheduler::attach_event_log(EventLog* log) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.mu);
  KALI_CHECK(!im.started, "attach_event_log: scheduler already started");
  im.log = log;
}

EventLog* FiberScheduler::event_log() const { return impl_->log; }

FiberScheduler* FiberScheduler::current() {
  return tls_fiber != nullptr ? tls_sched : nullptr;
}

int FiberScheduler::current_rank() {
  return tls_fiber != nullptr ? tls_fiber->rank : -1;
}

}  // namespace kali

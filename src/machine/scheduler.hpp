// Cooperative fiber scheduler: simulated ranks as user-level contexts
// multiplexed onto a fixed pool of host worker threads, replacing the old
// thread-per-rank Machine::run (which capped P at what the OS would
// spawn).  With fibers, P = 64k ranks is a bench setting, not a fork bomb.
//
// Determinism contract: the machine layer's results (clocks, counters,
// traces) are bit-identical for ANY host interleaving because all
// simulated state is sharded per rank — a rank's processor, ledgers, and
// event-log shard are touched only by that rank's own execution context
// (docs/machine-model.md, "Execution model").  The scheduler therefore
// does not need — and does not promise — a deterministic interleaving;
// it promises only a deterministic *seed order* (ranks enter the run
// queue ascending) and FIFO requeueing, which makes single-worker runs
// fully reproducible step sequences, a property the differential tests
// exploit.
//
// Yield point: Mailbox::recv parks the calling fiber when no message on
// its named (src, tag) lane is queued (prepare_park / commit_park below).
// That receive is the only kind of park, and since every receive names
// its source, which message it takes never depends on host order.  A
// parked fiber with no possible waker is first-class scheduler state,
// noticed only at a *full stall*: no fiber ready or running, every
// unfinished one parked.  Nothing can wake anyone then, so the run aborts
// at once, with the stall handler's diagnostic (set_stall_handler;
// Machine::run installs the deadlock diagnosis) or a built-in one-liner.
// Nothing waits on a wall clock.  A cooperative scheduler cannot preempt
// a spinning fiber, so a deadlocked cycle beside a rank that loops
// forever without blocking is never reported.
//
// All host-threading machinery (workers, mutex, condvar, thread-locals)
// lives in scheduler.cpp, the one machine-layer file the determinism
// lint's raw-thread rule exempts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace kali {

class EventLog;

/// What one fiber is doing at a full stall (see set_stall_handler).
enum class StallState : unsigned char {
  kFinished,  ///< its body returned
  kParked,    ///< parked in a Mailbox receive
};

/// Full-stall diagnosis seam: given every fiber's StallState (indexed by
/// rank), return the diagnostic the run aborts with.
using StallHandler =
    std::function<std::string(const std::vector<StallState>& states)>;

/// Harness seam for systematic interleaving exploration: when installed
/// (set_hook / MachineConfig::sim_hook), every dispatch decision a worker
/// makes is delegated to the hook, which picks the next runnable fiber
/// from the FIFO-ordered ready queue.  tools/explore_scheduler drives
/// small programs through every reachable dispatch sequence this way and
/// asserts the results are bit-identical — the mechanized form of the
/// determinism contract above.
///
/// pick_next is called under the scheduler lock: it must not call back
/// into the scheduler, and with sim_workers > 1 it must be thread-safe.
/// Out-of-range picks fall back to index 0 (FIFO).
class SchedulerHook {
 public:
  virtual ~SchedulerHook() = default;
  /// `ready` lists the runnable ranks in FIFO order (always non-empty).
  /// Return the index of the rank the worker should dispatch.
  virtual std::size_t pick_next(const std::vector<int>& ready) = 0;
};

class FiberScheduler {
 public:
  /// `nfibers` simulated ranks multiplexed onto `workers` host threads
  /// (0 = one per hardware thread, resolved here so callers never touch
  /// std::thread).  `stack_bytes` = 0 picks the build default (256 KiB;
  /// 1 MiB under a sanitizer, whose instrumented frames are fatter).
  FiberScheduler(int nfibers, int workers, std::size_t stack_bytes);
  ~FiberScheduler();
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Run body(rank) to completion on every fiber, blocking the calling
  /// thread.  Single-shot: construct a fresh scheduler per run.  body
  /// must not let exceptions escape (Machine::run catches per rank); if
  /// one does anyway, the run aborts and the first such exception is
  /// rethrown here.
  void run(const std::function<void(int)>& body);

  // --- yield protocol (valid only on a fiber of this scheduler) ---
  //
  // The three-step shape closes the lost-wakeup window without making
  // wakers take the scheduler lock while the parker holds a mailbox lock:
  //   prepare_park();          // announce: state = kParking
  //   ...publish the wake condition under the resource's own lock...
  //   commit_park();           // suspend (or bounce straight back if a
  //                            // wake already landed in the window)
  // A waker that finds the fiber kParking flags it kWakeRequested and the
  // worker requeues it immediately after the switch — the wake is never
  // lost, whichever side of the swapcontext it lands on.

  /// Announce a park.
  void prepare_park();

  /// Suspend until wake() or abort() (a full stall aborts).  The caller
  /// re-checks its condition.
  void commit_park();

  /// Abandon a prepared park (the condition was already satisfied).
  /// Returns true iff a wake had already landed in the announce window
  /// (its happens-before edge is consumed here instead of at a resume).
  bool cancel_park();

  // --- valid from any thread ---

  /// Make `rank` runnable if parked (or parking).  No-op otherwise.
  void wake(int rank);

  /// Wake everything and poison future parks.  Used by Machine::run's error path so a failing rank
  /// unwinds the whole pool promptly.
  void abort();

  [[nodiscard]] bool aborted() const;
  [[nodiscard]] int nfibers() const;

  /// Install a dispatch hook (see SchedulerHook).  Call before run();
  /// nullptr restores FIFO dispatch.
  void set_hook(SchedulerHook* hook);

  /// Install a full-stall handler (see StallHandler).  It runs once, at
  /// the full stall, under the scheduler lock, after every unfinished
  /// fiber was observed parked (acquire) — so it may read any rank's
  /// state, but must not call back into the scheduler.  Its return
  /// becomes the error run() rethrows, and the run aborts like a
  /// diagnosed stack overflow.  Call before run(); nullptr uninstalls,
  /// leaving the built-in "full stall: ..." error.
  void set_stall_handler(StallHandler handler);

  /// Record park/wake pairs and abort wakes of the coming run into `log` (machine/event_log.hpp); nullptr
  /// records nothing.  Machine::run passes its attached log here.
  void attach_event_log(EventLog* log);
  [[nodiscard]] EventLog* event_log() const;

  /// Scheduler whose fiber is running on the calling thread, or nullptr
  /// when the caller is not a fiber (Mailbox checks that a blocking
  /// receive runs on its owner's scheduler).
  [[nodiscard]] static FiberScheduler* current();
  /// Rank of the fiber running on the calling thread, or -1.
  [[nodiscard]] static int current_rank();

  /// Implementation state (scheduler.cpp): public only so the worker/fiber
  /// plumbing in that file's anonymous namespace can name it — the type is
  /// incomplete everywhere else, so nothing outside can touch it.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace kali

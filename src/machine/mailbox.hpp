// Per-processor mailbox: blocking matched receive over (source, tag).
//
// Semantics mirror MPI-1 blocking point-to-point: messages between a fixed
// (src, dst, tag) triple are non-overtaking (FIFO).  Every receive names
// its source rank: there is no wildcard, so which message a receive takes
// never depends on the host order in which senders ran.
//
// Blocking runs on the fiber scheduler the mailbox is attached to: an
// unmatched recv parks the owner's fiber — a yield point, not a blocked
// host thread — and a matching push (or an abort) makes it runnable again.
// A receive nothing can satisfy ends in the scheduler's full stall, which
// aborts the run.  The parked owner's wait stays published
// (published_wait), which is all the full-stall deadlock diagnosis needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "machine/message.hpp"

namespace kali {

class FiberScheduler;

/// Snapshot row of one queued (sent-but-not-yet-received) message, for the
/// deadlock diagnostic and the leak checks.
struct PendingMessage {
  int src = -1;
  int tag = 0;
  std::size_t bytes = 0;
  std::uint32_t epoch = 0;
};

class Mailbox {
 public:
  /// Deposit a message (called from the sender's execution context).
  void push(Message m);

  /// Blocking matched receive, called on the owner's fiber of the attached
  /// scheduler.  Throws kali::Error if the run aborted (a peer processor
  /// failed, or the scheduler hit a full stall).
  Message recv(int src, int tag);

  /// Pop the first queued match without blocking (nullopt if none), and
  /// record its match in the attached event log.  The consuming half of
  /// recv.
  std::optional<Message> try_pop(int src, int tag);

  /// The (src, tag) the parked owner waits on, or nullopt when it is not
  /// parked in recv.  Read by the full-stall deadlock diagnosis, when no
  /// push can race it.
  [[nodiscard]] std::optional<std::pair<int, int>> published_wait() const;

  /// Copy of the queued messages' metadata (src, tag, size, epoch), in
  /// queue order.  Diagnostics and leak accounting only.
  [[nodiscard]] std::vector<PendingMessage> snapshot() const;

  /// Wake all waiters with an "aborted" error (peer processor failed).
  void abort();

  /// Bind this mailbox to its owning rank's fiber scheduler for the
  /// duration of a Machine::run (nullptr to detach).  While attached, a
  /// recv on the owner's fiber parks it, and push() wakes the parked
  /// owner.
  void attach_scheduler(FiberScheduler* sched, int owner_rank);

  /// Number of queued (undelivered) messages.
  [[nodiscard]] std::size_t pending() const;

  /// High-water mark of pending(): the peak in-flight buffering this
  /// mailbox ever held: up to O(P) posted slabs for a dense exchange,
  /// which sends everything before it receives.  The peak depends on host
  /// scheduling of the fibers (unlike the simulated clocks), so tests may
  /// only assert bounds on it, never exact values.
  [[nodiscard]] std::size_t max_pending() const;

  /// Reset the high-water mark (used by Machine::reset_stats between runs).
  void reset_peak();

 private:
  /// Park the calling fiber until a message matching (src, tag) is queued
  /// — recv's park point.  Nothing is consumed.  Throws like recv().
  void await_match(int src, int tag);
  std::optional<Message> try_pop_locked(int src, int tag);
  /// True when a message matching (src, tag) is queued.
  [[nodiscard]] bool has_match_locked(int src, int tag) const;

  mutable std::mutex mu_;
  std::deque<Message> queue_;
  std::size_t peak_pending_ = 0;
  bool aborted_ = false;

  // Fiber integration (valid while attached during a Machine::run).
  FiberScheduler* sched_ = nullptr;
  int owner_rank_ = -1;
  // The owner fiber's published wait: set under mu_ before it parks,
  // consumed under mu_ by the matching push (exactly one waker per park).
  bool waiting_active_ = false;
  int waiting_src_ = 0;
  int waiting_tag_ = 0;
};

}  // namespace kali

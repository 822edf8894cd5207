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
#include <string>
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

/// One posted-but-incomplete nonblocking receive (Context::irecv).  The
/// operation table lives in the mailbox because completion consumes its
/// queue, but unlike the queue it is touched only by the owner rank's fiber
/// — posting, waiting and completing all run on that fiber — so it
/// needs no lock (see Mailbox's fiber-integration comment).
struct PendingOp {
  std::uint64_t id = 0;        ///< rank-local operation id (1-based, never reused)
  int src = -1;                ///< matched source rank
  int tag = 0;
  std::byte* dest = nullptr;   ///< caller-owned destination buffer
  std::size_t bytes = 0;       ///< expected payload size
  double post_clock = 0.0;     ///< owner's simulated clock at post time
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
  /// every receive: blocking recv and nonblocking completion alike.
  std::optional<Message> try_pop(int src, int tag);

  /// Park the calling fiber until at least `n` messages matching (src, tag)
  /// are queued — the one park point of every blocking receive (recv and
  /// nonblocking completion).  Nothing is consumed.  Throws like recv().
  void await_matches(int src, int tag, std::size_t n);

  /// The (src, tag) the parked owner waits on, or nullopt when it is not
  /// parked in recv/await_matches.  Read by the full-stall deadlock
  /// diagnosis, when no push can race it.
  [[nodiscard]] std::optional<std::pair<int, int>> published_wait() const;

  // --- nonblocking-operation table (owner fiber only; no lock) ---

  /// Register a posted irecv; returns its rank-local operation id.
  std::uint64_t post_op(int src, int tag, std::byte* dest, std::size_t bytes,
                        double post_clock);

  /// The posted-but-incomplete operations, in post (= id) order.
  [[nodiscard]] const std::vector<PendingOp>& pending_ops() const {
    return pending_ops_;
  }

  /// Remove a completed operation from the table.
  void erase_op(std::uint64_t id);

  /// True while `id` names a posted-but-incomplete operation.  Completed
  /// (erased) ids never come back — ids are monotone — so "not found"
  /// means "already complete".
  [[nodiscard]] bool op_pending(std::uint64_t id) const;

  /// The dropped-handle check at the end of a rank program (Machine::run):
  /// if any operation is incomplete, throws kali::Error listing each one
  /// ("rank R: irecv(src=S, tag=T, N bytes) posted and never completed").
  void check_no_pending_ops(int owner) const;

  /// Drop all pending operations (Machine::run teardown: a failed run must
  /// not poison the table for the next one).
  void clear_pending_ops() { pending_ops_.clear(); }

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
  std::optional<Message> try_pop_locked(int src, int tag);
  /// Queued messages matching (src, tag), counting no further than
  /// `limit`.
  [[nodiscard]] std::size_t count_matches_locked(int src, int tag,
                                                 std::size_t limit) const;

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

  // Nonblocking-operation table (owner fiber only — never locked; see
  // PendingOp).  Ids are monotone so table order is post order.
  std::vector<PendingOp> pending_ops_;
  std::uint64_t next_op_id_ = 1;
};

}  // namespace kali

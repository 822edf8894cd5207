#include "machine/collectives.hpp"

#include <algorithm>

#include "machine/deadlock.hpp"
#include "machine/event_log.hpp"
#include "support/check.hpp"

namespace kali {

void barrier(Context& ctx, const ProcView& v) {
  const int n = v.count();
  const int me = v.linear_index_of(ctx.rank());
  char token = 0;
  for (int which = 1; which >= 0; --which) {
    const int c = detail::tree_child(me, which);
    if (c < n) {
      (void)ctx.recv<char>(v.rank_at(c), kTagBarrierUp);
    }
  }
  if (me != 0) {
    ctx.send(v.rank_at(detail::tree_parent(me)), kTagBarrierUp, token);
    token = ctx.recv<char>(v.rank_at(detail::tree_parent(me)), kTagBarrierDown);
  }
  for (int which = 0; which < 2; ++which) {
    const int c = detail::tree_child(me, which);
    if (c < n) {
      ctx.send(v.rank_at(c), kTagBarrierDown, token);
    }
  }
}

double sync_clocks(Context& ctx, const ProcView& v) {
  // A *measurement* barrier: every member's clock is set to the maximum of
  // the clocks at entry.  The synchronization traffic itself is excluded
  // from the model (clocks may be pulled back to the aligned value), so
  // phases bracketed by sync_clocks are measured exactly.  That exclusion
  // must cover link state too: the barrier's own allreduce messages (and
  // any traffic before it) advanced this member's port clocks and edge
  // ledgers, and leaving them advanced would leak busy time into the next
  // measured phase under contention.
  const double aligned = allreduce_max(ctx, v, ctx.clock());
  ctx.proc().realign_clock(aligned);  // sanctioned pull-back: see Processor
  ctx.proc().clear_link_state();
  if (EventLog* log = ctx.machine().event_log(); log != nullptr) {
    // Own-shard state the barrier rewrote: the pulled-back clock, the
    // cleared port clocks, and the emptied edge ledgers.  (The leak probe
    // below reads this member's own mailbox concurrently with possible
    // next-phase pushes from faster peers — benign by the epoch filter —
    // so that read is deliberately not recorded.)
    log->write(ctx.rank(), HbObj::kClock, ctx.rank());
    log->write(ctx.rank(), HbObj::kLink, ctx.rank());
    log->write(ctx.rank(), HbObj::kLedger, ctx.rank());
  }
  // Message-leak check: when the view spans the machine, the allreduce is
  // a full synchronization, so every message of the ending phase addressed
  // to this member has been pushed by now — anything still queued that was
  // stamped with this phase's epoch was sent and never received (a faster
  // peer may already have sent into the *next* phase with a bumped epoch;
  // the filter skips those).  A sub-view barrier proves nothing about
  // non-members' traffic, so the check only arms machine-wide.
  KALI_INVARIANT(
      v.count() < ctx.nprocs() ||
          stale_pending(ctx.proc().mailbox(), ctx.proc().barrier_epoch()) ==
              0,
      "message leak at sync_clocks: sent this phase but never received:\n" +
          describe_pending(ctx.proc().mailbox(), ctx.rank(),
                           ctx.proc().barrier_epoch()));
  // Invariant-mode bookkeeping: messages are stamped with the sender's
  // barrier count so a message sent before this barrier and received after
  // it is caught at the recv (see Message::epoch).  Bumped last, after the
  // barrier's own allreduce traffic has fully drained on this member.
  ctx.proc().bump_barrier_epoch();
  if (EventLog* log = ctx.machine().event_log(); log != nullptr) {
    log->write(ctx.rank(), HbObj::kEpoch, ctx.rank());
  }
  return aligned;
}

}  // namespace kali

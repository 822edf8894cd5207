// Deadlock diagnosis at the scheduler's full stall, plus the pending-
// message accounting the leak checks share.
//
// A full stall — no fiber ready or running, every unfinished one parked —
// is final: pushes are synchronous (Context::send_bytes deposits straight
// into the destination mailbox), so only a running rank can ever wake a
// parked one, and none is left.  The scheduler aborts the run there and
// then.  With MachineConfig::deadlock_detection on, Machine::run installs
// diagnose_stall as the stall handler, so the error is a per-rank dump:
// every rank parked in a receive is provably stuck, with no fixpoint to
// compute, and a correct program — which never stalls — pays nothing.
// The wait-for edges are the ones each Mailbox already publishes for its
// push/wake protocol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/mailbox.hpp"
#include "machine/scheduler.hpp"

namespace kali {

/// One line per queued message: "src -> owner tag <name> (<bytes> B, epoch
/// <e>)", ordered by source rank (FIFO per source), so the text depends on
/// the program only, never on which sender the host ran first.  Messages
/// with epoch > max_epoch are omitted (post-barrier early arrivals are not
/// leaks of the phase being checked).  Empty string if nothing qualifies.
[[nodiscard]] std::string describe_pending(
    const Mailbox& mb, int owner_rank,
    std::uint32_t max_epoch = UINT32_MAX);

/// Number of queued messages with epoch <= max_epoch: the sent-but-never-
/// received count the leak checks assert to be zero at sync_clocks (epoch
/// filter skips messages a faster peer already sent into the *next* phase)
/// and at machine teardown (max_epoch = UINT32_MAX: everything is a leak).
[[nodiscard]] std::size_t stale_pending(const Mailbox& mb,
                                        std::uint32_t max_epoch);

/// The full-stall handler (see StallHandler): given one mailbox and one
/// StallState per rank, returns the diagnostic dump, headed as a
/// deadlock: each rank's state (finished, or stuck in recv with its
/// published (src, tag) and registry name) and each mailbox's unmatched
/// queue.  Every park is a receive, so at a full stall every unfinished
/// rank is stuck in one.
[[nodiscard]] std::string diagnose_stall(
    const std::vector<const Mailbox*>& mailboxes,
    const std::vector<StallState>& states);

}  // namespace kali

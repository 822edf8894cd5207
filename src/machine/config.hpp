// Cost-model and topology configuration for the virtual loosely coupled
// machine.
//
// The paper targets 1989 distributed-memory machines (hypercube/mesh class,
// e.g. Intel iPSC).  Since no such hardware (nor MPI) is available here, the
// machine layer simulates one: every virtual processor carries a simulated
// clock advanced by a LogP-style model.  Defaults below approximate a 1989
// hypercube node: ~10 MFLOPS, ~100 us message latency, ~2.5 MB/s links.
#pragma once

#include <cstddef>

namespace kali {

class SchedulerHook;

enum class Topology {
  kComplete,   ///< every pair one hop (idealized crossbar)
  kRing,       ///< 1-D ring, hop count = cyclic distance
  kMesh2D,     ///< near-square 2-D mesh, hop count = Manhattan distance
  kHypercube,  ///< hop count = Hamming distance of ranks
};

/// How much of the interconnect serializes (the three-tier contention
/// story).  Each tier changes *clocks only*: payload routing, message
/// counts, and program results are bit-identical across all three.
enum class LinkContention {
  /// Links are infinitely parallel; message timing is the pure
  /// alpha/beta/per-hop formula.  The pre-contention model, reproduced
  /// bit-for-bit.
  kNone,
  /// Single-port (postal) model: the two directed links attaching each
  /// node to the network (injection and ejection) carry one message at a
  /// time, occupied for `byte_time` per payload byte, with busy-until
  /// clocks kept per port in Processor.  Interior hops of the topology
  /// still add `per_hop` latency but are cut-through, never serialized.
  kPorts,
  /// Store-and-forward: every directed edge of the configured topology
  /// (the neighbor links route() traverses) is a serializable resource.
  /// A message occupies each edge on its path for its full wire time
  /// before the next hop begins, so an uncontended h-hop message costs
  /// h wire times instead of one — the pre-wormhole 1989 machine — and
  /// congested interior edges (mesh bisection, hypercube dimension links)
  /// queue messages deterministically.  See context.hpp for the clock
  /// algebra and the determinism design.
  kStoreForward,
};

struct MachineConfig {
  // --- computation ---
  double flop_time = 1.0e-7;  ///< seconds per flop (10 MFLOPS)

  // --- communication (Hockney/LogP-style) ---
  double send_overhead = 10.0e-6;  ///< sender busy time per message
  double recv_overhead = 10.0e-6;  ///< receiver busy time per message
  double latency = 80.0e-6;        ///< alpha: first-hop wire latency
  double per_hop = 10.0e-6;        ///< extra latency per additional hop
  double byte_time = 0.4e-6;       ///< beta: seconds per payload byte

  // --- link contention ---
  /// Which parts of the interconnect serialize (see LinkContention).
  /// kPorts is the standard model under which round-structured all-to-all
  /// schedules (each round a perfect matching, machine/schedule.hpp) are
  /// optimal and naive per-peer issue order creates ejection-port hot
  /// spots; kStoreForward extends the queueing to every interior topology
  /// edge, where naive issue order additionally oversubscribes bisection
  /// links.  Whatever the tier, payloads, message counts, and results are
  /// identical; only clocks (and the wait counters in MachineStats) change.
  LinkContention link_contention = LinkContention::kNone;

  Topology topology = Topology::kHypercube;

  // --- collectives tuning ---
  /// Hybrid all_gather crossover: when the group-maximum contribution is at
  /// most this many bytes, all_gather rides a binary gather + broadcast
  /// tree — O(P) messages instead of the dense exchange's P(P-1), so tiny
  /// payloads (residual norms, measurement sweeps) stop paying a
  /// quadratic message count for data that fits in one packet.  The tree
  /// trades critical path for that load: its chained levels lose on
  /// makespan, so bandwidth-bound payloads stay on the dense pairwise
  /// rounds (where the tree would also funnel the whole result through a
  /// root bottleneck).  Members agree on the algorithm via a scalar
  /// allreduce of their contribution sizes.  0 disables the tree path
  /// *and* the agreement round: pure dense rounds, bit-identical to the
  /// pre-hybrid clocks.
  std::size_t allgather_tree_max_bytes = 1024;

  // --- simulation host execution (not part of the cost model) ---
  /// Host worker threads the fiber scheduler multiplexes the simulated
  /// ranks onto (machine/scheduler.hpp).  0 = one per hardware thread.
  /// Any value produces bit-identical clocks, stats, and traces — the
  /// per-rank sharding of all simulated state guarantees it, and the
  /// scheduler-determinism tests assert it for {1, 4, hardware}.
  int sim_workers = 0;

  /// Bytes of stack per simulated rank's fiber.  0 = build default
  /// (256 KiB, or 1 MiB under a sanitizer).  Populations of at most 4096
  /// ranks also get a guard page under each stack; larger ones drop the
  /// guards to stay inside the kernel's VMA budget (machine/fiber.hpp).
  std::size_t fiber_stack_bytes = 0;

  // --- harness behaviour (not part of the cost model) ---
  /// A full scheduler stall — every rank finished or parked, so nothing
  /// can ever wake a parked one — aborts the run at once, whatever this
  /// says.  On, the error is the per-rank deadlock dump
  /// (machine/deadlock.hpp): each rank's state and unmatched mailbox
  /// queue.  Off, it is the scheduler's one-line "full stall" error.
  /// Costs nothing until a stall, and never touches simulated clocks,
  /// payloads, or stats.
  bool deadlock_detection = true;

  /// Scheduler dispatch hook (machine/scheduler.hpp, SchedulerHook): when
  /// set, every worker dispatch decision is delegated to it.  The seam the
  /// interleaving explorer (tools/explore_scheduler) drives; must outlive
  /// Machine::run.  Harness-only: a correct program's results are
  /// bit-identical under any hook.
  SchedulerHook* sim_hook = nullptr;
};

}  // namespace kali

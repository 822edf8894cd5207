// Happens-before event log: the raw material for the offline determinism
// analyzer (tools/check_hb.py).
//
// The runtime's determinism contract says every piece of simulated state is
// rank-sharded and every cross-rank effect flows through a synchronization
// event the model fixes the order of (a mailbox push matched by a recv, a
// park released by a wake, a quiesce rendezvous).  TSan cannot check that
// contract: a mutex orders two accesses *physically* without fixing their
// *logical* order, so a determinism race — results that depend on which
// fiber the host happened to run first — is invisible to it.  HbLog records
// the synchronization events and the shared-state accesses; check_hb.py
// rebuilds the happens-before partial order with vector clocks and flags
// conflicting accesses it does not cover.
//
// Sharding follows the MessageTrace idiom: one event vector per recording
// execution context, appended lock-free because each shard has exactly one
// writer.  Shards 0..nprocs-1 belong to the rank fibers (a rank's events
// are recorded only from its own fiber, wherever that fiber is scheduled);
// shard nprocs belongs to the scheduler's machine context (actor -1: the
// full-stall abort and other non-fiber actors), whose events are only ever
// recorded under the scheduler mutex.  An event's position in its shard is
// its actor-local sequence number — program order per actor comes free.
//
// Recording is enabled by attaching a log (Machine::attach_hb_log);
// detached runs pay one pointer-null check per site.  The log is harness
// observability only: it never feeds clocks, payloads, or stats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace kali {

/// Which piece of rank-sharded simulator state an access event touches.
/// `kMbox` is special: mailbox queue inserts commute by design (cross-sender
/// arrival order never feeds clocks — only the nondeterministic
/// mailbox_peaks diagnostic), so the analyzer checks mailbox accesses for
/// read-vs-write conflicts only.
enum class HbObj : unsigned char {
  kClock,   ///< Processor simulated clock
  kLink,    ///< port busy-until clocks and first-hop edge free times
  kLedger,  ///< store-and-forward edge ledgers
  kCtr,     ///< ProcCounters
  kEpoch,   ///< sync_clocks barrier epoch
  kMbox,    ///< mailbox queue contents
  kBuf,     ///< a nonblocking receive's destination buffer (in-flight window)
};

class HbLog {
 public:
  /// Actor id of the scheduler's machine context (full-stall abort wakes).
  static constexpr int kMachineActor = -1;

  explicit HbLog(int nprocs);

  // --- synchronization events (each induces a happens-before edge) ---

  /// Message deposited into `dst`'s mailbox; `mseq` is the sender-local
  /// sequence number, so (actor, mseq) names the edge to the matching recv.
  void send(int actor, int dst, std::uint64_t mseq);
  /// Matching pop on the receiving side: edge source is (src, mseq).
  void match(int actor, int src, std::uint64_t mseq);

  /// Park/wake protocol: `park_seq` is the per-fiber park counter, so
  /// (target, park_seq) pairs one wake with the one park it released.
  void park(int actor, std::uint64_t park_seq);
  void wake(int actor, int target, std::uint64_t park_seq);
  void woken(int actor, std::uint64_t park_seq);

  /// Nonblocking-operation window: `post(actor, opid)` marks the posting of
  /// an irecv (the destination buffer is handed to the machine) and
  /// `complete(actor, opid)` its completion at a wait point (the buffer is
  /// filled and returned).  `opid` is the rank-local operation id, so
  /// (actor, opid) pairs each post with exactly one completion — the
  /// analyzer flags an unpaired or doubled id as a dangling edge (a dropped
  /// handle is visible in the log).  Both events live on the posting
  /// actor's shard; compute accesses to the buffer from any other actor
  /// between the pair are exactly the unordered in-flight accesses the
  /// analyzer exists to catch (HbObj::kBuf).
  void post(int actor, std::uint64_t opid);
  void complete(int actor, std::uint64_t opid);

  /// Quiesce rendezvous, generation `gen`: every enter(gen) happens-before
  /// run(gen); release(gen) happens-before every leave(gen).
  void quiesce_enter(int actor, std::uint64_t gen);
  void quiesce_run(int actor, std::uint64_t gen);
  void quiesce_release(int actor, std::uint64_t gen);
  void quiesce_leave(int actor, std::uint64_t gen);

  // --- shared-state access events ---
  void read(int actor, HbObj obj, int owner);
  void write(int actor, HbObj obj, int owner);

  /// Serialize: `kali-hb 1 <nprocs>` header, then one line per event in
  /// per-actor program order (kind, actor, actor-local seq, arguments).
  void write_log(std::ostream& os) const;

  void clear();
  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] std::size_t total_events() const;

 private:
  enum class Kind : unsigned char {
    kSend,
    kMatch,
    kPark,
    kWake,
    kWoken,
    kQEnter,
    kQRun,
    kQRelease,
    kQLeave,
    kRead,
    kWrite,
    kIPost,
    kIComp,
  };

  struct Event {
    Kind kind;
    HbObj obj;       // kRead/kWrite only
    int peer;        // dst / src / wake target / access owner
    std::uint64_t n; // mseq / park_seq / gen
  };

  std::vector<Event>& shard(int actor);
  void push(int actor, Event e) { shard(actor).push_back(e); }

  int nprocs_;
  /// [0, nprocs): rank fibers; [nprocs]: the machine context (actor -1).
  std::vector<std::vector<Event>> shards_;
};

}  // namespace kali

// One per-rank event log: the single recorder every observer of a run
// reads.  Attach it with Machine::attach_event_log; three views are
// rendered from it after the run:
//   - write_trace(): the `kali-trace 1` message trace the offline protocol
//     verifier (tools/check_trace.py) replays — FIFO non-overtaking,
//     tag-registry membership, send/recv match counts, barrier straddles;
//   - write_hb(): the `kali-hb 1` happens-before log the determinism
//     analyzer (tools/check_hb.py) rebuilds vector clocks from;
//   - activity(): the paper's Figure 3/5 step-by-processor matrix, from
//     the marks the tridiagonal kernels record through Context::mark.
//
// Why a happens-before log: the determinism contract says every piece of
// simulated state is rank-sharded and every cross-rank effect flows
// through a synchronization event the model fixes the order of (a message
// send matched by a recv, a park released by a wake).  TSan cannot check that contract: a mutex orders two
// accesses *physically* without fixing their *logical* order, so a
// determinism race — results that depend on which fiber the host happened
// to run first — is invisible to it.  The log records the synchronization
// events and the shared-state accesses; check_hb.py rebuilds the
// happens-before partial order and flags conflicting accesses it does not
// cover.
//
// Lock-free by sharding: one event vector per recording execution
// context, each with exactly one writer.  Shards 0..nprocs-1 belong to the
// rank fibers (a rank's events are recorded only from its own fiber,
// wherever that fiber is scheduled); shard nprocs belongs to the
// scheduler's machine context (actor -1: the full-stall abort and other
// non-fiber actors), whose events are only ever recorded under the
// scheduler mutex.  A shard is its actor's program order, which does not
// depend on host scheduling, so every rendering is byte-identical across
// runs and worker counts.  The worker-pool join at the end of Machine::run
// publishes every shard before the writers run on the caller's thread.
//
// Detached runs pay one pointer-null check per record site.  The log is
// observability only: it never feeds clocks, payloads, or stats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "machine/message.hpp"

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
};

/// A (step x processor) character matrix, '.' meaning idle.  Rendered from
/// an EventLog's marks (EventLog::activity) or filled directly
/// (schedule_trace).
class ActivityTrace {
 public:
  ActivityTrace(int nsteps, int nprocs);

  void mark(int step, int proc, char symbol);

  [[nodiscard]] int nsteps() const { return nsteps_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] char at(int step, int proc) const;

  /// Number of processors marked non-idle at `step`.
  [[nodiscard]] int active_count(int step) const;

  /// Number of processors marked with `symbol` at `step`.
  [[nodiscard]] int count(int step, char symbol) const;

  /// Render like Figure 5: one row per step, one column per processor.
  [[nodiscard]] std::string render(const std::vector<std::string>& step_labels = {}) const;

 private:
  [[nodiscard]] std::size_t cell(int step, int proc) const;

  int nsteps_;
  int nprocs_;
  std::vector<char> cells_;
};

class EventLog {
 public:
  /// Actor id of the scheduler's machine context (full-stall abort wakes).
  static constexpr int kMachineActor = -1;

  enum class Kind : unsigned char {
    kSend,   ///< trace S; hb send + mailbox write
    kMatch,  ///< hb recv + mailbox write (the message left the queue)
    kRecv,   ///< trace R (the receive was charged)
    kPark,
    kWake,
    kWoken,
    kRead,
    kWrite,
    kMark,  ///< Figure 3/5 activity
  };

  struct Event {
    Kind kind;
    HbObj obj = HbObj::kClock;  ///< kRead/kWrite: the state accessed
    char symbol = '.';          ///< kMark: the activity symbol
    int peer = 0;    ///< dst/src, wake target, access owner, mark column
    int tag = 0;     ///< kSend/kRecv: message tag; kMark: the step
    std::uint32_t epoch = 0;  ///< kSend/kRecv: the recorder's barrier epoch
    std::uint64_t n = 0;      ///< message seq or park seq
    std::uint64_t bytes = 0;  ///< kSend/kRecv: payload size
  };

  explicit EventLog(int nprocs);

  // --- messages ---

  /// `actor` sends `m` to `dst`: one record per send.  (actor, m.seq)
  /// names the edge to the matching receive; m.epoch is the sender's
  /// sync_clocks epoch.
  void send(int actor, int dst, const Message& m);
  /// The message (src, seq) left `actor`'s queue: the happens-before edge.
  void match(int actor, int src, std::uint64_t seq);
  /// `actor` charged the receive of `m` (`bytes` of payload), at the
  /// receiver's `epoch`: a matched pair whose epochs disagree straddled a
  /// barrier.  A batched receive (Context::recv_batch) charges, and so
  /// records, in (send_time, src, seq) order, after it has released the
  /// payloads.
  void recv(int actor, const Message& m, std::size_t bytes,
            std::uint32_t epoch);

  // --- scheduler synchronization ---

  /// Park/wake protocol: `park_seq` is the per-fiber park counter, so
  /// (target, park_seq) pairs one wake with the one park it released.
  void park(int actor, std::uint64_t park_seq);
  void wake(int actor, int target, std::uint64_t park_seq);
  void woken(int actor, std::uint64_t park_seq);

  // --- shared-state accesses ---
  void read(int actor, HbObj obj, int owner);
  void write(int actor, HbObj obj, int owner);

  // --- kernel activity ---

  /// `actor` was busy with `symbol` at `step`, in view-index `column`.
  void mark(int actor, int step, int column, char symbol);

  // --- renderings ---

  /// `kali-trace 1 <nprocs>`, then one line per message event in per-rank
  /// program order, ranks ascending:
  ///   S <rank> <peer> <tag> <seq> <bytes> <epoch>
  ///   R <rank> <peer> <tag> <seq> <bytes> <epoch>
  void write_trace(std::ostream& os) const;

  /// `kali-hb 1 <nprocs>`, then one line per happens-before event in
  /// per-actor program order (kind, actor, actor-local seq, arguments).
  void write_hb(std::ostream& os) const;

  /// The (nsteps x ncols) activity matrix of the recorded marks; a mark
  /// outside it is an error.
  [[nodiscard]] ActivityTrace activity(int nsteps, int ncols) const;

  /// Actor `actor`'s events in program order (kMachineActor included).
  [[nodiscard]] const std::vector<Event>& events(int actor) const;

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] std::size_t total_events() const;

 private:
  [[nodiscard]] std::size_t shard_index(int actor) const;
  void push(int actor, const Event& e) {
    shards_[shard_index(actor)].push_back(e);
  }

  int nprocs_;
  /// [0, nprocs): rank fibers; [nprocs]: the machine context (actor -1).
  std::vector<std::vector<Event>> shards_;
};

}  // namespace kali

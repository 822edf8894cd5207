// Context: a processor's handle to the machine from inside an SPMD program.
//
// All communication and all simulated-time accounting flows through this
// class.  The cost model:
//   send:  clock += send_overhead;  message timestamped with clock
//   recv:  arrival = send_time + latency_eff + bytes * byte_time
//          clock   = max(clock, arrival) + recv_overhead
//   compute(f): clock += f * flop_time
// which makes the final per-processor clocks a causally consistent schedule
// of the program on the modeled hardware, independent of host scheduling.
//
// With LinkContention::kPorts the wire term additionally serializes on each
// node's injection and ejection links (single-port model):
//   send:  send_time = max(clock, out_link_free);
//          out_link_free = send_time + bytes * byte_time
//   recv:  start = max(send_time + latency_eff, in_link_free)
//          arrival = start + bytes * byte_time;  in_link_free = arrival
// Both port clocks are owned by their processor's fiber, so contention
// resolution stays deterministic (ejection conflicts resolve in receive
// order).
//
// With LinkContention::kStoreForward every directed edge of route(src, dst)
// serializes instead, and each hop stores the whole message before
// forwarding it (wire = bytes * byte_time):
//   send:  send_time = max(clock, out_edge_free[first edge]);
//          out_edge_free[first edge] = send_time + wire
//   recv:  t = send_time + latency + wire            // first edge
//          for each interior/final edge e:           // receiver's ledger
//            t += per_hop;  t = max(t, busy(e)) + wire
//   arrival = t
// so an uncontended h-hop message costs latency + (h-1) per_hop +
// h * wire.  busy(e) considers only ledger entries with a smaller
// (send_time, src, seq) key, and the ledger is sharded per resolving
// rank — the sender owns its first-hop edges, the receiver everything
// after — so resolution never races host scheduling: repeated runs produce
// bit-identical clocks.  The sharding is the model's approximation: edges
// shared by messages converging on one receiver queue (tree saturation),
// while messages to different receivers occupy independent copies of an
// edge.  Whatever the tier, payload routing is unchanged — only clocks
// move.
#pragma once

#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "machine/event_log.hpp"
#include "machine/machine.hpp"
#include "support/check.hpp"

namespace kali {

class Context;

/// Completion handle of a nonblocking operation (Context::isend/irecv).
///
/// An isend's handle is born complete: the model's send is fire-and-forget
/// (the payload is copied and deposited at send time), so there is nothing
/// left to wait for and dropping the handle is legal.  An irecv's handle is
/// pending until a wait point completes it; dropping a pending handle leaks
/// the operation, which every build diagnoses when the rank's program
/// returns (Machine::run).
///
/// Handles are freely copyable: completion is recorded in the mailbox's
/// operation table, not the handle, and operation ids are never reused, so
/// every copy agrees — wait() on an already-completed operation is a cheap
/// no-op.  Only a wait point completes an operation: there is no progress
/// engine, so a matched message sits queued until then.
class CommHandle {
 public:
  CommHandle() = default;  ///< born complete (no pending operation)

  /// True once the operation has completed (never blocks, never completes).
  [[nodiscard]] bool done() const;

  /// Park until the operation can complete, then complete it (and its lane
  /// predecessors).  A scheduler yield point, exactly like a blocking recv,
  /// and diagnosed like one if the run stalls while it waits.
  void wait();

 private:
  friend class Context;
  CommHandle(Context* ctx, std::uint64_t op) : ctx_(ctx), op_(op) {}
  Context* ctx_ = nullptr;
  std::uint64_t op_ = 0;  ///< 0 = complete; else pending operation id
};

class Context {
 public:
  Context(Machine& m, Processor& p) : machine_(&m), self_(&p) {}

  [[nodiscard]] int rank() const { return self_->rank(); }
  [[nodiscard]] int nprocs() const { return machine_->size(); }
  [[nodiscard]] Machine& machine() { return *machine_; }
  [[nodiscard]] const MachineConfig& config() const { return machine_->config(); }
  [[nodiscard]] Processor& proc() { return *self_; }

  // --- simulated time ---
  [[nodiscard]] double clock() const { return self_->clock(); }

  /// Charge `flops` floating point operations of modeled computation.
  void compute(double flops);

  /// Charge raw modeled seconds of computation (non-flop work).
  void charge_seconds(double seconds);

  /// Record Figure 3/5 activity: this rank did `symbol`'s work at `step`,
  /// in column `column` of its view.  One null check without a log.
  void mark(int step, int column, char symbol) {
    if (EventLog* log = machine_->event_log(); log != nullptr) {
      log->mark(rank(), step, column, symbol);
    }
  }

  // --- raw messaging ---
  void send_bytes(int dst, int tag, std::span<const std::byte> data);
  Message recv_message(int src, int tag);

  // --- typed messaging (trivially copyable payloads) ---
  template <class T>
  void send(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag,
               std::span<const std::byte>(reinterpret_cast<const std::byte*>(&value), sizeof(T)));
  }

  template <class T>
  T recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recv_message(src, tag);
    KALI_CHECK(m.size_bytes() == sizeof(T), "typed recv size mismatch");
    T value;
    std::memcpy(&value, m.payload.data(), sizeof(T));
    return value;
  }

  template <class T>
  void send_span(int dst, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag,
               std::span<const std::byte>(reinterpret_cast<const std::byte*>(values.data()),
                                          values.size_bytes()));
  }

  template <class T>
  std::vector<T> recv_vec(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recv_message(src, tag);
    KALI_CHECK(m.size_bytes() % sizeof(T) == 0, "span recv size mismatch");
    std::vector<T> out(m.size_bytes() / sizeof(T));
    if (!out.empty()) {  // empty payloads are legal; memcpy(null, ..) is not
      std::memcpy(out.data(), m.payload.data(), m.size_bytes());
    }
    return out;
  }

  template <class T>
  void recv_into(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recv_message(src, tag);
    KALI_CHECK(m.size_bytes() == out.size_bytes(), "recv_into size mismatch");
    if (!out.empty()) {
      std::memcpy(out.data(), m.payload.data(), m.size_bytes());
    }
  }

  // --- nonblocking messaging -------------------------------------------
  //
  // isend is a send that also returns a handle; it pays the identical cost
  // and moves the identical message, so blocking and nonblocking senders
  // may interleave freely on one (src, dst, tag) lane without perturbing
  // ledgers, traces, or FIFO order.  irecv registers a pending operation
  // (destination buffer + expected size) in the mailbox's operation table
  // at zero model cost; the receive's full cost — arrival resolution,
  // wait, recv_overhead — is charged at the wait point that completes it.
  //
  // Completion ordering is deterministic by construction: messages match
  // pending operations per (src, tag) lane in FIFO order, and when one
  // wait point completes several operations at once it applies their
  // receive-side cost algebra in ascending (send_time, src, seq) of the
  // matched messages — the same canonical serialization key the
  // store-and-forward edge ledgers use — never in host arrival order.
  // On a single lane that key order coincides with FIFO post order.

  /// Nonblocking send.  Identical cost and semantics to send_bytes; the
  /// returned handle is already complete.
  CommHandle isend_bytes(int dst, int tag, std::span<const std::byte> data) {
    send_bytes(dst, tag, data);
    return CommHandle{};
  }

  template <class T>
  CommHandle isend(int dst, int tag, const T& value) {
    send(dst, tag, value);
    return CommHandle{};
  }

  template <class T>
  CommHandle isend_span(int dst, int tag, std::span<const T> values) {
    send_span(dst, tag, values);
    return CommHandle{};
  }

  /// Post a nonblocking receive into `out` (caller-owned; must stay alive
  /// and untouched until the handle completes).  The matching message's
  /// payload must be exactly out.size() bytes.
  CommHandle irecv_bytes(int src, int tag, std::span<std::byte> out);

  template <class T>
  CommHandle irecv_into(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(
        src, tag,
        std::span<std::byte>(reinterpret_cast<std::byte*>(out.data()),
                             out.size_bytes()));
  }

  template <class T>
  CommHandle irecv(int src, int tag, T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(
        src, tag,
        std::span<std::byte>(reinterpret_cast<std::byte*>(&out), sizeof(T)));
  }

  /// Complete `h` (see CommHandle::wait).  No-op on a completed handle.
  void wait(CommHandle& h);

  /// Complete every handle in `hs`: parks until all of them (plus lane
  /// predecessors) have matched messages queued, then completes the whole
  /// batch in ascending (send_time, src, seq) order.
  void wait_all(std::span<CommHandle> hs);

 private:
  /// Everything a receive does after its message leaves the queue: its
  /// event-log record, epoch invariant, arrival resolution under the
  /// configured contention tier, clock/wait/overhead accounting, counters,
  /// and the state writes it logs.  Returns the modeled arrival time (for
  /// the overlap ledger).
  double finish_receive(Message& m);

  /// Complete the pending operations named by `ids` (they must all be
  /// pending): park until satisfiable, then pop + apply in key order.
  void complete_ops(std::vector<std::uint64_t> ids);

  /// `id`'s operation plus every earlier pending operation on its lane.
  [[nodiscard]] std::vector<std::uint64_t> with_lane_predecessors(
      std::uint64_t id) const;

  Machine* machine_;
  Processor* self_;
};

inline bool CommHandle::done() const {
  return op_ == 0 || !ctx_->proc().mailbox().op_pending(op_);
}

inline void CommHandle::wait() {
  if (op_ != 0) {
    ctx_->wait(*this);
    op_ = 0;
  }
}

}  // namespace kali

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

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "machine/event_log.hpp"
#include "machine/machine.hpp"
#include "support/check.hpp"

namespace kali {

/// One (source, tag) lane of a batched receive (Context::recv_batch).
struct RecvLane {
  int src = -1;
  int tag = 0;
};

/// The payload of `m` as trivially copyable T's.  Takes the message by
/// value, so the payload is released on return, before the caller uses the
/// copy: the sender-allocated buffer goes back to the allocator as early
/// as a blocking receive's does.
template <class T>
std::vector<T> payload_values(Message m) {
  static_assert(std::is_trivially_copyable_v<T>);
  KALI_CHECK(m.size_bytes() % sizeof(T) == 0, "span recv size mismatch");
  std::vector<T> out(m.size_bytes() / sizeof(T));
  if (!out.empty()) {  // empty payloads are legal; memcpy(null, ..) is not
    std::memcpy(out.data(), m.payload.data(), m.size_bytes());
  }
  return out;
}

class Context {
 public:
  Context(Machine& m, Processor& p) : machine_(&m), self_(&p) {}
  // One Context per rank and run (Machine::run): it holds the rank's
  // split-phase exchange state, which a copy would split.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

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
    return payload_values<T>(recv_message(src, tag));
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

  // --- batched receive: the wait point of a split-phase exchange ---------
  //
  // Every runtime exchange and the dense all_gather fire their sends
  // through detail::exchange_begin (machine/schedule.hpp), run the
  // caller's work, and finish with one recv_batch over the lanes they
  // expect.  Posting a receive
  // costs nothing in the model, so receiving at the wait point is the whole
  // receive.

  /// The unpack of lane i's message: writes it into its destination and
  /// returns the number of elements unpacked (charged one op each).
  using Take = std::function<double(std::size_t, Message)>;

  /// Take one message from every lane in `lanes` (each (src, tag) at most
  /// once), in lane order: park until the lane has a queued match, pop it,
  /// and hand it to `take(i, m)` for lane i, which unpacks it before the
  /// next lane's wait — so a batch holds no more payload than a blocking
  /// receive loop.  Then, in ascending (send_time, src, seq) of the
  /// messages — the edge ledgers' canonical key, never host arrival order —
  /// charge each message's receive and then its unpack.  Each receive also
  /// enters the overlap ledger: its in-flight window runs from
  /// `window_start` (the clock at which the exchange began) to its modeled
  /// arrival.
  void recv_batch(std::span<const RecvLane> lanes, double window_start,
                  const Take& take);

  // --- split-phase exchange state (PendingExchange) ---------------------
  //
  // Receives match FIFO per (src, tag) lane, and open exchanges may share
  // lanes (every redistribute uses kTagRedistData), so an exchange may not
  // finish while an older open one shares one of its lanes, and no other
  // receive may take a lane an open one expects — either would hand one
  // exchange another's messages.  Both are checked in every build, and so
  // is the dropped exchange: Machine::run fails a rank that returns with
  // one still open.

  /// Open an exchange that will receive on `lanes`; returns its stamp.
  std::uint32_t begin_exchange(std::span<const RecvLane> lanes) {
    open_lanes_.insert(open_lanes_.end(), lanes.begin(), lanes.end());
    open_.push_back({exchanges_begun_, static_cast<std::uint32_t>(lanes.size())});
    return exchanges_begun_++;
  }
  /// Receive and unpack the open exchange stamped `stamp` (recv_batch over
  /// its lanes), then close it.  `take` must not begin or finish exchanges.
  void finish_exchange(std::uint32_t stamp, double window_start,
                       const Take& take);
  [[nodiscard]] std::uint32_t unfinished_exchanges() const {
    return exchanges_begun_ - exchanges_finished_;
  }

 private:
  /// Everything a receive does after its message leaves the queue: its
  /// event-log record, epoch invariant, arrival resolution under the
  /// configured contention tier, clock/wait/overhead accounting, counters,
  /// and the state writes it logs.  `bytes` is the payload size (a batched
  /// receive has handed the payload to its caller by then).  Returns the
  /// modeled arrival time (for the overlap ledger).
  double finish_receive(const Message& m, std::size_t bytes);

  /// One message of a batch once its payload has gone to `take`.
  struct Taken {
    Message head;  ///< header only; the payload went to take
    std::size_t bytes = 0;
    double unpacked = 0.0;
  };
  struct OpenExchange {
    std::uint32_t stamp = 0;
    std::uint32_t nlanes = 0;  ///< its run of open_lanes_
  };

  Machine* machine_;
  Processor* self_;
  std::uint32_t exchanges_begun_ = 0;
  std::uint32_t exchanges_finished_ = 0;
  std::vector<OpenExchange> open_;    // oldest first
  std::vector<RecvLane> open_lanes_;  // their lanes, in the same order
  // recv_batch scratch, reused so a steady-state batch allocates nothing.
  std::vector<std::pair<int, int>> batch_keys_;
  std::vector<Taken> batch_;
};

/// Handle of an in-flight exchange, returned by detail::exchange_begin
/// (machine/schedule.hpp) and by every runtime _begin form built on that
/// primitive: every send is on the wire, and the
/// caller has charged its pack and any local copy inside the wire window.
/// Run whatever local work should hide the wire, then finish(): one
/// Context::recv_batch over the exchange's lanes that charges each receive
/// and then its unpack, in canonical (send_time, src, seq) order.  The
/// blocking forms are _begin(...).finish().  Whatever the unpack writes
/// and the Context must outlive the handle.
///
/// Move-only, since a copy would finish the same receives twice; a
/// moved-from handle is inactive.  Receives match FIFO per (src, tag) lane
/// and open exchanges may share lanes, so every build fails with a
/// kali::Error when an exchange finishes while an older open one shares
/// one of its lanes, when another receive would take an open exchange's
/// lane, and when the rank program returns with an exchange still open
/// (Machine::run).
class PendingExchange {
 public:
  PendingExchange() = default;

  /// Built once the exchange's sends are out: opens an exchange
  /// on `ctx` whose wire window began at `window_start`, receiving on
  /// `lanes`; finish() hands lane i's message to `take`.
  PendingExchange(Context& ctx, double window_start,
                  std::span<const RecvLane> lanes, Context::Take take)
      : ctx_(&ctx),
        stamp_(ctx.begin_exchange(lanes)),
        window_start_(window_start),
        take_(std::move(take)) {}

  PendingExchange(PendingExchange&& o) noexcept
      : ctx_(std::exchange(o.ctx_, nullptr)),
        stamp_(o.stamp_),
        window_start_(o.window_start_),
        take_(std::exchange(o.take_, nullptr)) {}
  PendingExchange& operator=(PendingExchange&& o) noexcept {
    ctx_ = std::exchange(o.ctx_, nullptr);
    stamp_ = o.stamp_;
    window_start_ = o.window_start_;
    take_ = std::exchange(o.take_, nullptr);
    return *this;
  }
  PendingExchange(const PendingExchange&) = delete;
  PendingExchange& operator=(const PendingExchange&) = delete;

  /// Take the receives and unpack.  A no-op on an inactive handle.
  void finish() {
    if (take_) {
      const Context::Take take = std::exchange(take_, nullptr);
      ctx_->finish_exchange(stamp_, window_start_, take);
    }
  }

  /// True while the exchange is open (begun, finish() not yet called).
  [[nodiscard]] bool active() const { return static_cast<bool>(take_); }

 private:
  Context* ctx_ = nullptr;
  std::uint32_t stamp_ = 0;  // this exchange's begin stamp on ctx_
  double window_start_ = 0.0;
  Context::Take take_;
};

}  // namespace kali

#include "machine/context.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "machine/topology.hpp"

namespace kali {

namespace {

// Out of line, so a receive's frame holds no error-message temporary: the
// blocking receive is the deepest call chain on most fiber stacks.
[[noreturn, gnu::noinline]] void bad_source_rank(const char* op, int src) {
  KALI_FAIL(std::string(op) + ": bad source rank " + std::to_string(src));
}

[[noreturn, gnu::noinline]] void lane_held_open(const char* op, int src,
                                                int tag, const char* fix) {
  KALI_FAIL(std::string(op) + "(src=" + std::to_string(src) + ", tag=" +
            std::to_string(tag) +
            ") would take a message an open split-phase exchange expects; " +
            fix);
}

}  // namespace

void Context::compute(double flops) {
  KALI_CHECK(flops >= 0, "flops must be non-negative");
  self_->counters().flops += flops;
  const double dt = flops * config().flop_time;
  self_->counters().compute_time += dt;
  self_->set_clock(self_->clock() + dt);
}

void Context::charge_seconds(double seconds) {
  KALI_CHECK(seconds >= 0, "time must be non-negative");
  self_->counters().compute_time += seconds;
  self_->set_clock(self_->clock() + seconds);
}

void Context::send_bytes(int dst, int tag, std::span<const std::byte> data) {
  KALI_CHECK(dst >= 0 && dst < nprocs(), "send: bad destination rank");
  KALI_INVARIANT(is_registered_tag(tag),
                 "send: tag " + std::to_string(tag) +
                     " is not inside a registered band of the reserved-tag "
                     "registry (machine/message.hpp)");
  auto& cnt = self_->counters();
  cnt.overhead_time += config().send_overhead;
  self_->set_clock(self_->clock() + config().send_overhead);

  Message m;
  m.src = rank();
  m.tag = tag;
  m.send_time = self_->clock();
  m.seq = cnt.msgs_sent;
  m.epoch = self_->barrier_epoch();
  m.payload.assign(data.begin(), data.end());
  const double wire =
      static_cast<double>(m.payload.size()) * config().byte_time;
  switch (config().link_contention) {
    case LinkContention::kNone:
      break;
    case LinkContention::kPorts: {
      // Single-port injection: the message enters the network only once
      // the outgoing link is free, then occupies it for its full wire
      // time.  The sender's CPU is released after the software overhead
      // (DMA).
      const double start = std::max(m.send_time, self_->out_link_free());
      if (start > m.send_time) {
        cnt.link_wait_time += start - m.send_time;
        cnt.contended_msgs += 1;
      }
      m.send_time = start;
      self_->set_out_link_free(start + wire);
      break;
    }
    case LinkContention::kStoreForward: {
      // Multi-port injection: the first edge of the route — this node's
      // link toward the first hop — is owned by the sending rank, so
      // sends sharing a first hop serialize here.  Self-sends have no
      // edges and stay pure software.
      if (dst != rank()) {
        const int n0 =
            first_hop(config().topology, nprocs(), rank(), dst);
        const std::int64_t e0 = edge_id(rank(), n0);
        double& free_at = self_->out_edge_free()[e0];
        const double start = std::max(m.send_time, free_at);
        if (start > m.send_time) {
          cnt.edge_wait_time += start - m.send_time;
          cnt.contended_msgs += 1;
        }
        m.send_time = start;
        free_at = start + wire;
        cnt.edge_msgs[e0] += 1;
      }
      break;
    }
  }
  cnt.msgs_sent += 1;
  cnt.bytes_sent += m.payload.size();
  cnt.sent_by_tag[tag] += 1;
  if (dst == rank()) {
    cnt.self_msgs_by_tag[tag] += 1;
  }
  if (EventLog* log = machine_->event_log(); log != nullptr) {
    // Rank-sharded cost-model state this send mutated, recorded before the
    // send edge so the analyzer orders them against the receiver.
    log->write(rank(), HbObj::kClock, rank());
    log->write(rank(), HbObj::kCtr, rank());
    if (config().link_contention == LinkContention::kPorts ||
        (config().link_contention == LinkContention::kStoreForward &&
         dst != rank())) {
      log->write(rank(), HbObj::kLink, rank());
    }
    log->send(rank(), dst, m);
  }
  machine_->proc(dst).mailbox().push(std::move(m));
}

Message Context::recv_message(int src, int tag) {
  if (src < 0 || src >= nprocs()) {
    bad_source_rank("recv", src);
  }
  if (std::any_of(open_lanes_.begin(), open_lanes_.end(),
                  [&](const RecvLane& l) { return l.src == src && l.tag == tag; })) {
    lane_held_open("recv", src, tag, "finish() the exchange first");
  }
  Message m = self_->mailbox().recv(src, tag);
  finish_receive(m, m.size_bytes());
  return m;
}

double Context::finish_receive(const Message& m, std::size_t bytes) {
  // The log records the *receiver's* epoch (not the message's stamp), so
  // the offline verifier can flag barrier straddling by comparing the
  // matched send/recv pair's epochs.
  if (EventLog* log = machine_->event_log(); log != nullptr) {
    log->recv(rank(), m, bytes, self_->barrier_epoch());
  }
  // A message sent before a sync_clocks barrier but received after it
  // carries a pre-barrier timestamp into a phase whose clocks were aligned
  // (and whose link state was cleared) at the barrier — silently poisoning
  // the measurement.  Senders stamp their barrier count; it must match.
  KALI_INVARIANT(m.epoch == self_->barrier_epoch(),
                 "recv: message from rank " + std::to_string(m.src) +
                     " illegally straddles a sync_clocks barrier (sent at "
                     "epoch " + std::to_string(m.epoch) + ", received at " +
                     std::to_string(self_->barrier_epoch()) + ")");
  auto& cnt = self_->counters();
  const double wire = static_cast<double>(bytes) * config().byte_time;
  double arrival;
  switch (config().link_contention) {
    case LinkContention::kNone:
      arrival = m.send_time + machine_->wire_latency(m.src, rank()) + wire;
      break;
    case LinkContention::kPorts: {
      // Single-port ejection: the first byte can reach this node at
      // `nominal`, but the incoming link carries one message at a time.
      // Contention is resolved in receive (program) order — deterministic
      // because the ejection clock belongs to this rank alone.
      const double nominal =
          m.send_time + machine_->wire_latency(m.src, rank());
      const double start = std::max(nominal, self_->in_link_free());
      if (start > nominal) {
        cnt.link_wait_time += start - nominal;
        cnt.contended_msgs += 1;
      }
      arrival = start + wire;
      self_->set_in_link_free(arrival);
      break;
    }
    case LinkContention::kStoreForward: {
      // Replay the route hop by hop: the sender already reserved the first
      // edge (m.send_time is the post-queue injection start), and every
      // later edge is resolved here against this receiver's ledger, in
      // (send_time, src, seq) order.  Each hop stores the whole message
      // before forwarding, so every edge costs a full wire time; interior
      // forwarding adds per_hop.  Self-sends and neighbor messages have no
      // later edges — the closed form below covers them without
      // materializing the path.
      double t = m.send_time + config().latency + wire;
      if (machine_->hops(m.src, rank()) > 1) {
        const std::vector<int> path = machine_->route(m.src, rank());
        for (std::size_t i = 1; i + 1 < path.size(); ++i) {
          t += config().per_hop;
          const std::int64_t e = edge_id(path[i], path[i + 1]);
          const double queued =
              self_->reserve_edge(e, m.send_time, m.src, m.seq, t, wire);
          if (queued > 0.0) {
            cnt.edge_wait_time += queued;
            cnt.contended_msgs += 1;
          }
          t += queued + wire;
          cnt.edge_msgs[e] += 1;
        }
      }
      arrival = t;
      break;
    }
    default:
      KALI_FAIL("unknown link contention model");
  }
  const double before = self_->clock();
  const double ready = std::max(before, arrival);
  cnt.wait_time += ready - before;
  cnt.overhead_time += config().recv_overhead;
  self_->set_clock(ready + config().recv_overhead);
  cnt.msgs_recv += 1;
  cnt.bytes_recv += bytes;
  cnt.recv_by_tag[m.tag] += 1;
  if (EventLog* log = machine_->event_log(); log != nullptr) {
    // After the match edge recorded in Mailbox::try_pop: the receive-side
    // clock/counter advance, plus the contention state it resolved
    // against (ejection port under kPorts, interior-edge ledger under
    // store-and-forward with hops > 1).
    log->write(rank(), HbObj::kClock, rank());
    log->write(rank(), HbObj::kCtr, rank());
    if (config().link_contention == LinkContention::kPorts) {
      log->write(rank(), HbObj::kLink, rank());
    } else if (config().link_contention == LinkContention::kStoreForward &&
               machine_->hops(m.src, rank()) > 1) {
      log->write(rank(), HbObj::kLedger, rank());
    }
  }
  return arrival;
}

void Context::recv_batch(std::span<const RecvLane> lanes, double window_start,
                         const Take& take) {
  batch_keys_.clear();
  for (const RecvLane& l : lanes) {
    if (l.src < 0 || l.src >= nprocs()) {
      bad_source_rank("recv_batch", l.src);
    }
    batch_keys_.emplace_back(l.src, l.tag);
  }
  std::sort(batch_keys_.begin(), batch_keys_.end());
  KALI_CHECK(std::adjacent_find(batch_keys_.begin(), batch_keys_.end()) ==
                 batch_keys_.end(),
             "recv_batch: a (src, tag) lane appears twice");
  // Each lane's wait is a park like a blocking recv's, publishing its
  // (src, tag); its message goes to the caller before the next lane's
  // wait, and only its header stays behind for the charge.
  batch_.clear();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Message m = self_->mailbox().recv(lanes[i].src, lanes[i].tag);
    Taken t{{m.src, m.tag, m.send_time, m.seq, m.epoch, {}}, m.size_bytes(), 0.0};
    t.unpacked = take(i, std::move(m));
    batch_.push_back(std::move(t));
  }
  // Charge the batch in ascending (send_time, src, seq) — the edge
  // ledgers' canonical serialization key — so the clocks are a pure
  // function of the program, never of host arrival order.  Each message's
  // unpack follows its receive, as in a blocking receive loop.
  std::sort(batch_.begin(), batch_.end(), [](const Taken& a, const Taken& b) {
    const Message& x = a.head;
    const Message& y = b.head;
    if (x.send_time != y.send_time) {
      return x.send_time < y.send_time;
    }
    if (x.src != y.src) {
      return x.src < y.src;
    }
    return x.seq < y.seq;
  });
  auto& cnt = self_->counters();
  for (const Taken& t : batch_) {
    const double before = self_->clock();
    const double arrival = finish_receive(t.head, t.bytes);
    // Overlap ledger: the in-flight window ran from the exchange's start
    // to the modeled arrival; whatever of it this rank's clock had already
    // covered when the receive ran was spent on other work — wire time
    // hidden behind local progress instead of sat out in wait_time.
    const double window = std::max(0.0, arrival - window_start);
    const double hidden =
        std::clamp(std::min(before, arrival) - window_start, 0.0, window);
    cnt.overlap_wire_time += window;
    cnt.overlap_hidden_time += hidden;
    compute(t.unpacked);
  }
}

void Context::finish_exchange(std::uint32_t stamp, double window_start,
                              const Take& take) {
  std::size_t k = 0;
  std::size_t first = 0;  // this exchange's run starts past the older ones'
  for (; open_[k].stamp != stamp; ++k) {
    first += open_[k].nlanes;
  }
  const std::span<const RecvLane> mine(open_lanes_.data() + first,
                                       open_[k].nlanes);
  // Only an older open exchange sharing a lane can be handed this one's
  // messages (FIFO per lane); exchanges on disjoint lanes finish in any
  // order.
  for (const RecvLane& l : mine) {
    for (std::size_t i = 0; i < first; ++i) {
      if (open_lanes_[i].src == l.src && open_lanes_[i].tag == l.tag) {
        lane_held_open("finish", l.src, l.tag,
                       "split-phase exchanges must finish in the order they "
                       "began");
      }
    }
  }
  recv_batch(mine, window_start, take);
  const auto at = open_lanes_.begin() + static_cast<std::ptrdiff_t>(first);
  open_lanes_.erase(at, at + static_cast<std::ptrdiff_t>(open_[k].nlanes));
  open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(k));
  ++exchanges_finished_;
}

}  // namespace kali

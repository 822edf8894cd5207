// The virtual loosely coupled machine: N processors with private address
// spaces, point-to-point messaging, and a deterministic simulated clock.
//
// Machine::run executes an SPMD program: the same callable on every
// processor, exactly like the node program of a 1989 hypercube (or an MPI
// rank today).  Each simulated rank is a cooperatively scheduled fiber on
// a fixed worker pool (machine/scheduler.hpp) — not an OS thread — so P
// scales to tens of thousands of ranks.  Memory isolation is by
// construction: processors share no data except through Context::send/recv.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "machine/config.hpp"
#include "machine/processor.hpp"
#include "machine/stats.hpp"

namespace kali {

class Context;
class EventLog;

class Machine {
 public:
  explicit Machine(int nprocs, MachineConfig cfg = {});

  [[nodiscard]] int size() const { return static_cast<int>(procs_.size()); }
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }

  /// Run `program` on every processor — one fiber each, multiplexed onto
  /// MachineConfig::sim_workers host threads — and wait for completion.
  /// If any processor throws, all others are aborted and the first
  /// exception is rethrown on the caller's thread.
  void run(const std::function<void(Context&)>& program);

  /// Hop count between two ranks under the configured topology.
  [[nodiscard]] int hops(int a, int b) const;

  /// Effective one-message cut-through wire latency between two ranks.
  [[nodiscard]] double wire_latency(int a, int b) const;

  /// Deterministic node path a message follows from `a` to `b` under the
  /// configured topology (see topology.hpp route()).  Both endpoints of a
  /// transfer reconstruct the same path — the store-and-forward model's
  /// edge occupancy is derived from it.
  [[nodiscard]] std::vector<int> route(int a, int b) const;

  Processor& proc(int rank);

  /// Snapshot of all counters/clocks (call between runs, not during).
  [[nodiscard]] MachineStats stats() const;

  /// Zero all clocks and counters (e.g. after a warm-up phase).
  void reset_stats();

  /// Attach the event log (machine/event_log.hpp) that subsequent runs
  /// record every send, receive, synchronization, shared-state access and
  /// kernel activity mark into, or nullptr to detach.  The log must be
  /// sized for at least this machine's ranks and outlive the runs.
  /// Observability only: it never feeds clocks, payloads, or stats.
  void attach_event_log(EventLog* log);
  [[nodiscard]] EventLog* event_log() const { return log_; }

 private:
  MachineConfig cfg_;
  std::vector<std::unique_ptr<Processor>> procs_;
  EventLog* log_ = nullptr;
};

}  // namespace kali

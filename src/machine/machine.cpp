#include "machine/machine.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "machine/context.hpp"
#include "machine/deadlock.hpp"
#include "machine/event_log.hpp"
#include "machine/scheduler.hpp"
#include "machine/topology.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

// Out of line, so the base frame of every fiber stack holds no message
// text.
[[noreturn, gnu::noinline]] void unfinished_exchange(int rank,
                                                     std::uint32_t open) {
  throw Error("split-phase exchange never finished: rank " +
              std::to_string(rank) + " returned with " + std::to_string(open) +
              " exchange(s) begun and not finished (every _begin handle "
              "must be finish()ed)");
}

}  // namespace

Machine::Machine(int nprocs, MachineConfig cfg) : cfg_(cfg) {
  KALI_CHECK(nprocs >= 1, "machine needs at least one processor");
  procs_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    procs_.push_back(std::make_unique<Processor>(r));
  }
}

void Machine::attach_event_log(EventLog* log) {
  KALI_CHECK(log == nullptr || log->nprocs() >= size(),
             "attach_event_log: log sized for " +
                 std::to_string(log == nullptr ? 0 : log->nprocs()) +
                 " ranks on a machine of " + std::to_string(size()));
  log_ = log;
}

Processor& Machine::proc(int rank) {
  KALI_CHECK(rank >= 0 && rank < size(), "rank out of range");
  return *procs_[static_cast<std::size_t>(rank)];
}

int Machine::hops(int a, int b) const {
  return hop_count(cfg_.topology, size(), a, b);
}

double Machine::wire_latency(int a, int b) const {
  const int h = hops(a, b);
  if (h <= 0) {
    return cfg_.latency;  // self-sends still traverse the software stack
  }
  return cfg_.latency + cfg_.per_hop * (h - 1);
}

std::vector<int> Machine::route(int a, int b) const {
  return kali::route(cfg_.topology, size(), a, b);
}

void Machine::run(const std::function<void(Context&)>& program) {
  const int p = size();
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  // One fiber per rank on a fixed worker pool; an unmatched recv parks
  // its fiber (Mailbox::recv) instead of blocking a host thread.
  FiberScheduler sched(p, cfg_.sim_workers, cfg_.fiber_stack_bytes);
  if (cfg_.sim_hook != nullptr) {
    sched.set_hook(cfg_.sim_hook);
  }
  sched.attach_event_log(log_);
  if (cfg_.deadlock_detection) {
    // A full stall aborts the run either way; this makes its error the
    // per-rank dump of every rank's state (machine/deadlock.hpp).
    sched.set_stall_handler([this](const std::vector<StallState>& states) {
      std::vector<const Mailbox*> mailboxes;
      mailboxes.reserve(procs_.size());
      for (const auto& q : procs_) {
        mailboxes.push_back(&q->mailbox());
      }
      return diagnose_stall(mailboxes, states);
    });
  }
  for (auto& q : procs_) {
    q->mailbox().attach_scheduler(&sched, q->rank());
  }
  std::exception_ptr sched_error;
  try {
    sched.run([&](int r) {
      Context ctx(*this, *procs_[static_cast<std::size_t>(r)]);
      try {
        program(ctx);
        // Dropped-exchange check: a split-phase exchange begun and never
        // finished means a handle went out of scope without finish() — its
        // messages would rot in the queue and its unpack never ran.
        if (const std::uint32_t open = ctx.unfinished_exchanges();
            open != 0) {
          unfinished_exchange(r, open);
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        failed.store(true);
        // Wake every blocked peer so the whole run unwinds promptly —
        // mailboxes first (parked recvs), then the scheduler (any park
        // still in flight).
        for (auto& q : procs_) {
          q->mailbox().abort();
        }
        sched.abort();
      }
    });
  } catch (...) {
    // The scheduler itself failed (a deadlock diagnosed at a full stall,
    // or a fiber stack overflow diagnosed at a switch-out).  Detach below,
    // then rethrow this FIRST: ranks that died secondarily ("recv
    // aborted") must not mask the root cause.
    sched_error = std::current_exception();
  }
  for (auto& q : procs_) {
    q->mailbox().attach_scheduler(nullptr, -1);
  }
  if (sched_error) {
    std::rethrow_exception(sched_error);
  }
  if (failed.load()) {
    std::rethrow_exception(first_error);
  }
#if defined(KALI_CHECK_INVARIANTS)
  // Message-leak check at teardown: the program finished everywhere, so
  // anything still queued was sent and never received — a protocol bug the
  // matched-pair design of every runtime exchange rules out.  (sync_clocks
  // runs the same check per phase, epoch-filtered; see collectives.cpp.)
  std::string leaks;
  for (const auto& q : procs_) {
    leaks += describe_pending(q->mailbox(), q->rank());
  }
  if (!leaks.empty()) {
    throw Error(
        "message leak at machine teardown: sent but never received:\n" +
        leaks);
  }
#endif
}

MachineStats Machine::stats() const {
  MachineStats s;
  s.per_proc.reserve(procs_.size());
  s.clocks.reserve(procs_.size());
  s.mailbox_peaks.reserve(procs_.size());
  for (const auto& p : procs_) {
    s.per_proc.push_back(p->counters());
    s.clocks.push_back(p->clock());
    s.mailbox_peaks.push_back(p->mailbox().max_pending());
  }
  return s;
}

void Machine::reset_stats() {
  for (auto& p : procs_) {
    p->reset();
  }
}

}  // namespace kali

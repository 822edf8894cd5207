// Scheduler seams introduced for the interleaving explorer: the dispatch
// hook (MachineConfig::sim_hook) and the fiber-stack canary.  Plus the
// scheduler edge cases those seams make cheap to pin down: more workers
// than ranks, park/wake under adversarial dispatch orderings, and the
// stack-overflow diagnostics (guard-page fault for small populations,
// canary abort for guardless large ones).
#include "machine/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "machine/context.hpp"
#include "machine/event_log.hpp"
#include "machine/fiber.hpp"
#include "machine/machine.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

// --- dispatch hooks ---------------------------------------------------------

/// LIFO: always dispatch the most recently readied fiber — the exact
/// inversion of the scheduler's FIFO default.
class LifoHook final : public SchedulerHook {
 public:
  std::size_t pick_next(const std::vector<int>& ready) override {
    ++calls;
    return ready.size() - 1;
  }
  std::atomic<std::size_t> calls{0};
};

/// Rotating: walk the ready queue with a striding cursor, so consecutive
/// dispatches jump around the queue instead of draining one end.
class RotatingHook final : public SchedulerHook {
 public:
  std::size_t pick_next(const std::vector<int>& ready) override {
    return (calls++ * 7 + 3) % ready.size();
  }
  std::atomic<std::size_t> calls{0};
};

// --- a park-heavy workload --------------------------------------------------

/// Ring shifts (parked recvs) + skewed compute: every park/wake path,
/// under whatever dispatch order the hook imposes.
void workload(Context& ctx) {
  const int p = ctx.nprocs();
  const int me = ctx.rank();
  const int next = (me + 1) % p;
  const int prev = (me + p - 1) % p;
  double acc = 0.0;
  for (int iter = 0; iter < 4; ++iter) {
    ctx.compute(100.0 * (1 + (me + iter) % 3));
    ctx.send<double>(next, 7, static_cast<double>(me * 10 + iter));
    acc += ctx.recv<double>(prev, 7);
  }
  ctx.send<double>(next, 8, acc);
  (void)ctx.recv<double>(prev, 8);
}

struct RunResult {
  MachineStats stats;
  std::string trace;
};

RunResult run_workload(int nprocs, int workers, SchedulerHook* hook) {
  MachineConfig cfg;
  cfg.link_contention = LinkContention::kStoreForward;
  cfg.topology = Topology::kRing;
  cfg.sim_workers = workers;
  cfg.sim_hook = hook;
  Machine m(nprocs, cfg);
  EventLog log(m.size());
  m.attach_event_log(&log);
  m.run(workload);
  std::ostringstream os;
  log.write_trace(os);
  return {m.stats(), os.str()};
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.stats.clocks, b.stats.clocks);
  EXPECT_EQ(a.trace, b.trace);
  ASSERT_EQ(a.stats.per_proc.size(), b.stats.per_proc.size());
  for (std::size_t i = 0; i < a.stats.per_proc.size(); ++i) {
    EXPECT_EQ(a.stats.per_proc[i].wait_time, b.stats.per_proc[i].wait_time)
        << "rank " << i;
    EXPECT_EQ(a.stats.per_proc[i].edge_wait_time,
              b.stats.per_proc[i].edge_wait_time)
        << "rank " << i;
  }
}

TEST(SchedulerHooks, AdversarialDispatchOrdersPreserveResults) {
  const RunResult fifo = run_workload(4, 1, nullptr);
  LifoHook lifo;
  expect_identical(fifo, run_workload(4, 1, &lifo));
  EXPECT_GT(lifo.calls.load(), 0u) << "hook never consulted";
  RotatingHook rot;
  expect_identical(fifo, run_workload(4, 1, &rot));
  // Adversarial dispatch under contention for the worker pool, too.
  LifoHook lifo4;
  expect_identical(fifo, run_workload(4, 4, &lifo4));
}

TEST(SchedulerHooks, MoreWorkersThanRanksBitIdentical) {
  // Workers beyond the rank count spin down gracefully and change nothing.
  const RunResult base = run_workload(3, 1, nullptr);
  expect_identical(base, run_workload(3, 8, nullptr));
}

// --- stack canary and overflow diagnostics ----------------------------------

TEST(SchedulerHooks, StackCanaryMechanics) {
  FiberStackArena arena(4, 64 * 1024);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(arena.canary_ok(i)) << "stack " << i;
  }
  std::memset(arena.stack_bottom(2), 0, 16);  // simulate an overflow
  EXPECT_FALSE(arena.canary_ok(2));
  EXPECT_TRUE(arena.canary_ok(1));
  EXPECT_TRUE(arena.canary_ok(3));
}

#if !defined(KALI_FIBER_ASAN) && !defined(KALI_FIBER_TSAN)

/// One oversized frame: the write sweep runs straight through the canary
/// at the bottom of a 64 KiB stack (and beyond).  noinline + volatile so
/// the frame really exists at -O2.
__attribute__((noinline)) void smash_stack() {
  volatile char buf[96 * 1024];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {  // every byte: the 8-byte
    buf[i] = 'X';                                  // canary cannot be missed
  }
}

TEST(SchedulerHooksDeathTest, GuardPageTrapsOverflowInSmallPopulations) {
  // Populations <= kGuardMaxStacks get a PROT_NONE page under each stack:
  // the overflow faults at the moment of the scribble.  Sanitizer builds
  // are excluded above (ASan/TSan intercept the fault their own way).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MachineConfig cfg;
  cfg.sim_workers = 1;
  cfg.fiber_stack_bytes = 64 * 1024;
  EXPECT_DEATH(
      {
        Machine m(2, cfg);
        m.run([](Context& ctx) {
          if (ctx.rank() == 1) {
            smash_stack();
          }
        });
      },
      ".*");
}

TEST(SchedulerHooks, GuardlessCanaryTurnsOverflowIntoDiagnosedAbort) {
  // Above kGuardMaxStacks the guards are dropped (VMA budget): an
  // overflow scribbles the neighbouring stack instead of faulting.  The
  // canary check at the overflower's next switch-out turns that into a
  // diagnosed abort.  Single worker + last rank overflowing last keeps
  // the scribbled neighbour's fiber finished (and its stack dead) before
  // the scribble lands.
  MachineConfig cfg;
  cfg.sim_workers = 1;
  cfg.fiber_stack_bytes = 64 * 1024;
  cfg.deadlock_detection = false;
  Machine m(FiberStackArena::kGuardMaxStacks + 1, cfg);
  try {
    m.run([](Context& ctx) {
      if (ctx.rank() == ctx.nprocs() - 1) {
        smash_stack();
      }
    });
    FAIL() << "overflow not diagnosed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stack overflow"), std::string::npos)
        << e.what();
  }
}

#endif  // !KALI_FIBER_ASAN && !KALI_FIBER_TSAN

}  // namespace
}  // namespace kali

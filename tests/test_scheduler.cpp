// Differential tests for the cooperative fiber scheduler (machine/
// scheduler.hpp): the simulated results of a run — clocks, counters, and
// the message trace — must be bit-identical whatever host worker count the
// fibers are multiplexed onto.  Only Mailbox::max_pending (mailbox_peaks)
// may vary, being an explicitly host-interleaving-dependent high-water mark.
#include "machine/scheduler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>  // hardware_concurrency: host-side harness knob only
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/event_log.hpp"
#include "machine/machine.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

/// A communication-heavy SPMD workload exercising every yield point: ring
/// shifts (parked recvs), rank-skewed compute (fibers park in different
/// orders under different worker counts), an all_gather (collective tree +
/// dense paths) and a sync_clocks barrier, under store-and-forward
/// contention.
void workload(Context& ctx) {
  const int p = ctx.nprocs();
  const int me = ctx.rank();
  const int next = (me + 1) % p;
  const int prev = (me + p - 1) % p;
  const ProcView g = ProcView::grid1(ctx.nprocs());
  double acc = 0.0;
  for (int iter = 0; iter < 6; ++iter) {
    ctx.compute(100.0 * (1 + (me + iter) % 5));  // skewed progress
    std::vector<double> payload(16, static_cast<double>(me * 100 + iter));
    ctx.send_span<double>(next, 7, payload);
    const auto got = ctx.recv_vec<double>(prev, 7);
    acc += got.at(0);
  }
  const auto all = all_gather(ctx, g, std::span<const double>(&acc, 1));
  KALI_CHECK(static_cast<int>(all.size()) == p, "bad all_gather size");
  sync_clocks(ctx, g);
  ctx.send<double>(next, 8, all[static_cast<std::size_t>(me)]);
  (void)ctx.recv<double>(prev, 8);
}

struct RunResult {
  MachineStats stats;
  std::string trace;
};

RunResult run_workload(int workers) {
  MachineConfig cfg;
  cfg.link_contention = LinkContention::kStoreForward;
  cfg.topology = Topology::kHypercube;
  cfg.sim_workers = workers;
  Machine m(8, cfg);
  EventLog log(m.size());
  m.attach_event_log(&log);
  m.run(workload);
  std::ostringstream os;
  log.write_trace(os);
  return {m.stats(), os.str()};
}

void expect_counters_identical(const ProcCounters& a, const ProcCounters& b,
                               int rank) {
  SCOPED_TRACE("rank " + std::to_string(rank));
  EXPECT_EQ(a.msgs_sent, b.msgs_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.msgs_recv, b.msgs_recv);
  EXPECT_EQ(a.bytes_recv, b.bytes_recv);
  EXPECT_EQ(a.flops, b.flops);  // EQ, not NEAR: bit-identical is the contract
  EXPECT_EQ(a.compute_time, b.compute_time);
  EXPECT_EQ(a.overhead_time, b.overhead_time);
  EXPECT_EQ(a.wait_time, b.wait_time);
  EXPECT_EQ(a.link_wait_time, b.link_wait_time);
  EXPECT_EQ(a.edge_wait_time, b.edge_wait_time);
  EXPECT_EQ(a.contended_msgs, b.contended_msgs);
  EXPECT_EQ(a.sent_by_tag, b.sent_by_tag);
  EXPECT_EQ(a.recv_by_tag, b.recv_by_tag);
  EXPECT_EQ(a.self_msgs_by_tag, b.self_msgs_by_tag);
  EXPECT_EQ(a.edge_msgs, b.edge_msgs);
  EXPECT_EQ(a.overlap_wire_time, b.overlap_wire_time);
  EXPECT_EQ(a.overlap_hidden_time, b.overlap_hidden_time);
}

TEST(FiberScheduler, ResultsBitIdenticalAcrossWorkerCounts) {
  const RunResult base = run_workload(1);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<int> counts{4, hw == 0 ? 2 : static_cast<int>(hw)};
  for (const int workers : counts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunResult r = run_workload(workers);
    ASSERT_EQ(r.stats.clocks.size(), base.stats.clocks.size());
    for (std::size_t i = 0; i < base.stats.clocks.size(); ++i) {
      EXPECT_EQ(r.stats.clocks[i], base.stats.clocks[i]) << "rank " << i;
    }
    for (std::size_t i = 0; i < base.stats.per_proc.size(); ++i) {
      expect_counters_identical(r.stats.per_proc[i], base.stats.per_proc[i],
                                static_cast<int>(i));
    }
    // The serialized message trace is byte-identical: per-rank program
    // order is a pure function of the program, not of host scheduling.
    EXPECT_EQ(r.trace, base.trace);
  }
}

TEST(FiberScheduler, RepeatedRunsIdenticalAtFixedWorkerCount) {
  const RunResult a = run_workload(4);
  const RunResult b = run_workload(4);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.stats.clocks, b.stats.clocks);
}

TEST(FiberScheduler, ManyMoreFibersThanWorkersCompletes) {
  // The point of the refactor: P far beyond any sane host thread count.
  MachineConfig cfg;
  cfg.sim_workers = 4;
  cfg.fiber_stack_bytes = 128 * 1024;
  Machine m(512, cfg);
  m.run([](Context& ctx) {
    const int p = ctx.nprocs();
    const int next = (ctx.rank() + 1) % p;
    const int prev = (ctx.rank() + p - 1) % p;
    ctx.send<int>(next, 7, ctx.rank());
    EXPECT_EQ(ctx.recv<int>(prev, 7), prev);
  });
  EXPECT_EQ(m.stats().totals().msgs_sent, 512u);
}

TEST(FiberScheduler, DeadlockDetectorFiresAtFirstStall) {
  // A fiber parked forever must be diagnosed by the stall handler at the
  // first full stall; nothing waits for anything after it.
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    MachineConfig cfg;
    cfg.sim_workers = workers;
    Machine m(4, cfg);
    try {
      m.run([](Context& ctx) {
        // Everyone waits on a message nobody ever sends.
        (void)ctx.recv<int>((ctx.rank() + 1) % ctx.nprocs(), 5);
      });
      FAIL() << "deadlock not detected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("STUCK"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace kali

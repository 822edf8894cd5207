#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "machine/context.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

TEST(Machine, RunsProgramOnEveryProcessor) {
  Machine m(4);
  std::vector<int> hits(4, 0);
  m.run([&](Context& ctx) { hits[static_cast<std::size_t>(ctx.rank())] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4);
}

TEST(Machine, PingPongTransfersData) {
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, 7, 12345);
      EXPECT_EQ(ctx.recv<int>(1, 8), 54321);
    } else {
      EXPECT_EQ(ctx.recv<int>(0, 7), 12345);
      ctx.send<int>(0, 8, 54321);
    }
  });
}

TEST(Machine, SpanRoundTrip) {
  Machine m(2);
  m.run([](Context& ctx) {
    std::vector<double> v{1.0, 2.5, -3.0};
    if (ctx.rank() == 0) {
      ctx.send_span<double>(1, 1, v);
    } else {
      auto got = ctx.recv_vec<double>(0, 1);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], 2.5);
    }
  });
}

TEST(Machine, ComputeAdvancesClockDeterministically) {
  Machine m(1);
  m.run([](Context& ctx) { ctx.compute(1000.0); });
  const double expected = 1000.0 * m.config().flop_time;
  EXPECT_DOUBLE_EQ(m.stats().clocks[0], expected);
  EXPECT_DOUBLE_EQ(m.stats().per_proc[0].flops, 1000.0);
}

TEST(Machine, RecvClockRespectsCausality) {
  // Receiver is "early": its clock must jump to send_time + wire + bytes.
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.compute(1.0e6);  // sender is busy 0.1 s first
      ctx.send<int>(1, 1, 1);
    } else {
      (void)ctx.recv<int>(0, 1);
    }
  });
  const auto& cfg = m.config();
  const double send_clock = 1.0e6 * cfg.flop_time + cfg.send_overhead;
  const double arrival = send_clock + m.wire_latency(0, 1) +
                         static_cast<double>(sizeof(int)) * cfg.byte_time;
  EXPECT_NEAR(m.stats().clocks[1], arrival + cfg.recv_overhead, 1e-12);
  EXPECT_NEAR(m.stats().per_proc[1].wait_time, arrival, 1e-12);
}

TEST(Machine, LateReceiverDoesNotWait) {
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, 1, 1);
    } else {
      ctx.compute(1.0e7);  // receiver busy 1 s; message long arrived
      (void)ctx.recv<int>(0, 1);
    }
  });
  EXPECT_NEAR(m.stats().per_proc[1].wait_time, 0.0, 1e-12);
}

TEST(Machine, SimulatedTimeIsReproducible) {
  auto run_once = [] {
    Machine m(4);
    m.run([](Context& ctx) {
      // Ring shift: deterministic communication pattern.
      const int next = (ctx.rank() + 1) % ctx.nprocs();
      const int prev = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
      ctx.compute(100.0 * (ctx.rank() + 1));
      ctx.send<int>(next, 3, ctx.rank());
      (void)ctx.recv<int>(prev, 3);
    });
    return m.stats().max_clock();
  };
  const double a = run_once();
  const double b = run_once();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Machine, CountsMessagesAndBytes) {
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      std::vector<double> v(10, 1.0);
      ctx.send_span<double>(1, 1, v);
    } else {
      (void)ctx.recv_vec<double>(0, 1);
    }
  });
  auto s = m.stats();
  EXPECT_EQ(s.per_proc[0].msgs_sent, 1u);
  EXPECT_EQ(s.per_proc[0].bytes_sent, 80u);
  EXPECT_EQ(s.per_proc[1].msgs_recv, 1u);
  EXPECT_EQ(s.per_proc[1].bytes_recv, 80u);
}

TEST(Machine, ExceptionInOneProcessorAbortsRun) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      throw Error("boom");
    }
    // Peer would deadlock forever without the abort broadcast.
    (void)ctx.recv<int>(0, 99);
  }),
               Error);
}

TEST(Machine, ResetStatsClearsClocksAndCounters) {
  Machine m(2);
  m.run([](Context& ctx) { ctx.compute(10.0); });
  m.reset_stats();
  EXPECT_DOUBLE_EQ(m.stats().max_clock(), 0.0);
  EXPECT_DOUBLE_EQ(m.stats().totals().flops, 0.0);
}

TEST(Machine, TypedRecvSizeMismatchThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, 1, 5);
    } else {
      (void)ctx.recv<double>(0, 1);  // wrong size
    }
  }),
               Error);
}

TEST(MachineStats, UtilizationIsBoundedByOne) {
  Machine m(4);
  m.run([](Context& ctx) { ctx.compute(1000.0 * (1 + ctx.rank())); });
  const double u = m.stats().compute_utilization();
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
  // Slowest proc does 4000 flops; average is 2500 -> utilization 0.625.
  EXPECT_NEAR(u, 2500.0 / 4000.0, 1e-12);
}

TEST(Machine, WireLatencyGrowsWithHops) {
  MachineConfig cfg;
  cfg.topology = Topology::kHypercube;
  Machine m(8, cfg);
  // 0 -> 1: one hop; 0 -> 7: three hops (two extra per_hop terms).
  EXPECT_DOUBLE_EQ(m.wire_latency(0, 1), cfg.latency);
  EXPECT_DOUBLE_EQ(m.wire_latency(0, 7), cfg.latency + 2.0 * cfg.per_hop);
  EXPECT_GT(m.wire_latency(0, 7), m.wire_latency(0, 1));
}

TEST(Machine, HopsAffectSimulatedTime) {
  auto one_message_time = [](int dst) {
    MachineConfig cfg;
    cfg.topology = Topology::kHypercube;
    Machine m(8, cfg);
    m.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send<int>(dst, 1, 7);
      } else if (ctx.rank() == dst) {
        (void)ctx.recv<int>(0, 1);
      }
    });
    return m.stats().clocks[static_cast<std::size_t>(dst)];
  };
  EXPECT_GT(one_message_time(7), one_message_time(1));
}

TEST(Machine, RecvRejectsBadSourceRank) {
  // Every receive names its source: a negative rank (no wildcard) or one
  // past the machine fails at once with a clean error, not a stall.
  for (const bool blocking : {true, false}) {
    for (const int src : {-1, 3}) {
      const std::string op = blocking ? "recv" : "recv_batch";
      SCOPED_TRACE(op + " from " + std::to_string(src));
      Machine m(3, MachineConfig{});
      try {
        m.run([=](Context& ctx) {
          if (ctx.rank() != 0) {
            return;
          }
          if (blocking) {
            (void)ctx.recv<int>(src, 9);
          } else {
            const RecvLane lane{src, 9};
            ctx.recv_batch(std::span<const RecvLane>(&lane, 1), ctx.clock(),
                           [](std::size_t, Message) { return 0.0; });
          }
        });
        ADD_FAILURE() << "bad source rank accepted";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(op + ": bad source rank " + std::to_string(src)),
                  std::string::npos)
            << what;
        EXPECT_EQ(what.find("full stall"), std::string::npos) << what;
      }
    }
  }
}

TEST(Machine, ChargeSecondsAdvancesClockWithoutFlops) {
  Machine m(1, MachineConfig{});
  m.run([](Context& ctx) { ctx.charge_seconds(0.25); });
  EXPECT_DOUBLE_EQ(m.stats().max_clock(), 0.25);
  EXPECT_DOUBLE_EQ(m.stats().totals().flops, 0.0);
  EXPECT_DOUBLE_EQ(m.stats().totals().compute_time, 0.25);
}

TEST(Machine, RingTopologyChargesCyclicDistance) {
  MachineConfig cfg;
  cfg.topology = Topology::kRing;
  Machine m(8, cfg);
  EXPECT_DOUBLE_EQ(m.wire_latency(0, 4), cfg.latency + 3.0 * cfg.per_hop);
  EXPECT_DOUBLE_EQ(m.wire_latency(0, 7), cfg.latency);  // wraps around
}

TEST(Machine, SelfMessagesAreCountedByTag) {
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(0, 42, 7);  // self round-trip: legal but counted
      EXPECT_EQ(ctx.recv<int>(0, 42), 7);
    }
  });
  EXPECT_EQ(m.stats().self_msgs(42), 1u);
  EXPECT_EQ(m.stats().self_msgs(43), 0u);
  EXPECT_EQ(m.stats().self_msgs_total(), 1u);
}

TEST(Machine, ContentionSerializesEjectionLink) {
  // Two senders, one receiver, both messages timestamped ~t=0.  Without
  // contention the wire transfers overlap; with it the second message
  // queues behind the first on the receiver's ejection link for its full
  // byte time.
  constexpr int kBytes = 1000 * 8;
  auto run = [](bool contention) {
    MachineConfig cfg;
    cfg.topology = Topology::kComplete;
    cfg.link_contention =
        contention ? LinkContention::kPorts : LinkContention::kNone;
    Machine m(3, cfg);
    m.run([](Context& ctx) {
      std::vector<double> v(1000, 1.0);
      if (ctx.rank() > 0) {
        ctx.send_span<double>(0, 1, v);
      } else {
        (void)ctx.recv_vec<double>(1, 1);
        (void)ctx.recv_vec<double>(2, 1);
      }
    });
    return m;
  };

  MachineConfig cfg;
  const Machine& off = run(false);
  const Machine& on = run(true);
  const double wire = kBytes * cfg.byte_time;
  // Receiver finish times: overlapped transfers pay one wire time and both
  // recv overheads; serialized transfers pay two wire times, with the
  // second recv's overhead the only one still visible past the drain.
  const double base = cfg.send_overhead + cfg.latency;
  EXPECT_NEAR(off.stats().clocks[0], base + wire + 2.0 * cfg.recv_overhead,
              1e-9);
  EXPECT_NEAR(on.stats().clocks[0], base + 2.0 * wire + cfg.recv_overhead,
              1e-9);
  EXPECT_DOUBLE_EQ(off.stats().link_wait_time(), 0.0);
  EXPECT_NEAR(on.stats().link_wait_time(), wire, 1e-9);
  EXPECT_EQ(on.stats().contended_msgs(), 1u);
}

TEST(Machine, ContentionSerializesInjectionLink) {
  // One sender, two receivers: the second message cannot enter the network
  // until the first clears the sender's injection link.
  auto send_times = [](bool contention) {
    MachineConfig cfg;
    cfg.topology = Topology::kComplete;
    cfg.link_contention =
        contention ? LinkContention::kPorts : LinkContention::kNone;
    Machine m(3, cfg);
    m.run([](Context& ctx) {
      std::vector<double> v(500, 2.0);
      if (ctx.rank() == 0) {
        ctx.send_span<double>(1, 1, v);
        ctx.send_span<double>(2, 1, v);
      } else {
        (void)ctx.recv_vec<double>(0, 1);
      }
    });
    return std::pair{m.stats().clocks[1], m.stats().clocks[2]};
  };
  MachineConfig cfg;
  const double wire = 500 * 8 * cfg.byte_time;
  const auto [r1_off, r2_off] = send_times(false);
  const auto [r1_on, r2_on] = send_times(true);
  // Without contention the two deliveries differ only by one send
  // overhead; with it the second also waits out the first's wire time.
  EXPECT_NEAR(r2_off - r1_off, cfg.send_overhead, 1e-9);
  EXPECT_NEAR(r2_on - r1_on, wire, 1e-9);
  EXPECT_GT(r2_on, r2_off);
  EXPECT_NEAR(r1_on, r1_off, 1e-12);  // first message pays nothing
}

TEST(Machine, ContentionOffMatchesLegacyCostModel) {
  // LinkContention::kNone must reproduce the original arrival formula
  // exactly — clocks included, not just results.
  auto makespan = [](bool contention) {
    MachineConfig cfg;
    cfg.link_contention =
        contention ? LinkContention::kPorts : LinkContention::kNone;
    Machine m(4, cfg);
    m.run([](Context& ctx) {
      const int next = (ctx.rank() + 1) % 4;
      const int prev = (ctx.rank() + 3) % 4;
      std::vector<double> v(64, 1.0);
      ctx.send_span<double>(next, 5, v);
      (void)ctx.recv_vec<double>(prev, 5);
    });
    return m.stats().max_clock();
  };
  // A ring shift is already contention-free (one message per port), so the
  // clocks agree to the last bit.
  EXPECT_DOUBLE_EQ(makespan(false), makespan(true));
}

TEST(Machine, ResetStatsClearsLinkClocks) {
  MachineConfig cfg;
  cfg.link_contention = LinkContention::kPorts;
  Machine m(2, cfg);
  m.run([](Context& ctx) {
    std::vector<double> v(100, 1.0);
    if (ctx.rank() == 0) {
      ctx.send_span<double>(1, 1, v);
      ctx.send_span<double>(1, 2, v);
    } else {
      (void)ctx.recv_vec<double>(0, 1);
      (void)ctx.recv_vec<double>(0, 2);
    }
  });
  EXPECT_GT(m.stats().contended_msgs(), 0u);
  m.reset_stats();
  EXPECT_EQ(m.stats().contended_msgs(), 0u);
  EXPECT_DOUBLE_EQ(m.stats().link_wait_time(), 0.0);
  // Port clocks restart at zero: a fresh run sees no leftover busy time.
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, 1, 1);
    } else {
      (void)ctx.recv<int>(0, 1);
    }
  });
  EXPECT_EQ(m.stats().contended_msgs(), 0u);
}

TEST(Machine, StoreForwardChargesWirePerHop) {
  // Ring 0 -> 2 is two hops: under store-and-forward the payload is stored
  // and re-transmitted at node 1, so the wire term doubles (plus one
  // per_hop forwarding latency) — exact clock algebra, no contention.
  constexpr int kDoubles = 500;
  auto clock_of = [](LinkContention mode) {
    MachineConfig cfg;
    cfg.topology = Topology::kRing;
    cfg.link_contention = mode;
    Machine m(4, cfg);
    m.run([](Context& ctx) {
      std::vector<double> v(kDoubles, 1.0);
      if (ctx.rank() == 0) {
        ctx.send_span<double>(2, 1, v);
      } else if (ctx.rank() == 2) {
        (void)ctx.recv_vec<double>(0, 1);
      }
    });
    return m.stats().clocks[2];
  };
  MachineConfig cfg;
  const double wire = kDoubles * 8 * cfg.byte_time;
  const double base = cfg.send_overhead + cfg.latency + cfg.per_hop;
  EXPECT_NEAR(clock_of(LinkContention::kNone),
              base + wire + cfg.recv_overhead, 1e-12);
  EXPECT_NEAR(clock_of(LinkContention::kStoreForward),
              base + 2.0 * wire + cfg.recv_overhead, 1e-12);
}

TEST(Machine, StoreForwardSerializesSharedInteriorEdge) {
  // Hypercube senders 5 (101) and 6 (110) both route to 0 through the
  // final edge 4 -> 0; the receiver's ledger serializes them in
  // (send_time, src, seq) order, so the second pays one full wire time of
  // edge wait.
  constexpr int kDoubles = 1000;
  auto run = [](LinkContention mode) {
    MachineConfig cfg;
    cfg.topology = Topology::kHypercube;
    cfg.link_contention = mode;
    Machine m(8, cfg);
    m.run([](Context& ctx) {
      std::vector<double> v(kDoubles, 2.0);
      if (ctx.rank() == 5 || ctx.rank() == 6) {
        ctx.send_span<double>(0, 1, v);
      } else if (ctx.rank() == 0) {
        (void)ctx.recv_vec<double>(5, 1);
        (void)ctx.recv_vec<double>(6, 1);
      }
    });
    return m.stats();
  };
  MachineConfig cfg;
  const double wire = kDoubles * 8 * cfg.byte_time;
  const MachineStats off = run(LinkContention::kNone);
  const MachineStats on = run(LinkContention::kStoreForward);
  EXPECT_DOUBLE_EQ(off.edge_wait_time(), 0.0);
  EXPECT_EQ(off.max_edge_load(), 0u);
  EXPECT_NEAR(on.edge_wait_time(), wire, 1e-9);
  EXPECT_EQ(on.contended_msgs(), 1u);
  // Edge 4 -> 0 carried both messages; every other edge carried one.
  EXPECT_EQ(on.max_edge_load(), 2u);
  // Receiver clock: both are 2-hop messages entering at send_overhead;
  // the queued one drains a third wire time after the first's arrival,
  // hiding all but the final recv overhead.
  const double arrival1 = cfg.send_overhead + cfg.latency + cfg.per_hop +
                          2.0 * wire;
  EXPECT_NEAR(on.clocks[0], arrival1 + wire + cfg.recv_overhead, 1e-9);
}

TEST(Machine, StoreForwardSelfSendStaysSoftware) {
  MachineConfig cfg;
  cfg.link_contention = LinkContention::kStoreForward;
  Machine m(2, cfg);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(0, 7, 11);
      EXPECT_EQ(ctx.recv<int>(0, 7), 11);
    }
  });
  // No edges were touched: a self-send never enters the network.
  EXPECT_EQ(m.stats().max_edge_load(), 0u);
  EXPECT_DOUBLE_EQ(m.stats().edge_wait_time(), 0.0);
  const double expected = cfg.send_overhead + cfg.latency +
                          sizeof(int) * cfg.byte_time + cfg.recv_overhead;
  EXPECT_NEAR(m.stats().clocks[0], expected, 1e-12);
}

TEST(Machine, ResetStatsClearsEdgeState) {
  MachineConfig cfg;
  cfg.topology = Topology::kHypercube;
  cfg.link_contention = LinkContention::kStoreForward;
  Machine m(8, cfg);
  auto traffic = [](Context& ctx) {
    std::vector<double> v(500, 1.0);
    if (ctx.rank() == 5 || ctx.rank() == 6) {
      ctx.send_span<double>(0, 1, v);
    } else if (ctx.rank() == 0) {
      (void)ctx.recv_vec<double>(5, 1);
      (void)ctx.recv_vec<double>(6, 1);
    }
  };
  m.run(traffic);
  EXPECT_GT(m.stats().edge_wait_time(), 0.0);
  m.reset_stats();
  EXPECT_DOUBLE_EQ(m.stats().edge_wait_time(), 0.0);
  EXPECT_EQ(m.stats().max_edge_load(), 0u);
  // Fresh run: identical contention as from a cold start, nothing leaks.
  m.run(traffic);
  const double wire = 500 * 8 * MachineConfig{}.byte_time;
  EXPECT_NEAR(m.stats().edge_wait_time(), wire, 1e-9);
}

TEST(Machine, MailboxPeakDepthIsTracked) {
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      for (int k = 0; k < 5; ++k) {
        ctx.send<int>(1, 1, k);
      }
      ctx.send<int>(1, 2, 99);  // barrier-ish: receiver drains after
    } else {
      (void)ctx.recv<int>(0, 2);
      for (int k = 0; k < 5; ++k) {
        EXPECT_EQ(ctx.recv<int>(0, 1), k);
      }
    }
  });
  // All five tag-1 sends plus the tag-2 send were queued before the first
  // receive completed.
  EXPECT_GE(m.stats().max_mailbox_depth(), 5u);
  m.reset_stats();
  EXPECT_EQ(m.stats().max_mailbox_depth(), 0u);
}

TEST(Machine, CausalityNoArrivalBeforeSendPlusWire) {
  // Random traffic pattern; every receiver's clock after a recv must be at
  // least the matching send time plus the wire terms.
  const MachineConfig cfg;
  Machine m(4, cfg);
  m.run([&](Context& ctx) {
    const int me = ctx.rank();
    const int next = (me + 1) % 4;
    const int prev = (me + 3) % 4;
    for (int round = 0; round < 5; ++round) {
      ctx.compute(100.0 * ((me * 7 + round * 3) % 5));
      ctx.send<double>(next, 40 + round, ctx.clock());
      const double send_time = ctx.recv<double>(prev, 40 + round);
      const double min_arrival =
          send_time + ctx.machine().wire_latency(prev, me) +
          static_cast<double>(sizeof(double)) * cfg.byte_time;
      EXPECT_GE(ctx.clock(), min_arrival + cfg.recv_overhead - 1e-12);
    }
  });
}

}  // namespace
}  // namespace kali

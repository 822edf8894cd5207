#include "machine/event_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

TEST(ActivityTrace, MarksAndCounts) {
  ActivityTrace tr(3, 4);
  tr.mark(0, 0, 'R');
  tr.mark(0, 2, 'R');
  tr.mark(1, 1, 'S');
  EXPECT_EQ(tr.active_count(0), 2);
  EXPECT_EQ(tr.active_count(1), 1);
  EXPECT_EQ(tr.active_count(2), 0);
  EXPECT_EQ(tr.at(0, 0), 'R');
  EXPECT_EQ(tr.at(0, 1), '.');
}

TEST(ActivityTrace, RenderContainsAllRows) {
  ActivityTrace tr(2, 3);
  tr.mark(0, 0, 'x');
  const std::string s = tr.render({"phase A", "phase B"});
  EXPECT_NE(s.find("phase A"), std::string::npos);
  EXPECT_NE(s.find("phase B"), std::string::npos);
  EXPECT_NE(s.find('x'), std::string::npos);
}

TEST(ActivityTrace, OutOfRangeThrows) {
  ActivityTrace tr(2, 2);
  EXPECT_THROW(tr.mark(2, 0, 'a'), Error);
  EXPECT_THROW(tr.mark(0, 2, 'a'), Error);
  EXPECT_THROW((void)tr.at(-1, 0), Error);
}

using Kind = EventLog::Kind;

/// A `bytes`-byte message from `src` on `tag`, sender sequence `seq`,
/// stamped with barrier epoch 0.
Message msg(int src, int tag, std::uint64_t seq, std::size_t bytes) {
  Message m;
  m.src = src;
  m.tag = tag;
  m.seq = seq;
  m.payload.resize(bytes);
  return m;
}

/// `rank`'s message records (trace S/R), in program order.
std::vector<EventLog::Event> messages(const EventLog& log, int rank) {
  std::vector<EventLog::Event> out;
  for (const auto& e : log.events(rank)) {
    if (e.kind == Kind::kSend || e.kind == Kind::kRecv) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(EventLog, RecordsPerRankInProgramOrder) {
  EventLog log(3);
  log.send(0, 1, msg(0, 5, /*seq=*/0, /*bytes=*/8));
  log.send(0, 2, msg(0, 5, 1, 8));
  log.recv(1, msg(0, 5, 0, 8), /*bytes=*/8, /*epoch=*/0);
  log.park(EventLog::kMachineActor, 1);
  EXPECT_EQ(log.nprocs(), 3);
  EXPECT_EQ(log.total_events(), 4u);
  ASSERT_EQ(log.events(0).size(), 2u);
  EXPECT_EQ(log.events(0)[0].kind, Kind::kSend);
  EXPECT_EQ(log.events(0)[0].peer, 1);
  EXPECT_EQ(log.events(0)[1].peer, 2);
  ASSERT_EQ(log.events(1).size(), 1u);
  EXPECT_EQ(log.events(1)[0].kind, Kind::kRecv);
  EXPECT_EQ(log.events(1)[0].peer, 0);
  EXPECT_TRUE(log.events(2).empty());
  EXPECT_EQ(log.events(EventLog::kMachineActor).size(), 1u);
  EXPECT_THROW(log.send(3, 0, msg(3, 5, 0, 8)), Error);
}

TEST(EventLog, WriteTraceEmitsVerifierFormat) {
  EventLog log(2);
  log.send(0, 1, msg(0, 5, 0, 16));
  log.recv(1, msg(0, 5, 0, 16), 16, 0);
  std::ostringstream os;
  log.write_trace(os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("kali-trace 1 2\n", 0), 0u) << text;
  EXPECT_NE(text.find("S 0 1 5 0 16 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("R 1 0 5 0 16 0\n"), std::string::npos) << text;
}

TEST(EventLog, OneSendRecordFeedsBothWriters) {
  // The send is recorded once; the trace renders it as S, the HB log as
  // the send edge plus the write into the destination's mailbox.  The
  // receive's two facts render separately: its match in the HB log, its
  // charge in the trace.  Marks render in neither.
  EventLog log(2);
  log.send(0, 1, msg(0, 5, 0, 16));
  log.match(1, 0, 0);
  log.recv(1, msg(0, 5, 0, 16), 16, 0);
  log.mark(1, 0, 1, 'R');
  std::ostringstream trace, hb;
  log.write_trace(trace);
  log.write_hb(hb);
  EXPECT_EQ(trace.str(), "kali-trace 1 2\nS 0 1 5 0 16 0\nR 1 0 5 0 16 0\n");
  EXPECT_EQ(hb.str(),
            "kali-hb 1 2\n"
            "send 0 0 1 0\nw 0 1 mbox:1\n"
            "recv 1 0 0 0\nw 1 1 mbox:1\n");
}

TEST(EventLog, MachineRunRecordsMatchedTraffic) {
  Machine m(2);
  EventLog log(2);
  m.attach_event_log(&log);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 42);
    } else {
      EXPECT_EQ(ctx.recv<int>(0, 5), 42);
    }
  });
  const auto sent = messages(log, 0);
  const auto got = messages(log, 1);
  ASSERT_EQ(sent.size(), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(sent[0].kind, Kind::kSend);
  EXPECT_EQ(got[0].kind, Kind::kRecv);
  EXPECT_EQ(sent[0].tag, 5);
  EXPECT_EQ(sent[0].n, got[0].n);
  EXPECT_EQ(sent[0].bytes, got[0].bytes);
  EXPECT_EQ(sent[0].epoch, got[0].epoch);
  // The per-tag ledgers agree with the log.
  EXPECT_EQ(m.stats().sent_msgs(5), 1u);
  EXPECT_EQ(m.stats().recv_msgs(5), 1u);
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(EventLog, DetachedRunRecordsNothing) {
  // A log that was attached and then detached sees none of the later
  // run's sends, receives, parks, barriers or marks.
  MachineConfig cfg;
  cfg.link_contention = LinkContention::kStoreForward;
  Machine m(4, cfg);
  EventLog log(4);
  m.attach_event_log(&log);
  m.attach_event_log(nullptr);
  EXPECT_EQ(m.event_log(), nullptr);
  m.run([](Context& ctx) {
    const int right = (ctx.rank() + 1) % 4;
    const int left = (ctx.rank() + 3) % 4;
    ctx.send(right, 5, ctx.rank());
    ctx.send(right, 6, ctx.rank());
    EXPECT_EQ(ctx.recv<int>(left, 5), left);
    EXPECT_EQ(ctx.recv<int>(left, 6), left);
    ctx.mark(0, ctx.rank(), 'x');
    sync_clocks(ctx, ProcView::grid1(4));
  });
  EXPECT_EQ(log.total_events(), 0u);
  EXPECT_EQ(m.stats().sent_msgs(6), 4u);
}

TEST(EventLog, AttachRejectsLogSizedForFewerRanks) {
  // Sized for 2 of 4 ranks, the log would be indexed past its shards by
  // ranks 2 and 3.
  Machine m(4);
  EventLog small(2);
  EXPECT_THROW(m.attach_event_log(&small), Error);
  EXPECT_EQ(m.event_log(), nullptr);
  EventLog larger(5);
  m.attach_event_log(&larger);  // a larger log is fine
  EXPECT_EQ(m.event_log(), &larger);
}

TEST(EventLog, ActivityRendersMarksFromEveryRank) {
  EventLog log(2);
  log.mark(0, 0, 0, 'R');
  log.mark(1, 0, 1, 'R');
  log.mark(0, 1, 0, 'T');
  const ActivityTrace t = log.activity(2, 2);
  EXPECT_EQ(t.count(0, 'R'), 2);
  EXPECT_EQ(t.at(1, 0), 'T');
  EXPECT_EQ(t.active_count(1), 1);
  EXPECT_THROW((void)log.activity(1, 2), Error);  // step 1 is outside
}

TEST(Ledgers, CountPerTagAcrossRanks) {
  Machine m(4);
  m.run([](Context& ctx) {
    // Ring: everyone sends 2 messages on tag 5 and 1 on tag 6.
    const int right = (ctx.rank() + 1) % 4;
    const int left = (ctx.rank() + 3) % 4;
    ctx.send(right, 5, ctx.rank());
    ctx.send(right, 5, ctx.rank() + 10);
    ctx.send(right, 6, ctx.rank() + 20);
    EXPECT_EQ(ctx.recv<int>(left, 5), left);
    EXPECT_EQ(ctx.recv<int>(left, 5), left + 10);
    EXPECT_EQ(ctx.recv<int>(left, 6), left + 20);
  });
  const MachineStats st = m.stats();
  EXPECT_EQ(st.sent_msgs(5), 8u);
  EXPECT_EQ(st.recv_msgs(5), 8u);
  EXPECT_EQ(st.sent_msgs(6), 4u);
  EXPECT_EQ(st.recv_msgs(6), 4u);
  EXPECT_EQ(st.sent_msgs(7), 0u);
  EXPECT_TRUE(st.unmatched_by_tag().empty());
}

TEST(Ledgers, UnmatchedByTagFlagsTheLeakedTagOnly) {
  // Inspects the ledgers of a run that leaks by construction — only
  // possible in a release build, where the teardown check is off.
#if defined(KALI_CHECK_INVARIANTS)
  GTEST_SKIP() << "teardown leak check (correctly) rejects this program";
#else
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 1);  // matched below
      ctx.send(1, /*tag=*/6, 2);  // leaked
    } else {
      EXPECT_EQ(ctx.recv<int>(0, 5), 1);
    }
  });
  const auto unmatched = m.stats().unmatched_by_tag();
  ASSERT_EQ(unmatched.size(), 1u);
  EXPECT_EQ(unmatched.begin()->first, 6);
  EXPECT_EQ(unmatched.begin()->second, 1);
#endif
}

}  // namespace
}  // namespace kali

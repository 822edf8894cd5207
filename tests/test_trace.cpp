#include "machine/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

TEST(MessageTrace, RecordsPerRankInProgramOrder) {
  MessageTrace tr(3);
  tr.record_send(0, 1, 5, /*seq=*/0, /*bytes=*/8, /*epoch=*/0);
  tr.record_send(0, 2, 5, 1, 8, 0);
  tr.record_recv(1, 0, 5, 0, 8, 0);
  EXPECT_EQ(tr.nprocs(), 3);
  EXPECT_EQ(tr.total_events(), 3u);
  ASSERT_EQ(tr.events(0).size(), 2u);
  EXPECT_EQ(tr.events(0)[0].kind, 'S');
  EXPECT_EQ(tr.events(0)[0].peer, 1);
  EXPECT_EQ(tr.events(0)[1].peer, 2);
  ASSERT_EQ(tr.events(1).size(), 1u);
  EXPECT_EQ(tr.events(1)[0].kind, 'R');
  EXPECT_EQ(tr.events(1)[0].peer, 0);
  EXPECT_TRUE(tr.events(2).empty());
  tr.clear();
  EXPECT_EQ(tr.total_events(), 0u);
}

TEST(MessageTrace, WriteEmitsVerifierFormat) {
  MessageTrace tr(2);
  tr.record_send(0, 1, 5, 0, 16, 0);
  tr.record_recv(1, 0, 5, 0, 16, 0);
  std::ostringstream os;
  tr.write(os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("kali-trace 1 2\n", 0), 0u) << text;
  EXPECT_NE(text.find("S 0 1 5 0 16 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("R 1 0 5 0 16 0\n"), std::string::npos) << text;
}

TEST(MessageTrace, MachineRunRecordsMatchedTraffic) {
  Machine m(2);
  MessageTrace tr(2);
  m.attach_message_trace(&tr);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 42);
    } else {
      EXPECT_EQ(ctx.recv<int>(0, 5), 42);
    }
  });
  ASSERT_EQ(tr.events(0).size(), 1u);
  ASSERT_EQ(tr.events(1).size(), 1u);
  EXPECT_EQ(tr.events(0)[0].kind, 'S');
  EXPECT_EQ(tr.events(1)[0].kind, 'R');
  EXPECT_EQ(tr.events(0)[0].tag, 5);
  EXPECT_EQ(tr.events(0)[0].seq, tr.events(1)[0].seq);
  EXPECT_EQ(tr.events(0)[0].bytes, tr.events(1)[0].bytes);
  EXPECT_EQ(tr.events(0)[0].epoch, tr.events(1)[0].epoch);
  // The per-tag ledgers agree with the trace.
  EXPECT_EQ(m.stats().sent_msgs(5), 1u);
  EXPECT_EQ(m.stats().recv_msgs(5), 1u);
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(MessageTrace, LedgersCountPerTagAcrossRanks) {
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

TEST(MessageTrace, UnmatchedByTagFlagsTheLeakedTagOnly) {
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

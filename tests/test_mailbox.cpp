#include "machine/mailbox.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "machine/scheduler.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

Message make(int src, int tag, std::initializer_list<int> words = {}) {
  Message m;
  m.src = src;
  m.tag = tag;
  for (int w : words) {
    for (std::size_t i = 0; i < sizeof(int); ++i) {
      m.payload.push_back(static_cast<std::byte>((w >> (8 * i)) & 0xff));
    }
  }
  return m;
}

/// Run body(rank) on `nfibers` fibers of a one-worker scheduler, with `mb`
/// attached as rank 0's mailbox.  One worker dispatches FIFO from ranks
/// ascending, so rank 0 parks in a blocking recv before rank 1 first runs.
void on_fibers(Mailbox& mb, int nfibers,
               const std::function<void(int)>& body) {
  FiberScheduler sched(nfibers, /*workers=*/1, /*stack_bytes=*/0);
  mb.attach_scheduler(&sched, /*owner_rank=*/0);
  sched.run(body);
  mb.attach_scheduler(nullptr, -1);
}

TEST(Mailbox, DeliversMatchingMessage) {
  Mailbox mb;
  on_fibers(mb, 1, [&](int) {
    mb.push(make(3, 42));
    Message m = mb.recv(3, 42);
    EXPECT_EQ(m.src, 3);
    EXPECT_EQ(m.tag, 42);
  });
}

TEST(Mailbox, MatchesOnSourceAndTag) {
  Mailbox mb;
  on_fibers(mb, 1, [&](int) {
    mb.push(make(1, 10));
    mb.push(make(2, 10));
    mb.push(make(1, 20));
    EXPECT_EQ(mb.recv(2, 10).src, 2);
    EXPECT_EQ(mb.recv(1, 20).tag, 20);
    EXPECT_EQ(mb.recv(1, 10).src, 1);
    EXPECT_EQ(mb.pending(), 0u);
  });
}

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox mb;
  on_fibers(mb, 1, [&](int) {
    mb.push(make(1, 5, {100}));
    mb.push(make(1, 5, {200}));
    Message a = mb.recv(1, 5);
    Message b = mb.recv(1, 5);
    EXPECT_EQ(static_cast<int>(a.payload[0]), 100);
    EXPECT_EQ(static_cast<int>(b.payload[0]), 200);
  });
}

TEST(Mailbox, LoneParkedRecvFailsAtFullStall) {
  // No stall handler is installed, so the lone parked recv is a full stall
  // the scheduler fails at once with its built-in error; the woken recv
  // itself throws on the abort.
  Mailbox mb;
  FiberScheduler sched(1, /*workers=*/1, /*stack_bytes=*/0);
  mb.attach_scheduler(&sched, /*owner_rank=*/0);
  std::string what;
  try {
    sched.run([&](int) { EXPECT_THROW(mb.recv(0, 0), Error); });
  } catch (const Error& e) {
    what = e.what();
  }
  mb.attach_scheduler(nullptr, -1);
  EXPECT_EQ(what, "full stall: 1 rank(s) parked, none can be woken");
}

TEST(Mailbox, BlockingRecvWakesOnPush) {
  Mailbox mb;
  bool received = false;
  on_fibers(mb, 2, [&](int rank) {
    if (rank == 0) {
      Message m = mb.recv(9, 1);
      EXPECT_EQ(m.src, 9);
      received = true;
    } else {
      EXPECT_FALSE(received);  // rank 0 is parked, not finished
      mb.push(make(9, 1));
    }
  });
  EXPECT_TRUE(received);
}

TEST(Mailbox, AbortWakesWaiters) {
  Mailbox mb;
  on_fibers(mb, 2, [&](int rank) {
    if (rank == 0) {
      EXPECT_THROW(mb.recv(0, 0), Error);
    } else {
      mb.abort();
    }
  });
}

TEST(Mailbox, TryPopTakesTheFirstMatchOnly) {
  Mailbox mb;
  EXPECT_FALSE(mb.try_pop(1, 2).has_value());
  mb.push(make(4, 2));
  mb.push(make(1, 2, {100}));
  mb.push(make(1, 2, {200}));
  EXPECT_FALSE(mb.try_pop(1, 3).has_value());
  const auto first = mb.try_pop(1, 2);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->src, 1);
  EXPECT_EQ(static_cast<int>(first->payload[0]), 100);
  EXPECT_EQ(mb.pending(), 2u);
}

}  // namespace
}  // namespace kali

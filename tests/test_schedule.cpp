// The schedule generator must produce perfect matchings: per round every
// member exchanges with at most one partner (involution), and across
// rounds every ordered pair appears exactly once — the property that keeps
// links conflict-free under MachineConfig::link_contention.
#include "machine/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "support/check.hpp"

namespace kali {
namespace {

TEST(Schedule, PerfectMatchingsEveryRoundP2to9) {
  for (int n = 2; n <= 9; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const CommSchedule s(n);
    std::set<std::pair<int, int>> covered;
    for (int r = 0; r < s.rounds(); ++r) {
      for (int i = 0; i < n; ++i) {
        const int p = s.partner(r, i);
        ASSERT_GE(p, 0);
        ASSERT_LT(p, n);
        // Involution: my partner's partner is me — each member sends and
        // receives at most once per round.
        EXPECT_EQ(s.partner(r, p), i);
        if (p != i) {
          EXPECT_TRUE(covered.insert({i, p}).second)
              << "pair (" << i << "," << p << ") repeated in round " << r;
        }
      }
    }
    // Every ordered pair exactly once.
    EXPECT_EQ(covered.size(),
              static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1));
  }
}

TEST(Schedule, RoundOfInvertsPartner) {
  for (int n = 2; n <= 9; ++n) {
    const CommSchedule s(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) {
          continue;
        }
        const int r = s.round_of(i, j);
        ASSERT_GE(r, 0);
        ASSERT_LT(r, s.rounds());
        EXPECT_EQ(s.partner(r, i), j);
        EXPECT_EQ(s.round_of(j, i), r);  // symmetric: both agree on timing
      }
    }
  }
}

TEST(Schedule, PowerOfTwoUsesMinimalRounds) {
  EXPECT_EQ(CommSchedule(2).rounds(), 1);
  EXPECT_EQ(CommSchedule(4).rounds(), 3);
  EXPECT_EQ(CommSchedule(8).rounds(), 7);
  // Latin-square fallback: one extra round, some members idle per round.
  EXPECT_EQ(CommSchedule(3).rounds(), 3);
  EXPECT_EQ(CommSchedule(6).rounds(), 6);
  EXPECT_EQ(CommSchedule(1).rounds(), 0);
}

TEST(Schedule, RoundOrderIsPermutationOfPeers) {
  for (int n = 2; n <= 9; ++n) {
    const CommSchedule s(n);
    for (int i = 0; i < n; ++i) {
      std::vector<int> peers = round_order(s, i);
      EXPECT_EQ(peers.size(), static_cast<std::size_t>(n - 1));
      std::vector<int> sorted = peers;
      std::sort(sorted.begin(), sorted.end());
      for (int j = 0, k = 0; j < n; ++j) {
        if (j != i) {
          EXPECT_EQ(sorted[static_cast<std::size_t>(k++)], j);
        }
      }
      // Round order is strictly increasing in round number.
      for (std::size_t k = 1; k < peers.size(); ++k) {
        EXPECT_LT(s.round_of(i, peers[k - 1]), s.round_of(i, peers[k]));
      }
    }
  }
}

TEST(Schedule, TraceShowsMatchingsPerRound) {
  const CommSchedule s(5);  // odd: one member idles per latin-square round
  ActivityTrace t = schedule_trace(s);
  EXPECT_EQ(t.nsteps(), s.rounds());
  EXPECT_EQ(t.nprocs(), 5);
  for (int r = 0; r < t.nsteps(); ++r) {
    EXPECT_EQ(t.count(r, 'x'), 4);  // two pairs exchange, one member idles
  }
  const CommSchedule s8(8);
  t = schedule_trace(s8);
  for (int r = 0; r < t.nsteps(); ++r) {
    EXPECT_EQ(t.count(r, 'x'), 8);  // pairwise exchange: nobody idles
  }
}

TEST(Schedule, RoundSortOrdersMessagesByRound) {
  // Communicator {10, 11, 12, 13}: member indices 0..3; self rank 10.
  const std::vector<int> members{10, 11, 12, 13};
  std::vector<std::pair<int, char>> msgs{{13, 'c'}, {11, 'a'}, {12, 'b'}};
  detail::round_sort(msgs, members, /*self_rank=*/10,
                     IssueOrder::kRoundSchedule);
  // XOR schedule from member 0: round 0 -> 1 (rank 11), round 1 -> 2
  // (rank 12), round 2 -> 3 (rank 13).
  EXPECT_EQ(msgs[0].first, 11);
  EXPECT_EQ(msgs[1].first, 12);
  EXPECT_EQ(msgs[2].first, 13);

  std::vector<std::pair<int, char>> naive{{13, 'c'}, {11, 'a'}, {12, 'b'}};
  detail::round_sort(naive, members, 10, IssueOrder::kPeerOrder);
  EXPECT_EQ(naive[0].first, 13);  // peer order: untouched
}

TEST(Schedule, MemberIndexRejectsNonMembers) {
  const std::vector<int> members{2, 4, 6};
  EXPECT_EQ(detail::member_index(members, 4), 1);
  EXPECT_THROW((void)detail::member_index(members, 5), Error);
}

TEST(Schedule, UnionMembersSortsAndDedupes) {
  const std::vector<int> u = detail::union_members({3, 1, 2}, {2, 5});
  EXPECT_EQ(u, (std::vector<int>{1, 2, 3, 5}));
}

}  // namespace
}  // namespace kali

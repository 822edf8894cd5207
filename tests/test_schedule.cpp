// The schedule generator must produce perfect matchings: per round every
// member exchanges with at most one partner (involution), and across
// rounds every ordered pair appears exactly once — the property that keeps
// links conflict-free under MachineConfig::link_contention.  Exchanges use
// the machine-wide schedule on any slice of the machine, so a seeded
// property test checks that its rounds stay matchings on random views and
// on unions of two views.
#include "machine/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "machine/proc_view.hpp"
#include "random_view.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

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
  // A 16-rank machine, self rank 10: XOR rounds 10^11-1 = 0, 10^8-1 = 1,
  // 10^13-1 = 6, whatever view the three peers belong to.
  std::vector<std::pair<int, char>> msgs{{13, 'c'}, {11, 'a'}, {8, 'b'}};
  detail::round_sort(msgs, /*nprocs=*/16, /*self_rank=*/10,
                     IssueOrder::kRoundSchedule);
  EXPECT_EQ(msgs[0].first, 11);
  EXPECT_EQ(msgs[1].first, 8);
  EXPECT_EQ(msgs[2].first, 13);

  // A 6-rank machine, self rank 1: latin-square rounds (1 + peer) mod 6.
  std::vector<std::pair<int, char>> latin{{3, 'd'}, {0, 'b'}, {5, 'a'}};
  detail::round_sort(latin, 6, 1, IssueOrder::kRoundSchedule);
  EXPECT_EQ(latin[0].first, 5);
  EXPECT_EQ(latin[1].first, 0);
  EXPECT_EQ(latin[2].first, 3);

  std::vector<std::pair<int, char>> naive{{13, 'c'}, {11, 'a'}, {8, 'b'}};
  detail::round_sort(naive, 16, 10, IssueOrder::kPeerOrder);
  EXPECT_EQ(naive[0].first, 13);  // peer order: untouched
}

TEST(Schedule, MachineWideRoundsAreMatchingsOnEveryViewAndUnion) {
  // Each exchange orders its messages by CommSchedule(nprocs).round_of of
  // two machine ranks.  On any rank set an exchange can span — one view,
  // or the union of a redistribution's two views — every rank must have at
  // most one partner per round, and both endpoints must compute the same
  // round.
  constexpr int kMaxProcs = 64;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    std::vector<int> ranks = random_view(rng).ranks();
    if (rng.uniform_int(0, 1) == 0) {
      const std::vector<int> b = random_view(rng).ranks();
      ranks.insert(ranks.end(), b.begin(), b.end());
      std::sort(ranks.begin(), ranks.end());
      ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    }
    const int need = ranks.back() + 1;
    if (need > kMaxProcs) {
      continue;
    }
    // The smallest power of two that holds the ranks, or any size that
    // does.
    int p = 1;
    while (p < need) {
      p *= 2;
    }
    if (rng.uniform_int(0, 1) == 0) {
      p = rng.uniform_int(need, kMaxProcs);
    }
    ++checked;
    const CommSchedule sched(p);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " p=" + std::to_string(p) +
                 " ranks=" + std::to_string(ranks.size()));
    for (int me : ranks) {
      std::vector<std::pair<int, int>> msgs;
      for (int peer : ranks) {
        if (peer != me) {
          msgs.emplace_back(peer, 0);
        }
      }
      detail::round_sort(msgs, p, me);
      std::set<int> rounds;
      for (const auto& m : msgs) {
        const int r = sched.round_of(me, m.first);
        ASSERT_GE(r, 0);
        ASSERT_LT(r, sched.rounds());
        EXPECT_EQ(sched.round_of(m.first, me), r);  // both endpoints agree
        EXPECT_EQ(sched.partner(r, me), m.first);
        EXPECT_TRUE(rounds.insert(r).second)  // one partner per round
            << "rank " << me << " has two partners in round " << r;
      }
      // round_sort issues in ascending round order.
      for (std::size_t k = 1; k < msgs.size(); ++k) {
        EXPECT_LT(sched.round_of(me, msgs[k - 1].first),
                  sched.round_of(me, msgs[k].first));
      }
    }
    // A peer outside the machine has no round.
    if (p >= 2) {
      EXPECT_THROW((void)sched.round_of(0, p), Error);
      std::vector<std::pair<int, int>> bad{{p, 0}, {1, 0}};
      EXPECT_THROW(detail::round_sort(bad, p, 0), Error);
    }
  }
  EXPECT_GE(checked, 200);
}

}  // namespace
}  // namespace kali

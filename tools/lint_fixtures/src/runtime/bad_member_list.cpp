// Fixture: a planner must not copy a view's O(P) rank list (ranks()) into
// each member; it names peers with rank_at.  Mentions in comments, like
// view.ranks() here, and other names ending in "ranks" are clean.
#include <vector>

namespace kali {

struct FakeView {
  std::vector<int> ranks() const;
  int rank_at(int i) const;
  int nranks() const;
};

int plan_peers(const FakeView& v, const FakeView* w) {
  const std::vector<int> members = v.ranks();  // LINT-EXPECT: member-list
  const std::vector<int> others = w->ranks();  // LINT-EXPECT: member-list
  int sum = v.rank_at(0) + v.nranks();
  // Waived on purpose: the fixture proves the pragma suppresses the rule.
  // kali-lint: allow(member-list)
  sum += static_cast<int>(v.ranks().size());
  return sum + static_cast<int>(members.size() + others.size());
}

}  // namespace kali

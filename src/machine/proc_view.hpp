// Processor arrays and their slices (the paper's `processors procs(p, p)`).
//
// A ProcView is a shaped window onto the machine's flat rank space: a base
// rank plus (extent, stride) per dimension, up to 3 dimensions.  Slicing a
// view (`procs(ip, *)`, `procs(*, jp)`) produces another view — this is the
// mechanism by which "a slice of the processor array is passed along with a
// slice of the data array" to a parallel subroutine (paper, section 2).
//
// The full machine is the "real estate agent": exactly one root grid is made
// from the machine, and every other view is a slice of it.
//
// A view is also the process set the collectives run over: its size is
// O(1) whatever the member count, a member's index is its row-major
// position, and `ranks()` is strictly ascending, because every view is
// built by grid1/2/3, fix and sub, which all keep the strides descending
// in dimension order.
#pragma once

#include <array>
#include <optional>
#include <vector>

namespace kali {

inline constexpr int kMaxProcDims = 3;

class ProcView {
 public:
  /// Empty view (no processors); default-constructed arrays use this.
  ProcView() = default;

  /// 1-D view of `p` consecutive ranks starting at `base`.
  static ProcView grid1(int p, int base = 0);

  /// 2-D row-major view: rank = base + i * py + j.
  static ProcView grid2(int px, int py, int base = 0);

  /// 3-D row-major view: rank = base + (i * py + j) * pz + k.
  static ProcView grid3(int px, int py, int pz, int base = 0);

  [[nodiscard]] int ndims() const { return ndims_; }
  [[nodiscard]] int extent(int d) const;
  [[nodiscard]] int count() const;

  /// Machine rank of the processor at `coord` (size must equal ndims()).
  [[nodiscard]] int rank_of(std::array<int, kMaxProcDims> coord) const;
  [[nodiscard]] int rank_of1(int i) const { return rank_of({i, 0, 0}); }
  [[nodiscard]] int rank_of2(int i, int j) const { return rank_of({i, j, 0}); }

  /// Coordinates of `rank` within this view, or nullopt if not a member.
  [[nodiscard]] std::optional<std::array<int, kMaxProcDims>> coord_of(int rank) const;

  [[nodiscard]] bool contains(int rank) const { return coord_of(rank).has_value(); }

  /// Fix dimension `dim` to `index`: rank drops by one (procs(ip, *) etc.).
  [[nodiscard]] ProcView fix(int dim, int index) const;

  /// Contiguous sub-range [lo, lo+len) along `dim`, same rank.
  [[nodiscard]] ProcView sub(int dim, int lo, int len) const;

  /// All member ranks in row-major coordinate order.
  [[nodiscard]] std::vector<int> ranks() const;

  /// Row-major linear index of `rank` within the view (must be a member).
  [[nodiscard]] int linear_index_of(int rank) const;

  /// Machine rank of the member at row-major index `i`: the inverse of
  /// linear_index_of.
  [[nodiscard]] int rank_at(int i) const;

  /// The view itself, once `self_rank` is checked to be a member.  Kept only
  /// for the benchmark harness (benchmark/), which predates views as
  /// process sets.
  [[nodiscard]] const ProcView& group(int self_rank) const;

  friend bool operator==(const ProcView& a, const ProcView& b);

 private:
  int base_ = 0;
  int ndims_ = 0;
  std::array<int, kMaxProcDims> extents_{};
  std::array<int, kMaxProcDims> strides_{};
};

/// Kept only for the benchmark harness (benchmark/): the old name of a
/// process set.
using Group = ProcView;

}  // namespace kali

// Data distribution patterns (the paper's `dist (block, block)` clauses).
//
// A DimDist describes how one array dimension maps onto one processor-grid
// dimension: kStar leaves it undistributed (every member holds the whole
// extent — the `*` of the paper), kBlock gives each processor a contiguous
// slab, kCyclic deals elements round-robin ("especially useful in numerical
// linear algebra"), kBlockCyclic generalizes both.
//
// DimMap binds a pattern to a concrete (extent, nprocs) pair and provides
// the index algebra the KF1 compiler would generate: owner-of-global,
// global<->local translation, per-processor counts, and the paper's
// `lower`/`upper` intrinsic functions for block distributions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace kali {

enum class DistKind : std::uint8_t { kStar, kBlock, kCyclic, kBlockCyclic };

struct DimDist {
  DistKind kind = DistKind::kStar;
  int block = 1;  ///< block length for kBlockCyclic

  static DimDist star() { return {DistKind::kStar, 1}; }
  static DimDist block_dist() { return {DistKind::kBlock, 1}; }
  static DimDist cyclic() { return {DistKind::kCyclic, 1}; }
  static DimDist block_cyclic(int b) { return {DistKind::kBlockCyclic, b}; }
};

[[nodiscard]] std::string to_string(DistKind k);

/// Index algebra for one distributed dimension.  The per-index functions
/// are defined inline below: they run on every global element access.
class DimMap {
 public:
  DimMap() = default;
  DimMap(DimDist dist, int extent, int nprocs);

  [[nodiscard]] DistKind kind() const { return dist_.kind; }
  [[nodiscard]] int extent() const { return extent_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }

  /// Processor coordinate owning global index g (0 for kStar).
  [[nodiscard]] int owner(int g) const;

  /// Local index of global g on its owner (g itself for kStar).
  [[nodiscard]] int local(int g) const;

  /// Global index of local l on processor coordinate c.
  [[nodiscard]] int global(int c, int l) const;

  /// Number of elements processor coordinate c owns.
  [[nodiscard]] int count(int c) const;

  /// First owned global index for block distributions (paper's `lower`).
  [[nodiscard]] int block_lower(int c) const;

  /// Last owned global index, inclusive (paper's `upper`).
  [[nodiscard]] int block_upper(int c) const;

  /// All global indices owned by c, ascending (any distribution kind).
  [[nodiscard]] std::vector<int> owned_indices(int c) const;

  /// True if [lo, hi] lies within a single owner's elements.
  [[nodiscard]] bool single_owner_range(int lo, int hi) const;

 private:
  DimDist dist_{};
  int extent_ = 0;
  int nprocs_ = 1;
  int block_ = 0;  ///< ceil(extent/nprocs) for kBlock; dist_.block*nprocs period otherwise
};

inline int DimMap::owner(int g) const {
  KALI_CHECK(g >= 0 && g < extent_, "owner: index out of range");
  switch (dist_.kind) {
    case DistKind::kStar:
      return 0;
    case DistKind::kBlock:
      return g / block_;
    case DistKind::kCyclic:
      return g % nprocs_;
    case DistKind::kBlockCyclic:
      return (g / dist_.block) % nprocs_;
  }
  KALI_FAIL("bad kind");
}

inline int DimMap::local(int g) const {
  KALI_CHECK(g >= 0 && g < extent_, "local: index out of range");
  switch (dist_.kind) {
    case DistKind::kStar:
      return g;
    case DistKind::kBlock:
      return g - (g / block_) * block_;
    case DistKind::kCyclic:
      return g / nprocs_;
    case DistKind::kBlockCyclic: {
      const int b = dist_.block;
      return (g / (b * nprocs_)) * b + g % b;
    }
  }
  KALI_FAIL("bad kind");
}

inline int DimMap::global(int c, int l) const {
  KALI_CHECK(c >= 0 && c < nprocs_, "global: bad proc coord");
  KALI_CHECK(l >= 0 && l < count(c), "global: bad local index");
  switch (dist_.kind) {
    case DistKind::kStar:
      return l;
    case DistKind::kBlock:
      return c * block_ + l;
    case DistKind::kCyclic:
      return l * nprocs_ + c;
    case DistKind::kBlockCyclic: {
      const int b = dist_.block;
      return (l / b) * b * nprocs_ + c * b + l % b;
    }
  }
  KALI_FAIL("bad kind");
}

inline int DimMap::count(int c) const {
  KALI_CHECK(c >= 0 && c < nprocs_, "count: bad proc coord");
  switch (dist_.kind) {
    case DistKind::kStar:
      return extent_;
    case DistKind::kBlock:
      return std::clamp(extent_ - c * block_, 0, block_);
    case DistKind::kCyclic: {
      return (extent_ - c + nprocs_ - 1) / nprocs_;
    }
    case DistKind::kBlockCyclic: {
      const int b = dist_.block;
      const int full = extent_ / (b * nprocs_);
      const int rem = extent_ - full * b * nprocs_;
      return full * b + std::clamp(rem - c * b, 0, b);
    }
  }
  KALI_FAIL("bad kind");
}

inline int DimMap::block_lower(int c) const {
  KALI_CHECK(dist_.kind == DistKind::kBlock, "lower() requires block dist");
  KALI_CHECK(c >= 0 && c < nprocs_, "lower: bad proc coord");
  return c * block_;
}

}  // namespace kali

#include "runtime/distribution.hpp"

#include "support/check.hpp"

namespace kali {

std::string to_string(DistKind k) {
  switch (k) {
    case DistKind::kStar:
      return "*";
    case DistKind::kBlock:
      return "block";
    case DistKind::kCyclic:
      return "cyclic";
    case DistKind::kBlockCyclic:
      return "block_cyclic";
  }
  return "?";
}

DimMap::DimMap(DimDist dist, int extent, int nprocs)
    : dist_(dist), extent_(extent), nprocs_(nprocs) {
  KALI_CHECK(extent >= 0, "negative extent");
  KALI_CHECK(nprocs >= 1, "nprocs must be positive");
  KALI_CHECK(dist.block >= 1, "block length must be positive");
  if (dist_.kind == DistKind::kBlock) {
    block_ = (extent_ + nprocs_ - 1) / nprocs_;
  }
}

int DimMap::block_upper(int c) const {
  KALI_CHECK(dist_.kind == DistKind::kBlock, "upper() requires block dist");
  return block_lower(c) + count(c) - 1;
}

std::vector<int> DimMap::owned_indices(int c) const {
  const int n = count(c);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    out.push_back(global(c, l));
  }
  return out;
}

bool DimMap::single_owner_range(int lo, int hi) const {
  KALI_CHECK(lo <= hi, "empty range");
  if (dist_.kind == DistKind::kStar) {
    return true;
  }
  if (dist_.kind == DistKind::kBlock) {
    return owner(lo) == owner(hi);
  }
  const int own = owner(lo);
  for (int g = lo + 1; g <= hi; ++g) {
    if (owner(g) != own) {
      return false;
    }
  }
  return true;
}

}  // namespace kali

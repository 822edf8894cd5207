#include "kernels/tri_pipeline.hpp"

#include "machine/context.hpp"
#include "support/check.hpp"

namespace kali::detail {

int checked_log2(int p) {
  KALI_CHECK(p >= 1 && (p & (p - 1)) == 0, "processor count must be 2^k");
  int k = 0;
  while ((1 << k) < p) {
    ++k;
  }
  return k;
}

TriPipeline::TriPipeline(Context& ctx, const ProcView& pv, int sys)
    : ctx_(&ctx),
      pv_(pv),
      sys_(sys),
      tag_pair_(kTagTriBase + 2 * sys),
      tag_sol_(kTagTriBase + 2 * sys + 1) {
  KALI_CHECK(pv.ndims() == 1, "tri: view must be one-dimensional");
  p_ = pv.count();
  k_ = checked_log2(p_);
  member_ = pv.contains(ctx.rank());
  if (member_) {
    me_ = pv.linear_index_of(ctx.rank());
  }
}

void TriPipeline::set_local(std::vector<double> b, std::vector<double> a,
                            std::vector<double> c, std::vector<double> f) {
  if (!member_) {
    return;
  }
  mloc_ = static_cast<int>(a.size());
  KALI_CHECK(mloc_ >= 2 || p_ == 1,
             "tri: each processor needs at least 2 rows");
  KALI_CHECK(b.size() == a.size() && c.size() == a.size() && f.size() == a.size(),
             "tri: size mismatch");
  b_ = std::move(b);
  a_ = std::move(a);
  c_ = std::move(c);
  f_ = std::move(f);
  x_.assign(static_cast<std::size_t>(mloc_), 0.0);
  saved_.assign(static_cast<std::size_t>(k_ > 1 ? k_ - 1 : 0), {});
}

void TriPipeline::send_pair(int peer_index) {
  ctx_->send(pv_.rank_of1(peer_index), tag_pair_, pair_.v);
}

TriPipeline::Pair TriPipeline::recv_pair(int peer_index) {
  Pair in;
  in.v = ctx_->recv<std::array<double, 8>>(pv_.rank_of1(peer_index), tag_pair_);
  return in;
}

void TriPipeline::send_sol(int peer_index, double lo, double hi) {
  ctx_->send(pv_.rank_of1(peer_index), tag_sol_, std::array<double, 2>{lo, hi});
}

std::array<double, 2> TriPipeline::recv_sol(int peer_index) {
  return ctx_->recv<std::array<double, 2>>(pv_.rank_of1(peer_index), tag_sol_);
}

void TriPipeline::mark(int q, char symbol) const {
  ctx_->mark(sys_ + q, me_, symbol);
}

void TriPipeline::run_position(int q) {
  if (!member_) {
    return;
  }
  KALI_CHECK(q >= 0 && q < positions(), "bad pipeline position");

  if (p_ == 1) {  // degenerate: plain sequential solve
    thomas_solve(b_, a_, c_, f_, x_);
    ctx_->compute(kThomasFlopsPerRow * mloc_);
    mark(q, 'T');
    return;
  }

  if (q == 0) {
    // Stage 1: local two-sided reduction; odd members mail their pair left.
    reduce_block(b_, a_, c_, f_);
    ctx_->compute(kReduceFlopsPerRow * mloc_);
    const auto lo = static_cast<std::size_t>(0);
    const auto hi = static_cast<std::size_t>(mloc_ - 1);
    pair_.v = {b_[lo], a_[lo], c_[lo], f_[lo], b_[hi], a_[hi], c_[hi], f_[hi]};
    if (me_ % 2 == 1) {
      send_pair(me_ - 1);
    }
    mark(q, 'R');
    return;
  }

  if (q >= 1 && q <= k_ - 1) {
    // Merge level sigma = q+1 on members = 0 (mod 2^(sigma-1)).
    const int sigma = q + 1;
    const int stride = 1 << (sigma - 1);
    const int half = 1 << (sigma - 2);
    if (me_ % stride != 0) {
      return;
    }
    Pair right = recv_pair(me_ + half);
    // 4 consecutive rows of the current reduced system.
    std::array<double, 4> b4{pair_.v[0], pair_.v[4], right.v[0], right.v[4]};
    std::array<double, 4> a4{pair_.v[1], pair_.v[5], right.v[1], right.v[5]};
    std::array<double, 4> c4{pair_.v[2], pair_.v[6], right.v[2], right.v[6]};
    std::array<double, 4> f4{pair_.v[3], pair_.v[7], right.v[3], right.v[7]};
    reduce_block(b4, a4, c4, f4);
    ctx_->compute(kReduceFlopsPerRow * 4.0);
    auto& sv = saved_[static_cast<std::size_t>(sigma - 2)];
    for (std::size_t i = 0; i < 4; ++i) {
      sv[i] = b4[i];
      sv[4 + i] = a4[i];
      sv[8 + i] = c4[i];
      sv[12 + i] = f4[i];
    }
    pair_.v = {b4[0], a4[0], c4[0], f4[0], b4[3], a4[3], c4[3], f4[3]};
    if (me_ % (2 * stride) != 0) {
      send_pair(me_ - stride);
    }
    mark(q, 'r');
    return;
  }

  if (q == k_) {
    // Root: 4-row Thomas solve on member 0 (pair from member p/2 arrived
    // from the last merge level, or from stage 1 when p == 2).
    const int half = 1 << (k_ - 1);
    if (me_ != 0) {
      return;
    }
    Pair right = recv_pair(half);
    std::array<double, 4> b4{pair_.v[0], pair_.v[4], right.v[0], right.v[4]};
    std::array<double, 4> a4{pair_.v[1], pair_.v[5], right.v[1], right.v[5]};
    std::array<double, 4> c4{pair_.v[2], pair_.v[6], right.v[2], right.v[6]};
    std::array<double, 4> f4{pair_.v[3], pair_.v[7], right.v[3], right.v[7]};
    std::array<double, 4> x4{};
    thomas_solve(b4, a4, c4, f4, x4);
    ctx_->compute(kThomasFlopsPerRow * 4.0);
    xl_ = x4[0];
    xu_ = x4[1];
    send_sol(half, x4[2], x4[3]);
    mark(q, 'T');
    return;
  }

  if (q <= 2 * k_ - 1) {
    // Substitution level sigma = 2k - q + 1 on members = 0 (mod 2^(sigma-1)).
    const int sigma = 2 * k_ - q + 1;
    const int stride = 1 << (sigma - 1);
    const int half = 1 << (sigma - 2);
    if (me_ % stride != 0) {
      return;
    }
    if (me_ % (2 * stride) != 0) {
      auto sol = recv_sol(me_ - stride);
      xl_ = sol[0];
      xu_ = sol[1];
    }
    const auto& sv = saved_[static_cast<std::size_t>(sigma - 2)];
    std::array<double, 4> x4{};
    back_substitute_block(std::span<const double>(sv.data(), 4),
                          std::span<const double>(sv.data() + 4, 4),
                          std::span<const double>(sv.data() + 8, 4),
                          std::span<const double>(sv.data() + 12, 4), xl_, xu_,
                          x4);
    ctx_->compute(kSubstFlopsPerRow * 2.0);
    // Left child keeps (xl, x4[1]); right child gets (x4[2], xu).
    send_sol(me_ + half, x4[2], xu_);
    xu_ = x4[1];
    mark(q, 'b');
    return;
  }

  // Final position: local interior substitution on every member.
  KALI_CHECK(q == 2 * k_, "bad position");
  if (me_ % 2 == 1) {
    auto sol = recv_sol(me_ - 1);
    xl_ = sol[0];
    xu_ = sol[1];
  }
  back_substitute_block(b_, a_, c_, f_, xl_, xu_, x_);
  ctx_->compute(kSubstFlopsPerRow * static_cast<double>(mloc_));
  mark(q, 'B');
}

}  // namespace kali::detail

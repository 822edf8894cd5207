// A line pass followed by the redistribution after it, run one after the
// other: every line src owns, then one blocking redistribute().  This is how
// fft2 and ADI's transpose branch ran before redistribute_lines pipelined
// the two, and the oracle redistribute_lines is differentially tested
// against (tests/test_redistribute.cpp): the values must match bit for bit
// and the wire bytes exactly; only the clocks and the message count (one
// per slice and peer, not one per peer) may differ.
#pragma once

#include "runtime/dist_array.hpp"
#include "runtime/redistribute.hpp"

namespace kali::oracles {

template <class T, int R, class Fn>
void line_pass_then_redistribute(Context& ctx, const DistArray<T, R>& src,
                                 DistArray<T, R>& dst, int line_dim,
                                 Fn&& line) {
  if (src.participating()) {
    for (int r : src.owned(line_dim)) {
      line(r);
    }
  }
  redistribute(ctx, src, dst);
}

}  // namespace kali::oracles

// Distributed 2-D FFT — the canonical transpose-based tensor product
// algorithm: 1-D FFTs along the locally-held dimension, a redistribution
// (the "distributed transpose"), then 1-D FFTs along the other dimension.
// The first pass is pipelined into the transpose (redistribute_lines in
// runtime/redistribute.hpp): each slice of finished lines is on the wire
// while the next slice transforms.
//
// This is the composition pattern of the paper applied to its other named
// 1-D kernel: "Fast Fourier Transforms, and so forth" (§3).
#pragma once

#include <complex>

#include "runtime/dist_array.hpp"

namespace kali {

using Complex = std::complex<double>;

/// Apply 1-D FFTs along dimension `dim` of `a`, which must be a star
/// (locally complete) dimension; the other dimension indexes the
/// transforms.  In place.  Collective only in cost accounting.
void fft_lines(DistArray2<Complex>& a, int dim, bool inverse);

/// Full 2-D transform of the data in `rows` (dist (block, *)): row FFTs
/// pipelined into the redistribution into `cols` (dist (*, block)), then
/// column FFTs.  On return the frequency-domain data lives in `cols`;
/// `rows` holds the row-transformed intermediate.  Every value is
/// bit-identical to row FFTs, redistribute(), column FFTs run one after
/// the other.  Collective over both views.
void fft2_forward(Context& ctx, DistArray2<Complex>& rows,
                  DistArray2<Complex>& cols);

/// Inverse of fft2_forward: consumes `cols` (frequency domain), returns the
/// spatial data in `rows`, the column FFTs pipelined into the transpose.
void fft2_inverse(Context& ctx, DistArray2<Complex>& cols,
                  DistArray2<Complex>& rows);

}  // namespace kali

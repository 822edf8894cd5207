// The paper's running example, three ways (Listings 1-3):
//
//   jacobi_seq  — sequential Fortran style (Listing 1)
//   jacobi_mp   — hand-written message passing node program (Listing 2):
//                 plain local (m+2)^2 arrays, explicit guarded send/recv of
//                 the four edges each iteration
//   jacobi_kf1  — KF1 constructs (Listing 3): a distributed array with a
//                 (block, block) clause and a doall on owner(X(i,j)); the
//                 copy-in/copy-out temporary and all communication are
//                 produced by the runtime
//
// All three compute bit-identical iterates of
//   X(i,j) = 0.25*(X(i+1,j) + X(i-1,j) + X(i,j+1) + X(i,j-1)) - f(i,j)
// over the n x n interior with a zero boundary frame, so E1 can compare
// simulated time, message counts, and source-code length on equal numerics.
#pragma once

#include <functional>
#include <vector>

#include "machine/context.hpp"
#include "machine/proc_view.hpp"

namespace kali {

/// Modeled flops per stencil update (4 adds, 1 multiply, 1 subtract).
inline constexpr double kJacobiFlopsPerPoint = 6.0;

/// Right-hand side supplier: f(i, j) for interior indices 0..n-1.
using JacobiRhs = std::function<double(int, int)>;

/// Listing 1.  Runs on the calling processor only; returns the interior
/// after `iters` iterations, row-major n x n.
std::vector<double> jacobi_seq(Context& ctx, int n, const JacobiRhs& f,
                               int iters);

/// Listing 2.  SPMD over the p x p view `procs`; n must be divisible by p.
/// Returns the gathered interior on the view's first processor (empty
/// elsewhere).  Pass collect = false to skip the verification gather (for
/// timing runs that should measure only the iteration itself).
std::vector<double> jacobi_mp(Context& ctx, const ProcView& procs, int n,
                              const JacobiRhs& f, int iters,
                              bool collect = true);

/// Listing 3.  Same contract as jacobi_mp, via the KF1 runtime constructs.
std::vector<double> jacobi_kf1(Context& ctx, const ProcView& procs, int n,
                               const JacobiRhs& f, int iters,
                               bool collect = true);

}  // namespace kali

// Pipelined multi-system tridiagonal solver — the paper's `mtrix` parsub
// (Listing 6) and its constant-coefficient variants `mtrixc`/`mtriyc` used
// by the pipelined ADI of Listing 8.
//
// The m systems are staggered through the substructured pipeline: at global
// step t, system j executes pipeline position t - j (when in range).  Every
// processor therefore does stage-1 work on a fresh system at every step
// while simultaneously serving its tree levels for earlier systems — "more
// of the processors are kept busy" (paper §3).
#pragma once

#include "runtime/dist_array.hpp"

namespace kali {

/// Number of global pipeline steps for `nsys` systems on p processors: the
/// rows of its Figure 5 matrix (EventLog::activity).
int mtri_trace_steps(int nsys, int p);

/// Solve the `nsys` tridiagonal systems stacked along dimension
/// `system_dim` (which must be a star dim) of the 2-D arrays; the other
/// dimension is the unknown index and must be block-distributed over a 1-D
/// view shared by all five arrays.  Writes X.
void mtri(const DistArray2<double>& B, const DistArray2<double>& A,
          const DistArray2<double>& C, const DistArray2<double>& F,
          DistArray2<double>& X, int system_dim);

/// Constant-coefficient variant (`mtrixc`/`mtriyc` of the paper — one name
/// suffices here because `system_dim` selects the orientation).
void mtri_const(double lo, double diag, double up, const DistArray2<double>& F,
                DistArray2<double>& X, int system_dim);

}  // namespace kali

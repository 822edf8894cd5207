// Parallel substructured tridiagonal solver — the paper's `tri` parsub
// (Listing 4) with the unshuffle communication of Listing 5 / Figure 5.
#pragma once

#include "runtime/dist_array.hpp"

namespace kali {

/// Number of activity-trace steps `tri` produces on p = 2^k processors: the
/// rows of its Figure 3 matrix (EventLog::activity).
int tri_trace_steps(int p);

/// Solve A x = f where row i of A is (b[i], a[i], c[i]); all five arrays are
/// 1-D, block-distributed over the same 1-D processor view (b[0] and c[n-1]
/// are ignored).  Inputs are untouched.  Collective over the view; each
/// member must hold at least two rows.  The system must factor without
/// pivoting (paper assumption), e.g. diagonal dominance.
void tri(const DistArray1<double>& b, const DistArray1<double>& a,
         const DistArray1<double>& c, const DistArray1<double>& f,
         DistArray1<double>& x);

/// Constant-coefficient variant (the paper's `tric`, used by ADI):
/// lo x[i-1] + diag x[i] + up x[i+1] = f[i].
void tric(double lo, double diag, double up, const DistArray1<double>& f,
          DistArray1<double>& x);

}  // namespace kali

// Listing 2: the hand-written message-passing Jacobi node program.
//
// This is deliberately written the way a 1989 programmer would: raw local
// arrays with a ghost frame, explicitly guarded sends and receives of the
// four edges, manual index arithmetic.  It is the baseline against which E1
// compares the KF1 version's performance and E7 its length.
#include <vector>

#include "machine/collectives.hpp"
#include "solvers/jacobi.hpp"
#include "support/check.hpp"

namespace kali {

namespace {
constexpr int kTagN = 100;  // edge travelling north (to smaller ip)
constexpr int kTagS = 101;
constexpr int kTagW = 102;
constexpr int kTagE = 103;
}  // namespace

std::vector<double> jacobi_mp(Context& ctx, const ProcView& procs, int n,
                              const JacobiRhs& f, int iters, bool collect) {
  KALI_CHECK(procs.ndims() == 2, "jacobi_mp: need a 2-D processor array");
  const int p = procs.extent(0);
  KALI_CHECK(procs.extent(1) == p, "jacobi_mp: processor array must be square");
  KALI_CHECK(n % p == 0, "jacobi_mp: n must divide by p");
  if (!procs.contains(ctx.rank())) {
    return {};
  }
  const auto coord = *procs.coord_of(ctx.rank());
  const int ip = coord[0], jp = coord[1];
  const int m = n / p;
  const int mp = m + 2;  // local array (0:m+1, 0:m+1)

  std::vector<double> x(static_cast<std::size_t>(mp * mp), 0.0);
  std::vector<double> tmp(x.size(), 0.0);
  std::vector<double> rhs(static_cast<std::size_t>(m * m));
  auto X = [&](int i, int j) -> double& {
    return x[static_cast<std::size_t>(i * mp + j)];
  };
  auto T = [&](int i, int j) -> double& {
    return tmp[static_cast<std::size_t>(i * mp + j)];
  };
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      rhs[static_cast<std::size_t>(i * m + j)] = f(ip * m + i, jp * m + j);
    }
  }

  std::vector<double> edge(static_cast<std::size_t>(m));
  for (int it = 0; it < iters; ++it) {
    // copy interior of solution array into the temporary array
    for (int i = 1; i <= m; ++i) {
      for (int j = 1; j <= m; ++j) {
        T(i, j) = X(i, j);
      }
    }
    ctx.compute(static_cast<double>(m) * m);

    // send edge values to North, South, West and East neighbours
    if (ip > 0) {
      for (int j = 1; j <= m; ++j) {
        edge[static_cast<std::size_t>(j - 1)] = X(1, j);
      }
      ctx.send_span<double>(procs.rank_of2(ip - 1, jp), kTagN, edge);
    }
    if (ip < p - 1) {
      for (int j = 1; j <= m; ++j) {
        edge[static_cast<std::size_t>(j - 1)] = X(m, j);
      }
      ctx.send_span<double>(procs.rank_of2(ip + 1, jp), kTagS, edge);
    }
    if (jp > 0) {
      for (int i = 1; i <= m; ++i) {
        edge[static_cast<std::size_t>(i - 1)] = X(i, 1);
      }
      ctx.send_span<double>(procs.rank_of2(ip, jp - 1), kTagW, edge);
    }
    if (jp < p - 1) {
      for (int i = 1; i <= m; ++i) {
        edge[static_cast<std::size_t>(i - 1)] = X(i, m);
      }
      ctx.send_span<double>(procs.rank_of2(ip, jp + 1), kTagE, edge);
    }
    ctx.compute(4.0 * m);  // edge packing

    // receive edge values from neighbours (into the temporary's frame)
    if (ip < p - 1) {
      ctx.recv_into<double>(procs.rank_of2(ip + 1, jp), kTagN, edge);
      for (int j = 1; j <= m; ++j) {
        T(m + 1, j) = edge[static_cast<std::size_t>(j - 1)];
      }
    }
    if (ip > 0) {
      ctx.recv_into<double>(procs.rank_of2(ip - 1, jp), kTagS, edge);
      for (int j = 1; j <= m; ++j) {
        T(0, j) = edge[static_cast<std::size_t>(j - 1)];
      }
    }
    if (jp < p - 1) {
      ctx.recv_into<double>(procs.rank_of2(ip, jp + 1), kTagW, edge);
      for (int i = 1; i <= m; ++i) {
        T(i, m + 1) = edge[static_cast<std::size_t>(i - 1)];
      }
    }
    if (jp > 0) {
      ctx.recv_into<double>(procs.rank_of2(ip, jp - 1), kTagE, edge);
      for (int i = 1; i <= m; ++i) {
        T(i, 0) = edge[static_cast<std::size_t>(i - 1)];
      }
    }
    ctx.compute(4.0 * m);  // edge unpacking

    // update solution array X
    for (int i = 1; i <= m; ++i) {
      for (int j = 1; j <= m; ++j) {
        X(i, j) = 0.25 * (T(i + 1, j) + T(i - 1, j) + T(i, j + 1) + T(i, j - 1)) -
                  rhs[static_cast<std::size_t>((i - 1) * m + (j - 1))];
      }
    }
    ctx.compute(kJacobiFlopsPerPoint * m * m);
  }

  if (!collect) {
    return {};
  }
  // Gather the interior on processor (0, 0) for verification.
  std::vector<double> mine(static_cast<std::size_t>(m * m));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      mine[static_cast<std::size_t>(i * m + j)] = X(i + 1, j + 1);
    }
  }
  auto blocks = gather(ctx, procs, 0, std::span<const double>(mine));
  if (ctx.rank() != procs.rank_at(0)) {
    return {};
  }
  std::vector<double> full(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int q = 0; q < p * p; ++q) {
    const int qi = q / p, qj = q % p;
    const double* blk = blocks.data() + static_cast<std::ptrdiff_t>(q) * m * m;
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < m; ++j) {
        full[static_cast<std::size_t>((qi * m + i) * n + qj * m + j)] =
            blk[i * m + j];
      }
    }
  }
  return full;
}

}  // namespace kali

// Per-system state machine of the substructured ("spike"-variant)
// tridiagonal algorithm of paper §3, shared by the one-shot solver (`tri`,
// Listing 4) and the pipelined multi-system solver (`mtri`, Listing 6).
//
// The data-flow graph (Figure 3) is a binary reduction tree followed by its
// mirror-image substitution tree, mapped onto the processor array by the
// fold/unshuffle mapping of Figure 5: the merge of level sigma runs on
// processors whose view index is a multiple of 2^(sigma-1); the right-hand
// source pair travels a distance of 2^(sigma-2) (a single hypercube hop).
//
// Pipeline positions for p = 2^k processors (p > 1):
//   pos 0            stage-1 local reduction (all processors)   'R'
//   pos 1 .. k-1     4-row merge, level sigma = pos+1           'r'
//   pos k            final 4-row Thomas solve on processor 0    'T'
//   pos k+1 .. 2k-1  substitution, level sigma = 2k-pos+1       'b'
//   pos 2k           local interior substitution (all)          'B'
// For p == 1 there is a single position: a local Thomas solve.
//
// Every position consumes only messages sent at the previous position, so
// any interleaving of positions across systems (the Listing 6 pipeline) is
// deadlock-free.  System s enters the pipeline at global step s, so its
// position q runs at step s + q; each position marks that step's activity
// symbol (above) in the member's view-index column through Context::mark,
// which is what the Figure 3/5 renderings read back from the event log.
#pragma once

#include <array>
#include <vector>

#include "kernels/reduce_block.hpp"
#include "kernels/thomas.hpp"
#include "machine/message.hpp"  // kKernelTagBase (reserved-tag registry)
#include "machine/proc_view.hpp"

namespace kali::detail {

// Per-system tags are kTagTriBase + 2 * sys (+1); the base itself is
// registered in the kernel band of machine/message.hpp.
static_assert(kTagTriBase >= kKernelTagBase && kTagTriBase < kCollectiveTagBase);
inline constexpr double kSubstFlopsPerRow = 5.0;

/// log2 of a power of two (checked).
int checked_log2(int p);

class TriPipeline {
 public:
  /// `sys` is the system's index: unique per in-flight system, it names
  /// the system's messages and its entry step.
  TriPipeline(Context& ctx, const ProcView& pv, int sys);

  /// Load this member's rows (consumed).  Call before running position 0.
  void set_local(std::vector<double> b, std::vector<double> a,
                 std::vector<double> c, std::vector<double> f);

  /// Number of pipeline positions (2k+1, or 1 for a single processor).
  [[nodiscard]] int positions() const { return p_ == 1 ? 1 : 2 * k_ + 1; }

  /// Execute pipeline position q (0-based).  Collective in the staggered
  /// sense: every member must eventually run every position in order.
  void run_position(int q);

  /// Local solution values (valid after the final position).
  [[nodiscard]] const std::vector<double>& solution() const { return x_; }

  [[nodiscard]] bool member() const { return member_; }

 private:
  struct Pair {  // two boundary rows, each (b, a, c, f)
    std::array<double, 8> v{};
  };

  void send_pair(int peer_index);
  Pair recv_pair(int peer_index);
  void send_sol(int peer_index, double lo, double hi);
  std::array<double, 2> recv_sol(int peer_index);
  /// Mark position q's activity at global step sys_ + q.
  void mark(int q, char symbol) const;

  Context* ctx_;
  ProcView pv_;
  int p_ = 1;
  int me_ = 0;  // linear index within the view
  int k_ = 0;
  int sys_;
  int tag_pair_;
  int tag_sol_;
  bool member_ = false;

  int mloc_ = 0;
  std::vector<double> b_, a_, c_, f_;  // stage-1 reduced local rows
  Pair pair_{};                        // current boundary pair
  std::vector<std::array<double, 16>> saved_;  // merge blocks per level
  double xl_ = 0.0, xu_ = 0.0;                 // current pair solution
  std::vector<double> x_;                      // local solution
};

}  // namespace kali::detail

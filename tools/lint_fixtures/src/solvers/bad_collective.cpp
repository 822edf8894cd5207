// Fixture: collective/barrier calls nested under rank-dependent
// conditionals are flagged — a collective only some members enter
// deadlocks the rest.  Unconditional collectives, rank-conditioned
// point-to-point, and waived calls stay clean.
#include "machine/message.hpp"

namespace kali {

struct FakeView {
  int size;
};

struct FakeCtx {
  int rank();
  void send(int peer, int tag, double v);
};

void barrier(FakeCtx& ctx, const FakeView& g);
double allreduce_max(FakeCtx& ctx, const FakeView& g, double v);
void exchange_halo(FakeCtx& ctx);

void symmetric_phase(FakeCtx& ctx, const FakeView& g) {
  barrier(ctx, g);  // unconditional: clean
  if (ctx.rank() == 0) {
    ctx.send(1, kTagDemo, 1.0);  // point-to-point under a rank guard: clean
  }
}

void asymmetric_phase(FakeCtx& ctx, const FakeView& g) {
  if (ctx.rank() == 0) {
    barrier(ctx, g);  // LINT-EXPECT: collective-symmetry
  } else {
    (void)allreduce_max(ctx, g, 1.0);  // LINT-EXPECT: collective-symmetry
  }
  int rank = ctx.rank();
  if (rank % 2 == 0) exchange_halo(ctx);  // LINT-EXPECT: collective-symmetry
  for (int d = 0; d < rank; ++d) {
    exchange_halo(ctx);  // LINT-EXPECT: collective-symmetry
  }
}

void waived_phase(FakeCtx& ctx, const FakeView& g) {
  if (ctx.rank() < g.size) {
    // Every rank of this machine is a member; the guard is vacuous.
    // kali-lint: allow(collective-symmetry)
    barrier(ctx, g);
  }
}

}  // namespace kali

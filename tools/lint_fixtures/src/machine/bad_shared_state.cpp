// Fixture: Processor cost-model mutators invoked outside the sanctioned
// files (context.cpp / collectives.cpp / processor.hpp) --
// ad-hoc pokes at rank-sharded simulator state break the determinism
// contract the happens-before analyzer checks at run time.
#include "machine/processor.hpp"

namespace kali {

void poke(Processor& p) {
  p.realign_clock(0.5);    // LINT-EXPECT: shared-state
  p.bump_barrier_epoch();  // LINT-EXPECT: shared-state
  // kali-lint: allow(shared-state) — fixture: a reasoned waiver suppresses
  p.clear_link_state();
}

}  // namespace kali

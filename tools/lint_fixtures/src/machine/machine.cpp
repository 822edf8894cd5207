// Fixture: the Machine owns every Processor but is not sanctioned to touch
// their rank-sharded cost-model state -- a machine-wide pass over the
// ranks' ledgers from here would read and rewrite peers' state outside
// the message protocol.
#include "machine/processor.hpp"

namespace kali {

void prune(Processor& p) {
  p.edge_ledger().clear();  // LINT-EXPECT: shared-state
}

}  // namespace kali

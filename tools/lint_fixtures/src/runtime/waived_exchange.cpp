// Fixture: raw-exchange takes no waiver in runtime code.  The pragma is
// itself a finding, and so is the raw send it tries to cover, whether it
// sits on the line above or on the same line.
#include "machine/message.hpp"
#include "runtime/bad_tag.hpp"

namespace kali {

struct FakeCtx {
  void send_span(int peer, int tag, const int* data);
};

void neighbour_send(FakeCtx& ctx, const int* out) {
  // kali-lint: allow(raw-exchange) — a neighbour send  LINT-EXPECT: raw-exchange
  ctx.send_span(1, kTagDerived, out);  // LINT-EXPECT: raw-exchange
  ctx.send_span(2, kTagDerived, out);  // kali-lint: allow(raw-exchange) LINT-EXPECT: raw-exchange
}

}  // namespace kali

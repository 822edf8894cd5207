// Fixture: direct ctx send/recv in runtime code is flagged wherever it
// sits — a lambda named send_one/recv_one earns no exemption; dense
// exchanges go through detail::exchange_begin (machine/schedule.hpp).
#include "machine/message.hpp"
#include "runtime/bad_tag.hpp"

namespace kali {

struct FakeCtx {
  void send_span(int peer, int tag, const int* data);
  void recv_into(int peer, int tag, int* data);
};

void naive_exchange(FakeCtx& ctx, const int* out, int* in) {
  ctx.send_span(1, kTagDerived, out);  // LINT-EXPECT: raw-exchange
  ctx.recv_into(1, kTagDerived, in);   // LINT-EXPECT: raw-exchange
}

void scheduled_exchange(FakeCtx& ctx, const int* out, int* in) {
  auto send_one = [&](int peer) {
    ctx.send_span(peer, kTagDerived, out);  // LINT-EXPECT: raw-exchange
  };
  auto recv_one = [&](int peer) {
    ctx.recv_into(peer, kTagDerived, in);  // LINT-EXPECT: raw-exchange
  };
  send_one(0);
  recv_one(0);
}

}  // namespace kali

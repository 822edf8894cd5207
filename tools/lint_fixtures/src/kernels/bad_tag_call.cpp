// Fixture: integer-literal message tag at a send/recv call site in
// kernel code (second argument must be a registered kTag* constant).
#include "machine/message.hpp"

namespace kali {

struct FakeCtx {
  void send_bytes(int peer, int tag, const void* p, unsigned long n);
};

void push(FakeCtx& ctx, const void* p, unsigned long n) {
  ctx.send_bytes(0, 7, p, n);  // LINT-EXPECT: raw-tag
  ctx.send_bytes(0, kTagHalo, p, n);  // registered constant: clean
}

}  // namespace kali

// Fixture: raw host-threading primitives in machine-layer code that is
// not the fiber scheduler — each flagged, one waived.  The <condition_variable>
// include itself also trips the rule.
#include <condition_variable>  // LINT-EXPECT: raw-thread
#include <thread>  // LINT-EXPECT: raw-thread

namespace kali {

void spawn_per_rank_threads() {
  std::thread t([] {});  // LINT-EXPECT: raw-thread
  t.join();
}

thread_local int per_worker_cache = 0;  // LINT-EXPECT: raw-thread

int read_cache() {
  // Sanctioned escape hatch, reason and all:
  // kali-lint: allow(raw-thread) — harness-side watchdog, outside any rank
  static std::condition_variable watchdog_cv;
  (void)watchdog_cv;
  return per_worker_cache;
}

}  // namespace kali

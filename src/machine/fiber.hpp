// Stackful user-level execution contexts for the cooperative scheduler
// (machine/scheduler.hpp): a fixed population of fibers, each a ucontext
// with a slab-allocated stack, multiplexed onto host worker threads.
//
// This file provides mechanics only — stack allocation, context creation,
// and the annotated switch primitive (ASan fake-stack handoff and TSan
// fiber handoff, compiled in only under the matching sanitizer).  All
// scheduling policy (run queue, parking, full-stall abort)
// lives in FiberScheduler; nothing here ever feeds a simulated clock.
#pragma once

#include <ucontext.h>

#include <cstddef>

namespace kali {

// Sanitizer detection: GCC defines __SANITIZE_*__, clang uses __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define KALI_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KALI_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define KALI_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KALI_FIBER_TSAN 1
#endif
#endif

/// One anonymous mapping holding every fiber stack of a machine run.
///
/// The mapping is MAP_NORESERVE so a 64k-rank population costs virtual
/// address space only — pages materialize lazily as each fiber's program
/// actually recurses.  For small populations (<= kGuardMaxStacks) each
/// stack additionally gets a PROT_NONE guard page below it, turning an
/// overflow into a fault instead of a silent scribble over the neighbour;
/// above that limit the guards are dropped, because each one splits the
/// mapping into further VMAs and the kernel's default vm.max_map_count
/// (~65530) would be exceeded long before 64k ranks.
class FiberStackArena {
 public:
  /// Populations up to this size get per-stack guard pages.
  static constexpr int kGuardMaxStacks = 4096;

  FiberStackArena(int nstacks, std::size_t stack_bytes);
  ~FiberStackArena();
  FiberStackArena(const FiberStackArena&) = delete;
  FiberStackArena& operator=(const FiberStackArena&) = delete;

  /// Lowest address of stack i (grows downward from bottom + bytes).
  [[nodiscard]] void* stack_bottom(int i) const;
  [[nodiscard]] std::size_t stack_bytes() const { return stack_bytes_; }
  [[nodiscard]] bool guarded() const { return guarded_; }

  /// True while the canary word written at the lowest bytes of stack i is
  /// intact.  A false return means the fiber's frames reached the very
  /// bottom of its stack — an overflow the guard page would have trapped,
  /// detectable after the fact even in guardless (large-population)
  /// arenas.  The scheduler checks this every time a fiber switches out
  /// and turns a corruption into a diagnosed abort instead of a silent
  /// scribble over the neighbouring stack.
  [[nodiscard]] bool canary_ok(int i) const;

 private:
  char* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t stride_ = 0;
  std::size_t page_ = 0;
  std::size_t stack_bytes_ = 0;
  int nstacks_ = 0;
  bool guarded_ = false;
};

/// One switchable execution context: either a worker thread's native
/// context (init_host) or a suspended fiber on an arena stack
/// (init_fiber).  Plain struct-of-state; fiber_switch does the work.
class FiberContext {
 public:
  FiberContext() = default;
  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;
  ~FiberContext();

  /// Adopt the calling thread's native context (TSan: its implicit fiber).
  /// The ucontext itself is filled in by the first fiber_switch away.
  void init_host();

  /// Build a suspended context that will run entry(arg) on
  /// [stack_bottom, stack_bottom + stack_bytes) when first switched to.
  /// entry must never return — it ends in a final fiber_switch with
  /// from_dying = true.
  void init_fiber(void* stack_bottom, std::size_t stack_bytes,
                  void (*entry)(void*), void* arg);

  /// Release sanitizer bookkeeping (TSan fiber object).  Must not be
  /// called on the currently running context.
  void destroy();

  /// Stack bounds of the context we were last resumed from, captured at
  /// each resume point — the switch-back target's stack for the ASan
  /// annotations (a fiber may be resumed by a different worker each time).
  [[nodiscard]] const void* peer_bottom() const { return peer_bottom_; }
  [[nodiscard]] std::size_t peer_size() const { return peer_size_; }
  void set_asan_bounds(const void* bottom, std::size_t size) {
    asan_bottom_ = bottom;
    asan_size_ = size;
  }

  /// Trampoline body: entry annotations, then the entry function.  Only
  /// ever called once, on the fiber's own stack, by the makecontext
  /// trampoline.
  [[noreturn]] void run_from_trampoline();

 private:
  friend void fiber_switch(FiberContext& from, FiberContext& to,
                           bool from_dying);
  friend void fiber_entry_annotations(FiberContext& self);

  ucontext_t uc_{};
  void (*entry_)(void*) = nullptr;
  void* arg_ = nullptr;
  // Sanitizer bookkeeping; dormant (but harmless) in plain builds.
  const void* asan_bottom_ = nullptr;  ///< this context's own stack
  std::size_t asan_size_ = 0;
  const void* peer_bottom_ = nullptr;  ///< resumer's stack, last capture
  std::size_t peer_size_ = 0;
  void* tsan_fiber_ = nullptr;
  bool owns_tsan_fiber_ = false;
};

/// Switch from `from` (the currently running context) into `to` (a
/// suspended one).  Returns when something later switches back into
/// `from`.  With from_dying the switch is final: `from`'s sanitizer state
/// is torn down and control never returns (the caller must not touch its
/// stack again).
void fiber_switch(FiberContext& from, FiberContext& to,
                  bool from_dying = false);

/// Must be the first call of every fiber entry function: completes the
/// sanitizer switch protocol and captures the resuming worker's stack
/// bounds.  (Called by the trampoline; exposed for documentation/tests.)
void fiber_entry_annotations(FiberContext& self);

}  // namespace kali

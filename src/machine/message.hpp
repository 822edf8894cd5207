// Message representation for the virtual machine's point-to-point channels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kali {

// ---------------------------------------------------------------------------
// Reserved message-tag registry.
//
// Every layer that sends point-to-point traffic draws its tags from a
// disjoint band, so no composition of user code, runtime-generated
// communication, kernel-library pipelines, and collectives can ever match a
// foreign message:
//
//   [0,      1<<20)   user / application programs (e.g. jacobi_mp's edge
//                     exchange) — the SPMD program's own tags
//   [1<<20,  1<<22)   runtime-generated communication (halo exchange,
//                     redistribute, remap); bases below
//   [1<<22,  1<<24)   kernel library (tri_pipeline's kTagTriBase at 1<<23,
//                     baselines' carry/scatter tags)
//   [1<<24,  ...  )   collectives (collectives.hpp derives kTagReduceUp etc.
//                     from kCollectiveTagBase)
//
// New reserved tags must be registered here, not defined ad hoc inside the
// user band.
// ---------------------------------------------------------------------------

/// First tag above the user band; application code must stay below this.
inline constexpr int kRuntimeTagBase = 1 << 20;

/// First tag of the kernel-library band.
inline constexpr int kKernelTagBase = 1 << 22;

/// First tag of the collectives band (see collectives.hpp).
inline constexpr int kCollectiveTagBase = 1 << 24;

// Runtime band allocations ---------------------------------------------------

/// Halo exchange (DistArray::exchange_halo, both HaloCorners modes): all
/// direction pieces bound for one peer travel as a single message,
/// concatenated in ascending direction-code order.
inline constexpr int kTagHalo = kRuntimeTagBase;

/// redistribute() slab/bin payloads (runtime/redistribute.hpp).
inline constexpr int kTagRedistData = kRuntimeTagBase + 16;

/// copy_strided_dim() packets (runtime/remap.hpp), including the halo-fused
/// variant copy_strided_dim_halo().
inline constexpr int kTagRemap = kRuntimeTagBase + 17;

/// Inspector/executor gather (runtime/inspector.hpp): request-index lists.
inline constexpr int kTagInspReq = kRuntimeTagBase + 64;

/// Inspector/executor gather: executor value payloads.
inline constexpr int kTagInspData = kRuntimeTagBase + 65;

/// Runtime-band allocation table: X(constant, width) for every allocation
/// registered above, in ascending base order.  The single source of truth
/// for band membership — is_registered_tag and tag_name expand it, and
/// tools/check_trace.py parses these rows (together with the constant
/// definitions above) so the offline trace verifier can never drift from
/// the runtime registry.  Register new runtime tags by adding a constant
/// above AND a row here.
#define KALI_RUNTIME_TAG_ALLOCS(X) \
  X(kTagHalo, 1)                   \
  X(kTagRedistData, 1)             \
  X(kTagRemap, 1)                  \
  X(kTagInspReq, 1)                \
  X(kTagInspData, 1)

// Kernel band allocations --------------------------------------------------

/// Pipelined tridiagonal solver (kernels/tri_pipeline.hpp): per-system
/// pair/solution tags kTagTriBase + 2 * sys (+1), sys the system index.
inline constexpr int kTagTriBase = 1 << 23;

/// Baseline kernels (kernels/baselines.cpp): carry/back/scatter tags —
/// occupies [base, base + 3), at the three-quarter point of the kernel
/// band, clear of tri_pipeline's parameterized block above kTagTriBase.
inline constexpr int kTagBaselineBase = 3 << 22;

// Collectives band allocation -----------------------------------------------

/// Bounds of the collectives-band block actually allocated:
/// kTagReduceUp (base + 1) .. kTagAllGather (base + 7).  The constants
/// themselves live in collectives.hpp (a higher layer this header cannot
/// include); a static_assert there pins them inside these bounds.
inline constexpr int kCollectiveTagFirst = kCollectiveTagBase + 1;
inline constexpr int kCollectiveTagLast = kCollectiveTagBase + 7;

/// True iff `tag` lies inside a registered band allocation.  The user band
/// is free-form (application programs own it wholesale); the runtime band
/// admits only the allocations registered above; the kernel band is owned
/// by the kernel library (its allocations are parameterized, e.g. tri's
/// per-system tags, so sub-band checking lives with the owners); the
/// collectives band admits the kTagReduceUp..kTagAllGather block that
/// collectives.hpp derives from kCollectiveTagBase.  Enforced at every
/// send under the KALI_CHECK_INVARIANTS build mode.
[[nodiscard]] inline bool is_registered_tag(int tag) {
  if (tag < 0) {
    return false;
  }
  if (tag < kRuntimeTagBase) {
    return true;  // user band: application programs own it
  }
  if (tag < kKernelTagBase) {
#define KALI_TAG_IN_ALLOC(name, width)         \
  if (tag >= (name) && tag < (name) + (width)) { \
    return true;                               \
  }
    KALI_RUNTIME_TAG_ALLOCS(KALI_TAG_IN_ALLOC)
#undef KALI_TAG_IN_ALLOC
    return false;
  }
  if (tag < kCollectiveTagBase) {
    return true;  // kernel band: parameterized allocations (tri sys tags)
  }
  return tag >= kCollectiveTagFirst && tag <= kCollectiveTagLast;
}

/// Human-readable name of a tag for diagnostics (deadlock dumps, leak
/// reports): the registry constant plus an offset where the allocation is a
/// block, the band name otherwise.  Collectives names are spelled out here
/// although the constants live in collectives.hpp (a higher layer this
/// header cannot include) — keep them in sync with the
/// kTagReduceUp..kTagAllGather block.
[[nodiscard]] inline std::string tag_name(int tag) {
  const auto with_offset = [&](const char* base_name, int base) {
    std::string s = base_name;
    if (tag != base) {
      s += '+';
      s += std::to_string(tag - base);
    }
    return s;
  };
  if (tag < 0) {
    return "invalid(" + std::to_string(tag) + ")";
  }
  if (tag < kRuntimeTagBase) {
    return "user:" + std::to_string(tag);
  }
  if (tag < kKernelTagBase) {
#define KALI_TAG_NAME_ALLOC(name, width)                                 \
  if (tag >= (name) && tag < (name) + (width)) {                         \
    return (width) == 1 ? std::string(#name) : with_offset(#name, name); \
  }
    KALI_RUNTIME_TAG_ALLOCS(KALI_TAG_NAME_ALLOC)
#undef KALI_TAG_NAME_ALLOC
    return "runtime:" + std::to_string(tag - kRuntimeTagBase);
  }
  if (tag < kCollectiveTagBase) {
    if (tag >= kTagBaselineBase && tag < kTagBaselineBase + 3) {
      return with_offset("kTagBaselineBase", kTagBaselineBase);
    }
    if (tag >= kTagTriBase) {
      return with_offset("kTagTriBase", kTagTriBase);
    }
    return "kernel:" + std::to_string(tag - kKernelTagBase);
  }
  switch (tag - kCollectiveTagBase) {
    case 1: return "kTagReduceUp";
    case 2: return "kTagBcastDown";
    case 3: return "kTagGather";
    case 4: return "kTagBarrierUp";
    case 5: return "kTagBarrierDown";
    case 6: return "kTagGatherCounts";
    case 7: return "kTagAllGather";
    default: return "collective:" + std::to_string(tag - kCollectiveTagBase);
  }
}

/// A message in flight.  `send_time` is the sender's simulated clock at the
/// moment the message entered the network (post injection queueing when
/// link contention is on); the receiver uses it to advance its own clock
/// causally (recv >= send + latency + bytes * byte_time).  `seq` is the
/// sender-local message sequence number: (send_time, src, seq) is the
/// total order in which the store-and-forward model serializes messages on
/// shared interior edges — a deterministic key, unlike arrival order.  The
/// path itself is not carried: routing is dimension-ordered (topology.hpp
/// route()), so the receiver reconstructs it from (src, dst) alone.
/// `epoch` counts the sync_clocks barriers the sender had passed at send
/// time; the KALI_CHECK_INVARIANTS build rejects messages received on the
/// far side of a barrier from where they were sent (such a straddler
/// carries a pre-barrier timestamp into a freshly measured phase).
struct Message {
  int src = -1;
  int tag = 0;
  double send_time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t epoch = 0;
  std::vector<std::byte> payload;

  [[nodiscard]] std::size_t size_bytes() const { return payload.size(); }
};

}  // namespace kali

// Miniature reserved-tag registry for the lint self-test.  The real one
// lives at src/machine/message.hpp; the linter exempts this path from
// raw-tag and harvests the k* constants as the registry symbol set.
#pragma once

namespace kali {

inline constexpr int kRuntimeTagBase = 1 << 20;
inline constexpr int kTagHalo = kRuntimeTagBase;

}  // namespace kali

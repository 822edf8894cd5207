// Fixture: runtime tag constants must derive from the registry.
#pragma once

#include "machine/message.hpp"

namespace kali {

constexpr int kTagAdHoc = 1234567;  // LINT-EXPECT: raw-tag
constexpr int kTagDerived = kTagHalo + 3;  // registry-derived: clean

}  // namespace kali

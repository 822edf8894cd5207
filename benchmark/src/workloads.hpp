// The five paper workloads of the kali benchmark (see benchmark/README.md
// for why each one is in the set and which layers it stresses).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace kali::bench {

[[nodiscard]] std::vector<std::string> workload_names();

/// `smoke` shrinks every size (same checks) for a seconds-long CI pass.
/// Throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool smoke);

}  // namespace kali::bench

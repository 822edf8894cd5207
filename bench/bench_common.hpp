// Shared configuration for the benchmark harness.
//
// Every bench reports *simulated* time from the machine's cost model
// (deterministic, host-independent); wall-clock time of the simulation
// itself is irrelevant and not reported.  The default parameters model a
// 1989 hypercube-class node: 10 MFLOPS, ~100 us effective message latency,
// 2.5 MB/s links (see machine/config.hpp).
#pragma once

#include <iostream>
#include <string>

#include "machine/context.hpp"
#include "support/table.hpp"

namespace kali::bench {

inline MachineConfig config_1989() {
  return {};  // defaults are the 1989 machine
}

/// A low-latency variant (balanced machine), for sensitivity sweeps.
inline MachineConfig config_low_latency() {
  MachineConfig cfg = config_1989();
  cfg.latency = 10.0e-6;
  cfg.per_hop = 1.0e-6;
  cfg.byte_time = 0.05e-6;
  return cfg;
}

inline void header(const std::string& id, const std::string& title,
                   const std::string& artifact) {
  std::cout << "\n=== " << id << ": " << title << "\n"
            << "    reproduces: " << artifact << "\n\n";
}

}  // namespace kali::bench

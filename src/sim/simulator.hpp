// Cycle-driven simulator for the two-phase module protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/module.hpp"

namespace pdet::sim {

class VcdWriter;

class Simulator {
 public:
  /// Register a module. The simulator does not own it; the caller keeps the
  /// modules alive for the simulator's lifetime (they typically live side by
  /// side in an accelerator aggregate).
  void add(Module& module);

  /// Attach a commit hook that runs at every clock edge (used for FIFOs that
  /// are not owned by any single module).
  void add_commit_hook(std::function<void()> hook);

  /// Advance one cycle: eval() all modules, then commit() hooks and modules.
  void step();

  /// Advance n cycles.
  void run(std::uint64_t n);

  /// Advance until `done()` is true or `max_cycles` elapse; returns true if
  /// the predicate fired.
  bool run_until(const std::function<bool()>& done, std::uint64_t max_cycles);

  std::uint64_t cycle() const { return cycle_; }

  /// Optional VCD tracing; sampled after every commit.
  void set_vcd(VcdWriter* vcd) { vcd_ = vcd; }

 private:
  std::uint64_t cycle_ = 0;
  std::vector<Module*> modules_;
  std::vector<std::function<void()>> commit_hooks_;
  VcdWriter* vcd_ = nullptr;
};

}  // namespace pdet::sim

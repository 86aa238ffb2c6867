#include "src/sim/simulator.hpp"

#include "src/sim/vcd.hpp"

namespace pdet::sim {

void Simulator::add(Module& module) { modules_.push_back(&module); }

void Simulator::add_commit_hook(std::function<void()> hook) {
  commit_hooks_.push_back(std::move(hook));
}

void Simulator::step() {
  for (Module* m : modules_) m->eval();
  for (auto& hook : commit_hooks_) hook();
  for (Module* m : modules_) m->commit();
  ++cycle_;
  if (vcd_ != nullptr) vcd_->sample(cycle_);
}

void Simulator::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
}

bool Simulator::run_until(const std::function<bool()>& done,
                          std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (done()) return true;
    step();
  }
  return done();
}

}  // namespace pdet::sim

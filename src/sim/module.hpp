// Two-phase clocked module protocol.
//
// The hwsim accelerator model is built from Modules driven by a shared
// Simulator clock. Each cycle runs in two phases, mirroring synchronous RTL:
//
//   eval()   — combinational: read *current* state of FIFOs and stage
//              next-state writes (Fifo::push/pop).
//   commit() — clock edge: all staged writes latch simultaneously.
//
// Because every module sees only pre-edge FIFO state during eval(), modules
// that talk only through FIFOs may be registered in any order — the property
// that makes the cycle counts reported by hwsim trustworthy. A passive
// memory shared by two modules (hwsim's NHOGMem) is read and written at
// once, so its writer is registered before its reader.
#pragma once

#include <string>

namespace pdet::sim {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  /// Combinational phase: read current state, stage writes.
  virtual void eval() = 0;

  /// Clock edge: latch staged writes. Default no-op for pure sinks that only
  /// stage into other components' FIFOs.
  virtual void commit() {}

 private:
  std::string name_;
};

}  // namespace pdet::sim

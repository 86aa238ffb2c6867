// Unit tests for the clocked simulation kernel (src/sim).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/fifo.hpp"
#include "src/sim/module.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/vcd.hpp"

namespace pdet::sim {
namespace {

TEST(Fifo, PushVisibleOnlyAfterCommit) {
  Fifo<int> f(4);
  EXPECT_FALSE(f.can_pop());
  f.push(1);
  EXPECT_FALSE(f.can_pop());  // staged, not yet latched
  f.commit();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, PopRemovesAtCommit) {
  Fifo<int> f(4);
  f.push(1);
  f.push(2);
  f.commit();
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.size(), 2u);  // occupancy is pre-edge
  f.commit();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.front(), 2);
}

TEST(Fifo, SimultaneousPushPopSameCycle) {
  Fifo<int> f(2);
  f.push(10);
  f.commit();
  // Consumer pops the head while producer pushes — classic pipeline beat.
  EXPECT_EQ(f.pop(), 10);
  f.push(20);
  f.commit();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.front(), 20);
}

TEST(Fifo, CapacityIncludesStagedPushes) {
  Fifo<int> f(2);
  f.push(1);
  f.push(2);
  EXPECT_FALSE(f.can_push());  // both slots staged
  f.commit();
  EXPECT_FALSE(f.can_push());
  f.pop();
  f.commit();
  EXPECT_TRUE(f.can_push());
}

TEST(Fifo, MultiplePopsPerCycle) {
  Fifo<int> f(4);
  f.push(1);
  f.push(2);
  f.push(3);
  f.commit();
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
  EXPECT_FALSE(f.size() == 1u);  // pre-edge occupancy still 3
  f.commit();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.front(), 3);
}

/// Producer pushes k, k+1, ... one per cycle.
class Producer : public Module {
 public:
  explicit Producer(Fifo<int>& out) : Module("producer"), out_(out) {}
  void eval() override {
    if (out_.can_push()) out_.push(next_++);
  }

 private:
  Fifo<int>& out_;
  int next_ = 0;
};

/// Consumer accumulates everything it pops.
class Consumer : public Module {
 public:
  explicit Consumer(Fifo<int>& in) : Module("consumer"), in_(in) {}
  void eval() override {
    if (in_.can_pop()) values_.push_back(in_.pop());
  }
  const std::vector<int>& values() const { return values_; }

 private:
  Fifo<int>& in_;
  std::vector<int> values_;
};

TEST(Simulator, ProducerConsumerInOrder) {
  Simulator simulator;
  Fifo<int> f(2);
  simulator.add_commit_hook([&] { f.commit(); });
  Producer p(f);
  Consumer c(f);
  simulator.add(p);
  simulator.add(c);
  simulator.run(10);
  ASSERT_GE(c.values().size(), 5u);
  for (std::size_t i = 0; i < c.values().size(); ++i) {
    EXPECT_EQ(c.values()[i], static_cast<int>(i));
  }
}

TEST(Simulator, ModuleOrderDoesNotChangeBehaviour) {
  // Two-phase semantics: registering consumer before producer must yield the
  // identical token stream.
  auto run_with_order = [](bool producer_first) {
    Simulator simulator;
    Fifo<int> f(2);
    simulator.add_commit_hook([&] { f.commit(); });
    Producer p(f);
    Consumer c(f);
    if (producer_first) {
      simulator.add(p);
      simulator.add(c);
    } else {
      simulator.add(c);
      simulator.add(p);
    }
    simulator.run(20);
    return c.values();
  };
  EXPECT_EQ(run_with_order(true), run_with_order(false));
}

TEST(Simulator, CycleCount) {
  Simulator simulator;
  simulator.run(125);
  EXPECT_EQ(simulator.cycle(), 125u);
}

TEST(Simulator, RunUntilPredicate) {
  Simulator simulator;
  Fifo<int> f(2);
  simulator.add_commit_hook([&] { f.commit(); });
  Producer p(f);
  Consumer c(f);
  simulator.add(p);
  simulator.add(c);
  const bool ok =
      simulator.run_until([&] { return c.values().size() >= 5; }, 1000);
  EXPECT_TRUE(ok);
  EXPECT_GE(c.values().size(), 5u);
}

TEST(Simulator, RunUntilTimesOut) {
  Simulator simulator;
  const bool ok = simulator.run_until([] { return false; }, 50);
  EXPECT_FALSE(ok);
  EXPECT_EQ(simulator.cycle(), 50u);
}

TEST(Vcd, EmitsHeaderAndChanges) {
  VcdWriter vcd;
  std::uint64_t value = 0;
  vcd.add_signal("counter", 8, [&] { return value; });
  vcd.sample(0);
  value = 3;
  vcd.sample(1);
  value = 3;  // unchanged: no new change record
  vcd.sample(2);
  const std::string text = vcd.render();
  EXPECT_NE(text.find("$var wire 8"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("b00000011"), std::string::npos);
  // Exactly two timestamps (cycle 0 initial, cycle 1 change).
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("#1"), std::string::npos);
  EXPECT_EQ(text.find("#2"), std::string::npos);
}

TEST(Vcd, SingleBitUsesScalarFormat) {
  VcdWriter vcd;
  std::uint64_t bit = 1;
  vcd.add_signal("flag", 1, [&] { return bit; });
  vcd.sample(0);
  const std::string text = vcd.render();
  EXPECT_NE(text.find("1!"), std::string::npos);
}

TEST(Vcd, WritesFile) {
  VcdWriter vcd;
  std::uint64_t v = 7;
  vcd.add_signal("x", 4, [&] { return v; });
  vcd.sample(0);
  const std::string path = testing::TempDir() + "/pdet_trace.vcd";
  EXPECT_TRUE(vcd.write(path));
}

TEST(Vcd, AttachedToSimulatorSamplesEveryCycle) {
  Simulator simulator;
  Fifo<int> f(2);
  simulator.add_commit_hook([&] { f.commit(); });
  Producer p(f);
  Consumer c(f);
  simulator.add(p);
  simulator.add(c);
  VcdWriter vcd;
  vcd.add_signal("fifo_size", 8, [&] { return f.size(); });
  simulator.set_vcd(&vcd);
  simulator.run(5);
  EXPECT_NE(vcd.render().find("fifo_size"), std::string::npos);
}

}  // namespace
}  // namespace pdet::sim

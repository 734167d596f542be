// Allocation guards for the streaming predict path and the gate-level
// surrogate. Once the reader's first chunk has been buffered, parsing a
// row in place, evaluating its proposition, stepping the PSM — on every
// path: dwelling, exits, violations, backtracking, resynchronization —
// and folding the row into the quality monitor's window must not touch
// the heap; nor may one clock cycle of the power surrogate. This
// executable replaces the global allocation functions with counting
// wrappers around malloc/free, so any allocation that creeps back into
// the per-row path fails these tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <sstream>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/quality_monitor.hpp"
#include "runtime/streaming_reader.hpp"
#include "trace/trace_io.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* countedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* countedAllocOrThrow(std::size_t size) {
  void* p = countedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* countedAlignedAllocOrThrow(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return countedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return countedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAllocOrThrow(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAllocOrThrow(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace psmgen {
namespace ip {
// Names IpKind test parameters in gtest output.
void PrintTo(IpKind kind, std::ostream* os) { *os << ipName(kind); }
}  // namespace ip

namespace {

using common::BitVector;

/// Counts the heap allocations made between construction and count().
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { g_counting.store(false, std::memory_order_relaxed); }
  std::size_t count() const {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocations.load(std::memory_order_relaxed);
  }
};

TEST(AllocFree, CounterSeesAnAllocation) {
  AllocationCounter counter;
  // A direct call: unlike a new-expression it cannot be elided.
  void* p = ::operator new(16);
  const std::size_t n = counter.count();
  ::operator delete(p);
  EXPECT_EQ(n, 1u);
}

TEST(AllocFree, ReaderAndFindRowOverRamTrace) {
  // A RAM model and a held-out trace, as the predict path sees them.
  auto device = ip::makeDevice(ip::IpKind::Ram);
  power::GateLevelEstimator est(*device, ip::powerConfig(ip::IpKind::Ram));
  core::CharacterizationFlow flow;
  for (const auto& spec : ip::shortTSPlan(ip::IpKind::Ram)) {
    auto tb =
        ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, 2500);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();
  auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 0xBEEF);
  const trace::FunctionalTrace eval = est.run(*tb, 6000).functional;
  std::ostringstream os;
  trace::writeFunctionalTrace(os, eval);

  constexpr std::size_t kChunk = 256;
  std::istringstream is(os.str());
  runtime::StreamingTraceReader reader(is, {kChunk});
  const core::PropositionDomain& domain = flow.domain();
  std::vector<BitVector> row;
  std::size_t found = 0;
  std::size_t rows = 0;
  // The first chunk sizes the line buffers and the row.
  for (; rows < kChunk && reader.next(row); ++rows) {
    found += domain.findRow(row) != core::kNoProp ? 1 : 0;
  }
  std::size_t allocations = 0;
  {
    AllocationCounter counter;
    while (reader.next(row)) {
      found += domain.findRow(row) != core::kNoProp ? 1 : 0;
      ++rows;
    }
    allocations = counter.count();
  }
  EXPECT_EQ(rows, eval.length());
  EXPECT_GT(reader.refills(), eval.length() / kChunk);
  EXPECT_GT(found, 0u);
  EXPECT_EQ(allocations, 0u);
}

trace::FunctionalTrace modeTrace(
    const std::vector<std::pair<unsigned, std::size_t>>& runs) {
  trace::VariableSet vars;
  vars.add("m", 2, trace::VarKind::Input);
  trace::FunctionalTrace t(vars);
  for (const auto& [mode, len] : runs) {
    for (std::size_t i = 0; i < len; ++i) t.append({BitVector(2, mode)});
  }
  return t;
}

/// A two-mode PSM whose busy state is an until state the predictor can
/// dwell in indefinitely.
std::unique_ptr<core::CharacterizationFlow> modeFlow() {
  const auto train = modeTrace({{0, 10}, {1, 6}, {0, 10}, {1, 6}, {0, 4}});
  trace::PowerTrace power;
  for (std::size_t i = 0; i < train.length(); ++i) {
    power.append(train.value(i, 0).toUint64() == 0 ? 1.0 : 2.0);
  }
  core::FlowConfig cfg;
  cfg.miner.max_toggle_rate = 1.0;
  cfg.miner.max_singleton_run_fraction = 1.0;
  auto flow = std::make_unique<core::CharacterizationFlow>(cfg);
  flow->addTrainingTrace(train, power);
  flow->build();
  return flow;
}

TEST(AllocFree, PredictRowWhileDwellingInAnUntilState) {
  const auto flow = modeFlow();
  runtime::OnlinePredictor predictor(flow->psm(), flow->domain());
  const std::vector<BitVector> idle = {BitVector(2, 0)};
  const std::vector<BitVector> busy = {BitVector(2, 1)};
  // Enter the busy state and take its first dwell step unguarded.
  predictor.predictRow(idle);
  predictor.predictRow(busy);
  predictor.predictRow(busy);
  ASSERT_FALSE(predictor.isLost());
  const core::StateId dwelling = predictor.currentState();

  double sum = 0.0;
  std::size_t allocations = 0;
  {
    AllocationCounter counter;
    for (int i = 0; i < 1000; ++i) sum += predictor.predictRow(busy);
    allocations = counter.count();
  }
  EXPECT_EQ(predictor.currentState(), dwelling);
  EXPECT_FALSE(predictor.isLost());
  EXPECT_DOUBLE_EQ(sum, 2000.0);
  EXPECT_EQ(allocations, 0u);
}

/// The quality monitor's sliding window and occupancy gauges add no
/// allocation to a dwelling row, with the metrics registry recording.
TEST(AllocFree, QualityMonitorPredictRowWhileDwelling) {
  obs::metrics().setEnabled(true);
  const auto flow = modeFlow();
  runtime::OnlinePredictor predictor(flow->psm(), flow->domain());
  runtime::QualityMonitor monitor(predictor, flow->psm());
  const std::vector<BitVector> idle = {BitVector(2, 0)};
  const std::vector<BitVector> busy = {BitVector(2, 1)};
  monitor.predictRow(idle);
  monitor.predictRow(busy);
  monitor.predictRow(busy);
  ASSERT_FALSE(predictor.isLost());
  const core::StateId dwelling = predictor.currentState();

  double sum = 0.0;
  std::size_t allocations = 0;
  {
    AllocationCounter counter;
    for (int i = 0; i < 10000; ++i) sum += monitor.predictRow(busy);
    allocations = counter.count();
  }
  EXPECT_EQ(predictor.currentState(), dwelling);
  EXPECT_EQ(monitor.status(), runtime::DriftStatus::Ok);
  EXPECT_EQ(monitor.window().rows, monitor.config().window_rows);
  EXPECT_DOUBLE_EQ(sum, 20000.0);
  EXPECT_EQ(allocations, 0u);
  obs::metrics().setEnabled(false);
}

/// A full predictRow pass over a held-out trace, and over a copy of it
/// with one bit flipped in 1% of the rows, makes no heap allocation once
/// one warm-up pass over each has run. The flipped rows drive the cold
/// paths of the step: violations, checkpoint backtracking, re-routing and
/// recognition while lost. The logger runs at error level, as `psmgen
/// serve --quiet` does: a rate-limited resync warn line formats a string,
/// and whether one falls inside a counted pass depends on wall time.
class PredictRowPass : public ::testing::TestWithParam<ip::IpKind> {};

TEST_P(PredictRowPass, MakesNoAllocation) {
  const ip::IpKind kind = GetParam();
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(kind));
  core::CharacterizationFlow flow;
  for (const auto& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, 4000);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();
  auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0xA110C);
  const trace::FunctionalTrace eval = est.run(*tb, 10000).functional;
  trace::FunctionalTrace perturbed(eval.variables());
  common::Rng rng(0xF11B);
  for (std::size_t t = 0; t < eval.length(); ++t) {
    std::vector<BitVector> row = eval.step(t);
    if (rng.chance(0.01)) {
      BitVector& v = row[rng.uniform(row.size())];
      const auto bit = static_cast<unsigned>(rng.uniform(v.width()));
      v.setBit(bit, !v.bit(bit));
    }
    perturbed.append(std::move(row));
  }

  const obs::LogLevel level = obs::logger().level();
  obs::logger().setLevel(obs::LogLevel::Error);
  runtime::OnlinePredictor predictor(flow.psm(), flow.domain());
  double sum = 0.0;
  const auto pass = [&](const trace::FunctionalTrace& t) {
    for (std::size_t i = 0; i < t.length(); ++i) {
      sum += predictor.predictRow(t.step(i));
    }
  };
  pass(eval);
  pass(perturbed);
  std::size_t held_out_allocations = 0;
  {
    AllocationCounter counter;
    pass(eval);
    held_out_allocations = counter.count();
  }
  const runtime::PredictorStats before = predictor.stats();
  std::size_t perturbed_allocations = 0;
  {
    AllocationCounter counter;
    pass(perturbed);
    perturbed_allocations = counter.count();
  }
  obs::logger().setLevel(level);
  const runtime::PredictorStats& after = predictor.stats();
  EXPECT_GT(sum, 0.0);
  EXPECT_GT(after.unexpected_behaviours, before.unexpected_behaviours);
  EXPECT_GT(after.resyncs, before.resyncs);
  EXPECT_EQ(held_out_allocations, 0u);
  EXPECT_EQ(perturbed_allocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllIps, PredictRowPass,
                         ::testing::ValuesIn(ip::kAllIps),
                         [](const ::testing::TestParamInfo<ip::IpKind>& param) {
                           return ip::ipName(param.param);
                         });

/// One gate-level surrogate cycle — Device::tick, the activity tracker's
/// snapshot and diff, and the estimator's per-cycle power — makes no heap
/// allocation once a warm-up cycle has sized the port and snapshot
/// buffers. The stimulus is generated up front: testbenches build a fresh
/// input vector per cycle, which is not part of the surrogate.
class SurrogateCycle : public ::testing::TestWithParam<ip::IpKind> {};

TEST_P(SurrogateCycle, MakesNoAllocation) {
  const ip::IpKind kind = GetParam();
  constexpr std::size_t kCycles = 4000;
  auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0xA110C);
  std::vector<rtl::PortValues> inputs;
  inputs.reserve(kCycles);
  for (std::size_t c = 0; c < kCycles; ++c) inputs.push_back(tb->next(c));

  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(kind));
  power::SwitchingActivityTracker tracker(*device);
  device->reset();
  rtl::PortValues out;
  double energy = 0.0;
  device->tick(inputs[0], out);
  energy += est.cyclePower(tracker.sample(inputs[0], out));

  std::size_t allocations = 0;
  {
    AllocationCounter counter;
    for (std::size_t c = 1; c < kCycles; ++c) {
      device->tick(inputs[c], out);
      const power::ActivitySample& s = tracker.sample(inputs[c], out);
      energy += est.cyclePower(s);
    }
    allocations = counter.count();
  }
  EXPECT_GT(energy, 0.0);
  EXPECT_EQ(allocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllIps, SurrogateCycle,
                         ::testing::ValuesIn(ip::kAllIps),
                         [](const ::testing::TestParamInfo<ip::IpKind>& param) {
                           return ip::ipName(param.param);
                         });

}  // namespace
}  // namespace psmgen

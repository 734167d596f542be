// Allocation guard for the streaming predict path: once the reader's
// first chunk has been buffered, parsing a row in place, evaluating its
// proposition and stepping the PSM must not touch the heap. This
// executable replaces the global allocation functions with counting
// wrappers around malloc/free, so any allocation that creeps back into
// the per-row path fails these tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
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

TEST(AllocFree, PredictRowWhileDwellingInAnUntilState) {
  const auto train = modeTrace({{0, 10}, {1, 6}, {0, 10}, {1, 6}, {0, 4}});
  trace::PowerTrace power;
  for (std::size_t i = 0; i < train.length(); ++i) {
    power.append(train.value(i, 0).toUint64() == 0 ? 1.0 : 2.0);
  }
  core::FlowConfig cfg;
  cfg.miner.max_toggle_rate = 1.0;
  cfg.miner.max_singleton_run_fraction = 1.0;
  core::CharacterizationFlow flow(cfg);
  flow.addTrainingTrace(train, power);
  flow.build();

  runtime::OnlinePredictor predictor(flow.psm(), flow.domain());
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

}  // namespace
}  // namespace psmgen

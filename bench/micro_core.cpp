// Microbenchmarks (google-benchmark) of the core algorithmic kernels:
// atomic-proposition evaluation, signature interning, XU-automaton
// mining, PSM-simulator stepping, Welch's t-test, HMM filtering,
// BitVector Hamming distance and CSV trace reading. These track the
// per-cycle costs behind the Table II/III timing columns and the per-row
// ingest cost of `psmgen predict`.

#include <benchmark/benchmark.h>

#include <istream>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "core/generator.hpp"
#include "core/xu_automaton.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/streaming_reader.hpp"
#include "stats/ttest.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace psmgen;

/// A flow trained on the IP's short testset plan plus a held-out
/// long-testbench trace, built once per IP and shared across benchmarks.
struct IpFixture {
  core::CharacterizationFlow flow;
  trace::FunctionalTrace eval;

  explicit IpFixture(ip::IpKind kind) {
    auto device = ip::makeDevice(kind);
    power::GateLevelEstimator est(*device, ip::powerConfig(kind));
    for (const auto& spec : ip::shortTSPlan(kind)) {
      auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
      auto pair = est.run(*tb, spec.cycles);
      flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
    }
    flow.build();
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 99);
    eval = est.run(*tb, 4096).functional;
  }
};

IpFixture& fixture(ip::IpKind kind = ip::IpKind::Ram) {
  static std::map<ip::IpKind, std::unique_ptr<IpFixture>> cache;
  auto& slot = cache[kind];
  if (!slot) slot = std::make_unique<IpFixture>(kind);
  return *slot;
}

void BM_HammingDistance128(benchmark::State& state) {
  common::Rng rng(7);
  const common::BitVector a = rng.bits(128);
  const common::BitVector b = rng.bits(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::BitVector::hammingDistance(a, b));
  }
}
BENCHMARK(BM_HammingDistance128);

void BM_PropositionMatch(benchmark::State& state) {
  IpFixture& f = fixture();
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.flow.domain().findRow(f.eval.step(t)));
    t = (t + 1) % f.eval.length();
  }
}
BENCHMARK(BM_PropositionMatch);

void BM_XuAutomatonMining(benchmark::State& state) {
  IpFixture& f = fixture();
  core::PropositionDomain domain = f.flow.domain();
  const core::PropositionTrace gamma =
      core::AssertionMiner::tracePropositions(domain, f.eval);
  for (auto _ : state) {
    core::XuAutomaton xu(gamma);
    std::size_t count = 0;
    while (xu.next()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gamma.length()));
}
BENCHMARK(BM_XuAutomatonMining);

void BM_PsmSimulatorStep(benchmark::State& state, ip::IpKind kind) {
  IpFixture& f = fixture(kind);
  auto session = f.flow.simulator().startSession();
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.step(f.eval.step(t)));
    t = (t + 1) % f.eval.length();
  }
}
BENCHMARK_CAPTURE(BM_PsmSimulatorStep, RAM, ip::IpKind::Ram);
BENCHMARK_CAPTURE(BM_PsmSimulatorStep, MultSum, ip::IpKind::MultSum);
BENCHMARK_CAPTURE(BM_PsmSimulatorStep, AES, ip::IpKind::Aes);
BENCHMARK_CAPTURE(BM_PsmSimulatorStep, Camellia, ip::IpKind::Camellia);

void BM_GateLevelCycle(benchmark::State& state, ip::IpKind kind) {
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(kind));
  auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 5);
  for (auto _ : state) {
    state.PauseTiming();
    tb->restart();
    state.ResumeTiming();
    benchmark::DoNotOptimize(est.runPowerOnly(*tb, 256));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK_CAPTURE(BM_GateLevelCycle, RAM, ip::IpKind::Ram);
BENCHMARK_CAPTURE(BM_GateLevelCycle, MultSum, ip::IpKind::MultSum);
BENCHMARK_CAPTURE(BM_GateLevelCycle, AES, ip::IpKind::Aes);
BENCHMARK_CAPTURE(BM_GateLevelCycle, Camellia, ip::IpKind::Camellia);

void BM_WelchTTest(benchmark::State& state) {
  const stats::Summary a{1.00, 0.05, 4096};
  const stats::Summary b{1.01, 0.06, 2048};
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::welchTTest(a, b));
  }
}
BENCHMARK(BM_WelchTTest);

/// The forward-filtering step on the AES model, whose state count makes
/// the cost of the recurrence visible (RAM's model has three states).
void BM_HmmFilterStep(benchmark::State& state) {
  IpFixture& f = fixture(ip::IpKind::Aes);
  const core::Hmm& hmm = f.flow.simulator().hmm();
  core::Hmm::Filter filter(hmm);
  core::EventId e = 0;
  for (auto _ : state) {
    filter.step(e);
    e = static_cast<core::EventId>((e + 1) % hmm.eventCount());
    benchmark::DoNotOptimize(filter.belief());
  }
  state.counters["states"] = static_cast<double>(hmm.stateCount());
}
BENCHMARK(BM_HmmFilterStep);

/// A held-out 60,000-row long-testbench trace of the IP as CSV text,
/// written once per IP.
const std::string& longCsv(ip::IpKind kind) {
  static std::map<ip::IpKind, std::string> cache;
  std::string& csv = cache[kind];
  if (csv.empty()) {
    auto device = ip::makeDevice(kind);
    power::GateLevelEstimator est(*device, ip::powerConfig(kind));
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 99);
    std::ostringstream os;
    trace::writeFunctionalTrace(os, est.run(*tb, 60000).functional);
    csv = os.str();
  }
  return csv;
}

/// Reads a string in place, so the benchmark times the reader, not a copy.
struct StringBuf : std::streambuf {
  explicit StringBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

/// StreamingTraceReader over an in-memory CSV at the default chunk and
/// block: line splitting, the row parser and the hex decoder, per row.
void BM_StreamingReader(benchmark::State& state, ip::IpKind kind) {
  const std::string& csv = longCsv(kind);
  std::vector<common::BitVector> row;
  std::size_t rows = 0;
  for (auto _ : state) {
    StringBuf buf(csv);
    std::istream is(&buf);
    runtime::StreamingTraceReader reader(is);
    while (reader.next(row)) ++rows;
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  // Seconds per row (printed with an SI prefix, e.g. "120ns").
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_StreamingReader, RAM, ip::IpKind::Ram);
BENCHMARK_CAPTURE(BM_StreamingReader, MultSum, ip::IpKind::MultSum);
BENCHMARK_CAPTURE(BM_StreamingReader, AES, ip::IpKind::Aes);
BENCHMARK_CAPTURE(BM_StreamingReader, Camellia, ip::IpKind::Camellia);

}  // namespace

BENCHMARK_MAIN();

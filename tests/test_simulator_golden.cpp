// Behaviour pin for the PSM simulator: per IP, a fixed-seed model is
// replayed over a held-out long-testbench trace under every SimOptions
// combination (use_hmm x generalize_exits), and again over a perturbed
// copy of that trace — one random bit flipped in 1% of its rows — that
// drives the cold paths: assertion violations, checkpoint backtracking
// and resynchronization. Each run must reproduce the recorded FNV-1a
// digest of the f64 bits of its estimates and its four prediction
// counters. Any reorganisation of the HMM tables or of the
// session's step must leave every digest and counter unchanged.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "core/flow.hpp"
#include "common/rng.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"

namespace psmgen {
namespace {

constexpr std::size_t kTrainCycles = 4000;
constexpr std::size_t kEvalCycles = 10000;
constexpr std::uint64_t kEvalSeed = 0x60D5EED;

std::uint64_t estimateDigest(const std::vector<double>& estimate) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double w : estimate) {
    const auto x = std::bit_cast<std::uint64_t>(w);
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Pin {
  std::uint64_t digest;
  std::size_t predictions;
  std::size_t wrong;
  std::size_t unexpected;
  std::size_t lost;
};

std::string describe(const Pin& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{0x%016llxull, %zu, %zu, %zu, %zu}",
                static_cast<unsigned long long>(p.digest), p.predictions,
                p.wrong, p.unexpected, p.lost);
  return buf;
}

Pin pinOf(const core::SimResult& r) {
  return {estimateDigest(r.estimate), r.predictions, r.wrong_predictions,
          r.unexpected_behaviours, r.lost_instants};
}

/// A model trained on the IP's short testset plan, its held-out trace and
/// a copy of that trace with one random bit flipped in 1% of the rows.
struct IpCase {
  core::CharacterizationFlow flow;
  trace::FunctionalTrace eval;
  trace::FunctionalTrace perturbed;
};

std::unique_ptr<IpCase> buildCase(ip::IpKind kind) {
  auto out = std::make_unique<IpCase>();
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(kind));
  for (const auto& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, kTrainCycles);
    out->flow.addTrainingTrace(std::move(pair.functional),
                               std::move(pair.power));
  }
  out->flow.build();
  auto eval_tb = ip::makeTestbench(kind, ip::TestsetMode::Long, kEvalSeed);
  out->eval = est.run(*eval_tb, kEvalCycles).functional;

  common::Rng rng(kEvalSeed);
  out->perturbed = trace::FunctionalTrace(out->eval.variables());
  for (std::size_t t = 0; t < out->eval.length(); ++t) {
    std::vector<common::BitVector> row = out->eval.step(t);
    if (rng.chance(0.01)) {
      common::BitVector& v = row[rng.uniform(row.size())];
      const auto bit = static_cast<unsigned>(rng.uniform(v.width()));
      v.setBit(bit, !v.bit(bit));
    }
    out->perturbed.append(std::move(row));
  }
  return out;
}

const IpCase& ipCase(ip::IpKind kind) {
  static std::map<ip::IpKind, std::unique_ptr<IpCase>> cache;
  auto& slot = cache[kind];
  if (!slot) slot = buildCase(kind);
  return *slot;
}

/// SimOptions {use_hmm, generalize_exits} of each pinned run.
constexpr core::SimOptions kOptions[4] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

struct Golden {
  ip::IpKind kind;
  /// One pin per kOptions entry.
  Pin held_out[4];
  Pin perturbed[4];
};

void PrintTo(const Golden& g, std::ostream* os) { *os << ip::ipName(g.kind); }

// Recorded before the HMM and successor tables were compiled into flat
// arrays.
constexpr Golden kGolden[] = {
    {ip::IpKind::Ram,
     {{0x2804f87fb6e1ac4cull, 0, 0, 663, 0},
      {0x2804f87fb6e1ac4cull, 0, 0, 668, 0},
      {0x2804f87fb6e1ac4cull, 0, 0, 663, 0},
      {0x2804f87fb6e1ac4cull, 0, 0, 668, 0}},
     {{0x9042e80c41caab2dull, 0, 0, 734, 69},
      {0x4e280675829e38fdull, 0, 0, 739, 69},
      {0x4b42f3cbff2934edull, 0, 0, 727, 69},
      {0x6e47ba42275b6d9dull, 0, 0, 732, 69}}},
    {ip::IpKind::MultSum,
     {{0xe7b10dbdba80877aull, 0, 0, 24, 0},
      {0xe7b10dbdba80877aull, 0, 0, 24, 0},
      {0xe7b10dbdba80877aull, 0, 0, 24, 0},
      {0xe7b10dbdba80877aull, 0, 0, 24, 0}},
     {{0x9eb0f7810745e153ull, 0, 0, 37, 12},
      {0x9eb0f7810745e153ull, 0, 0, 37, 12},
      {0xc4f9823805b7473full, 0, 0, 38, 12},
      {0xc4f9823805b7473full, 0, 0, 38, 12}}},
    {ip::IpKind::Aes,
     {{0x6d9bddf24faa387aull, 0, 0, 0, 0},
      {0x6d9bddf24faa387aull, 0, 0, 0, 0},
      {0x6d9bddf24faa387aull, 0, 0, 0, 0},
      {0x6d9bddf24faa387aull, 0, 0, 0, 0}},
     {{0x5b4224beeca113e1ull, 0, 0, 50, 1},
      {0x5b4224beeca113e1ull, 0, 0, 53, 1},
      {0xdd5a227e13d77ee0ull, 0, 0, 49, 1},
      {0xdd5a227e13d77ee0ull, 0, 0, 52, 1}}},
    {ip::IpKind::Camellia,
     {{0xf3c17c7910809e83ull, 0, 0, 42, 23},
      {0xf3c17c7910809e83ull, 0, 0, 52, 23},
      {0xf3c17c7910809e83ull, 0, 0, 42, 23},
      {0xf3c17c7910809e83ull, 0, 0, 52, 23}},
     {{0x2f997438b0b8936full, 0, 0, 132, 30},
      {0x2f997438b0b8936full, 0, 0, 145, 30},
      {0xf978064bcc066367ull, 0, 0, 132, 30},
      {0xf978064bcc066367ull, 0, 0, 145, 30}}},
};

void expectPins(const IpCase& c, const trace::FunctionalTrace& trace,
                const Pin (&pins)[4]) {
  for (int k = 0; k < 4; ++k) {
    const core::PsmSimulator sim(c.flow.psm(), c.flow.domain(), kOptions[k]);
    const core::SimResult r = sim.simulate(trace);
    ASSERT_EQ(r.estimate.size(), kEvalCycles);
    EXPECT_EQ(describe(pinOf(r)), describe(pins[k]))
        << "use_hmm=" << kOptions[k].use_hmm
        << " generalize_exits=" << kOptions[k].generalize_exits;
  }
}

class SimulatorGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(SimulatorGolden, HeldOutReplayIsBitIdentical) {
  const Golden& g = GetParam();
  const IpCase& c = ipCase(g.kind);
  expectPins(c, c.eval, g.held_out);
}

TEST_P(SimulatorGolden, PerturbedStreamIsBitIdentical) {
  const Golden& g = GetParam();
  const IpCase& c = ipCase(g.kind);
  expectPins(c, c.perturbed, g.perturbed);
  // The stream must reach the cold paths it exists to pin: violations
  // (handled by backtracking or re-routing) and recoveries from a
  // desynchronized stretch.
  runtime::OnlinePredictor predictor(c.flow.psm(), c.flow.domain());
  predictor.predictTrace(c.perturbed);
  EXPECT_GT(predictor.stats().unexpected_behaviours, 0u);
  EXPECT_GT(predictor.stats().lost_instants, 0u);
  EXPECT_GT(predictor.stats().resyncs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIps, SimulatorGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& param) {
      return ip::ipName(param.param.kind);
    });

}  // namespace
}  // namespace psmgen

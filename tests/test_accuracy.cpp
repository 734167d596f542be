// Held-out prediction-accuracy regression tests (ROADMAP
// "prediction-accuracy offensive"): train each benchmark IP on its short
// testset plan at reduced scale and replay an unseen long-testbench
// trace, pinning the prediction counters the accuracy rows of the CI bench gate
// track (scripts/bench_gate.py). The four mined PSMs are
// transition-deterministic — every (state, enabling proposition) pair has
// exactly one successor — so a held-out replay resolves no
// non-deterministic choice and a correct session reports zero wrong
// predictions. Before the forward-filtering/resync fixes, failed resync
// guesses were booked as wrong predictions (RAM "WSP" ~95%, Camellia
// 100%); these tests keep that pathology dead.

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"

namespace psmgen {
namespace {

struct AccuracyRun {
  core::SimResult unseen;
  std::size_t rows = 0;
  double unseen_mre = 0.0;
};

AccuracyRun runIp(ip::IpKind kind, std::size_t per_trace_cycles,
                  std::size_t eval_cycles) {
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(kind));
  core::CharacterizationFlow flow;
  for (const auto& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    auto pair = est.run(*tb, per_trace_cycles);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  flow.build();
  // The PSMs mined from the benchmark IPs must be transition-deterministic
  // (the premise of the WSP = 0 expectation below).
  for (const auto& s : flow.psm().states()) {
    std::vector<std::pair<core::PropId, core::StateId>> seen;
    for (const auto& t : flow.psm().transitions()) {
      if (t.from != s.id) continue;
      for (const auto& [enabling, to] : seen) {
        EXPECT_FALSE(enabling == t.enabling && to != t.to)
            << "non-deterministic successor at state " << s.id;
      }
      seen.emplace_back(t.enabling, t.to);
    }
  }
  auto eval_tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0x1E57);
  auto pair = est.run(*eval_tb, eval_cycles);
  AccuracyRun out;
  out.rows = pair.functional.length();
  out.unseen = flow.estimate(pair.functional);
  out.unseen_mre =
      trace::meanRelativeError(out.unseen.estimate, pair.power.samples());
  return out;
}

/// Shared ceiling checks; `max_lost_permille` bounds lost rows per 1000.
void expectAccuracy(const AccuracyRun& r, std::size_t max_lost_permille,
                    double max_mre) {
  // Structural invariant: wrong predictions are a subset of predictions.
  EXPECT_LE(r.unseen.wrong_predictions, r.unseen.predictions);
  // Deterministic PSMs resolve no choices on replay: zero wrong
  // predictions and WSP = 0 (the bench gate's committed value).
  EXPECT_EQ(r.unseen.wrong_predictions, 0u);
  EXPECT_DOUBLE_EQ(r.unseen.wspPercent(), 0.0);
  EXPECT_LE(r.unseen.lost_instants * 1000, max_lost_permille * r.rows);
  EXPECT_LT(r.unseen_mre, max_mre);
}

TEST(Accuracy, RamHeldOut) {
  expectAccuracy(runIp(ip::IpKind::Ram, 4000, 10000),
                 /*max_lost_permille=*/20, /*max_mre=*/0.12);
}

TEST(Accuracy, MultSumHeldOut) {
  expectAccuracy(runIp(ip::IpKind::MultSum, 3000, 10000),
                 /*max_lost_permille=*/20, /*max_mre=*/0.15);
}

TEST(Accuracy, AesHeldOut) {
  expectAccuracy(runIp(ip::IpKind::Aes, 4000, 10000),
                 /*max_lost_permille=*/20, /*max_mre=*/0.10);
}

TEST(Accuracy, CamelliaHeldOut) {
  expectAccuracy(runIp(ip::IpKind::Camellia, 6000, 10000),
                 /*max_lost_permille=*/60, /*max_mre=*/0.60);
}

}  // namespace
}  // namespace psmgen

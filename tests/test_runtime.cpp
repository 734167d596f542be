// Tests for the streaming prediction runtime (runtime/): bounded-memory
// trace iteration, exact equivalence of the online predictor with the
// fused PsmSimulator::simulate path, and the per-stream counters.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/trace_io.hpp"

namespace psmgen {
namespace {

using common::BitVector;

trace::FunctionalTrace randomTrace(std::size_t rows, std::uint64_t seed) {
  trace::VariableSet vars;
  vars.add("a", 3, trace::VarKind::Input);
  vars.add("b", 9, trace::VarKind::Output);
  trace::FunctionalTrace t(vars);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    t.append({BitVector(3, rng() & 0x7), BitVector(9, rng() & 0x1FF)});
  }
  return t;
}

std::string toCsv(const trace::FunctionalTrace& t) {
  std::ostringstream os;
  trace::writeFunctionalTrace(os, t);
  return os.str();
}

TEST(StreamingReader, MatchesBatchLoader) {
  const trace::FunctionalTrace t = randomTrace(10, 1);
  std::istringstream is(toCsv(t));
  runtime::StreamingTraceReader reader(is, {4});
  EXPECT_EQ(reader.variables(), t.variables());
  std::vector<BitVector> row;
  std::size_t i = 0;
  while (reader.next(row)) {
    ASSERT_LT(i, t.length());
    EXPECT_EQ(row, t.step(i));
    ++i;
  }
  EXPECT_EQ(i, t.length());
  EXPECT_EQ(reader.rowsDelivered(), t.length());
  EXPECT_EQ(reader.refills(), 3u);  // ceil(10 / 4)
  EXPECT_FALSE(reader.next(row));   // stays exhausted
}

TEST(StreamingReader, MemoryBoundedByChunkOnLargeTrace) {
  const std::size_t kRows = 5000;
  const std::size_t kChunk = 256;
  std::istringstream is(toCsv(randomTrace(kRows, 2)));
  runtime::StreamingTraceReader reader(is, {kChunk});
  std::vector<BitVector> row;
  std::size_t rows = 0;
  while (reader.next(row)) ++rows;
  EXPECT_EQ(rows, kRows);
  EXPECT_LE(reader.peakBufferedRows(), kChunk);
  EXPECT_GT(reader.peakBufferedRows(), 0u);
  EXPECT_GE(reader.refills(), kRows / kChunk);
}

TEST(StreamingReader, EmptyTraceAndSingleRowChunk) {
  trace::FunctionalTrace empty(randomTrace(0, 3));
  std::istringstream is(toCsv(empty));
  runtime::StreamingTraceReader reader(is, {1});
  std::vector<BitVector> row;
  EXPECT_FALSE(reader.next(row));
  EXPECT_EQ(reader.rowsDelivered(), 0u);
}

TEST(StreamingReader, RejectsBadInput) {
  std::istringstream garbage("not a trace\n");
  EXPECT_THROW(runtime::StreamingTraceReader{garbage}, std::runtime_error);

  std::istringstream headers_only("# psmgen functional trace v1\n");
  EXPECT_THROW(runtime::StreamingTraceReader{headers_only},
               std::runtime_error);

  std::istringstream good(toCsv(randomTrace(4, 4)));
  EXPECT_THROW(runtime::StreamingTraceReader(good, {0}),
               std::invalid_argument);

  EXPECT_THROW(runtime::StreamingTraceReader("/nonexistent/trace.csv"),
               std::runtime_error);
}

TEST(StreamingReader, ArityMismatchNamesTheLine) {
  std::string csv = toCsv(randomTrace(3, 5));
  csv += "1,2,3\n";  // 3 cells, the variable set has 2; this is file line 6
  std::istringstream is(csv);
  runtime::StreamingTraceReader reader(is, {64});
  std::vector<BitVector> row;
  try {
    while (reader.next(row)) {
    }
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 6"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("arity"), std::string::npos);
  }
}

/// toCsv(t) with every third data row padded with spaces/tabs/CR and a
/// blank or whitespace-only line after every fifth.
std::string paddedCsv(const trace::FunctionalTrace& t) {
  std::istringstream is(toCsv(t));
  std::string out;
  std::string line;
  for (std::size_t n = 0; std::getline(is, line); ++n) {
    if (n >= 2 && n % 3 == 0) line = " \t" + line + "  \r";
    out += line + "\n";
    if (n >= 2 && n % 5 == 0) out += n % 2 == 0 ? "\n" : "  \t\n";
  }
  return out;
}

TEST(StreamingReader, SameRowsForEveryChunkSize) {
  const trace::FunctionalTrace t = randomTrace(50, 6);
  const std::string csv = paddedCsv(t);
  // The batch loader skips the same lines the reader must skip.
  std::istringstream batch(csv);
  ASSERT_EQ(trace::readFunctionalTrace(batch).length(), t.length());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4096}}) {
    std::istringstream is(csv);
    runtime::StreamingTraceReader reader(is, {chunk});
    std::vector<BitVector> row;
    std::size_t i = 0;
    while (reader.next(row)) {
      ASSERT_LT(i, t.length()) << "chunk " << chunk;
      EXPECT_EQ(row, t.step(i)) << "chunk " << chunk << " row " << i;
      ++i;
    }
    EXPECT_EQ(i, t.length()) << "chunk " << chunk;
    EXPECT_EQ(reader.refills(), (t.length() + chunk - 1) / chunk);
    EXPECT_LE(reader.peakBufferedRows(), chunk);
  }
}

TEST(StreamingReader, BadRowThrowsAfterEveryEarlierRow) {
  std::string csv = toCsv(randomTrace(7, 7));  // lines 3..9 are rows
  csv += "\n";                                 // line 10: blank
  csv += "zz,1\n";                             // line 11: bad hex
  csv += "1,1\n";
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4096}}) {
    std::istringstream is(csv);
    runtime::StreamingTraceReader reader(is, {chunk});
    std::vector<BitVector> row;
    std::size_t delivered = 0;
    try {
      while (reader.next(row)) ++delivered;
      FAIL() << "expected a parse error, chunk " << chunk;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(delivered, 7u) << "chunk " << chunk;
      EXPECT_NE(std::string(e.what()).find("line 11"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("bad value"), std::string::npos)
          << e.what();
    }
  }
}

// --- predictor ----------------------------------------------------------

struct TrainedRam {
  core::CharacterizationFlow flow;
  trace::FunctionalTrace eval;
  trace::PowerTrace eval_power;

  TrainedRam() {
    auto device = ip::makeDevice(ip::IpKind::Ram);
    power::GateLevelEstimator est(*device, ip::powerConfig(ip::IpKind::Ram));
    for (const auto& spec : ip::shortTSPlan(ip::IpKind::Ram)) {
      auto tb =
          ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Short, spec.seed);
      auto pair = est.run(*tb, 2500);
      flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
    }
    flow.build();
    auto tb = ip::makeTestbench(ip::IpKind::Ram, ip::TestsetMode::Long, 0xBEEF);
    auto pair = est.run(*tb, 6000);
    eval = std::move(pair.functional);
    eval_power = std::move(pair.power);
  }
};

TrainedRam& trainedRam() {
  static TrainedRam ram;
  return ram;
}

TEST(OnlinePredictor, MatchesFusedSimulateExactly) {
  TrainedRam& ram = trainedRam();
  const core::SimResult fused = ram.flow.estimate(ram.eval);

  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  const std::vector<double> streamed = predictor.predictTrace(ram.eval);
  EXPECT_EQ(streamed, fused.estimate);
  EXPECT_EQ(predictor.stats().rows, ram.eval.length());
  EXPECT_EQ(predictor.stats().predictions, fused.predictions);
  EXPECT_EQ(predictor.stats().wrong_predictions, fused.wrong_predictions);
  EXPECT_EQ(predictor.stats().unexpected_behaviours,
            fused.unexpected_behaviours);
  EXPECT_EQ(predictor.stats().lost_instants, fused.lost_instants);
}

TEST(OnlinePredictor, LoadedArtifactServesIdenticalEstimates) {
  TrainedRam& ram = trainedRam();
  std::ostringstream os(std::ios::binary);
  serialize::writePsmModel(os, ram.flow.psm(), ram.flow.domain());
  std::istringstream is(os.str(), std::ios::binary);
  const serialize::PsmModel model = serialize::readPsmModel(is);

  runtime::OnlinePredictor predictor(model);
  const std::vector<double> streamed = predictor.predictTrace(ram.eval);
  EXPECT_EQ(streamed, ram.flow.estimate(ram.eval).estimate);
}

TEST(OnlinePredictor, StreamedPredictionIsBoundedAndIdentical) {
  TrainedRam& ram = trainedRam();
  const std::size_t kChunk = 512;
  ASSERT_GT(ram.eval.length(), kChunk);  // trace larger than one chunk
  std::istringstream is(toCsv(ram.eval));
  runtime::StreamingTraceReader reader(is, {kChunk});

  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  std::vector<double> streamed;
  std::size_t next_index = 0;
  const runtime::PredictorStats stats =
      predictor.predictStream(reader, [&](std::size_t t, double estimate) {
        EXPECT_EQ(t, next_index++);
        streamed.push_back(estimate);
      });
  EXPECT_EQ(streamed, ram.flow.estimate(ram.eval).estimate);
  EXPECT_EQ(stats.rows, ram.eval.length());
  // The bounded-memory contract: the reader never materializes more than
  // one chunk of the trace, however long the stream.
  EXPECT_LE(reader.peakBufferedRows(), kChunk);
  EXPECT_GE(reader.refills(), ram.eval.length() / kChunk);
}

TEST(OnlinePredictor, ResetStartsAFreshEquivalentStream) {
  TrainedRam& ram = trainedRam();
  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  const std::vector<double> first = predictor.predictTrace(ram.eval);
  const runtime::PredictorStats first_stats = predictor.stats();
  const std::vector<double> second = predictor.predictTrace(ram.eval);
  EXPECT_EQ(first, second);
  EXPECT_EQ(predictor.stats().rows, first_stats.rows);
  EXPECT_EQ(predictor.stats().predictions, first_stats.predictions);
  EXPECT_EQ(predictor.stats().resyncs, first_stats.resyncs);
}

TEST(OnlinePredictor, CountersTrackLatencyAndThroughput) {
  TrainedRam& ram = trainedRam();
  runtime::OnlinePredictor predictor(ram.flow.psm(), ram.flow.domain());
  predictor.predictTrace(ram.eval);
  const runtime::PredictorStats& stats = predictor.stats();
  EXPECT_EQ(stats.rows, ram.eval.length());
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.rowsPerSecond(), 0.0);
  predictor.reset();
  EXPECT_EQ(predictor.stats().rows, 0u);
  EXPECT_EQ(predictor.stats().seconds, 0.0);
}

}  // namespace
}  // namespace psmgen

// Unit tests for the trace substrate: variable sets, functional and power
// traces, MRE, CSV round-trips and the VCD writer.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "common/strings.hpp"
#include "trace/functional_trace.hpp"
#include "trace/line_reader.hpp"
#include "trace/power_trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/vcd_writer.hpp"

namespace psmgen::trace {
namespace {

using common::BitVector;

VariableSet demoVars() {
  VariableSet vars;
  vars.add("en", 1, VarKind::Input);
  vars.add("data", 8, VarKind::Input);
  vars.add("out", 8, VarKind::Output);
  return vars;
}

FunctionalTrace demoTrace() {
  FunctionalTrace t(demoVars());
  t.append({BitVector(1, 0), BitVector(8, 0x00), BitVector(8, 0x00)});
  t.append({BitVector(1, 1), BitVector(8, 0xFF), BitVector(8, 0x0F)});
  t.append({BitVector(1, 1), BitVector(8, 0xF0), BitVector(8, 0x0F)});
  return t;
}

TEST(VariableSet, AddFindAndKinds) {
  VariableSet vars = demoVars();
  EXPECT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars.find("data"), 1);
  EXPECT_EQ(vars.find("nope"), -1);
  EXPECT_EQ(vars.inputs(), (std::vector<int>{0, 1}));
  EXPECT_EQ(vars.outputs(), (std::vector<int>{2}));
  EXPECT_EQ(vars.inputBits(), 9u);
  EXPECT_EQ(vars.outputBits(), 8u);
  EXPECT_THROW(vars.add("en", 1, VarKind::Input), std::invalid_argument);
}

TEST(FunctionalTrace, AppendValidation) {
  FunctionalTrace t(demoVars());
  EXPECT_THROW(t.append({BitVector(1, 0)}), std::invalid_argument);
  EXPECT_THROW(t.append({BitVector(2, 0), BitVector(8, 0), BitVector(8, 0)}),
               std::invalid_argument);
  t.append({BitVector(1, 0), BitVector(8, 0), BitVector(8, 0)});
  EXPECT_EQ(t.length(), 1u);
}

TEST(FunctionalTrace, HammingDistances) {
  FunctionalTrace t = demoTrace();
  EXPECT_EQ(t.inputHammingDistance(0), 0u);
  // step0 -> step1: en toggles (1) + data 0x00->0xFF (8) = 9.
  EXPECT_EQ(t.inputHammingDistance(1), 9u);
  // plus out 0x00->0x0F (4) = 13 for the whole interface.
  EXPECT_EQ(t.rowHammingDistance(1), 13u);
  // step1 -> step2: data 0xFF->0xF0 (4); out unchanged.
  EXPECT_EQ(t.inputHammingDistance(2), 4u);
  EXPECT_EQ(t.rowHammingDistance(2), 4u);
}

TEST(FunctionalTrace, SubtraceAndExtend) {
  FunctionalTrace t = demoTrace();
  FunctionalTrace sub = t.subtrace(1, 2);
  EXPECT_EQ(sub.length(), 2u);
  EXPECT_EQ(sub.value(0, 1), BitVector(8, 0xFF));
  EXPECT_THROW(t.subtrace(2, 5), std::out_of_range);
  FunctionalTrace copy = t;
  copy.extend(sub);
  EXPECT_EQ(copy.length(), 5u);
  FunctionalTrace other{VariableSet{}};
  EXPECT_THROW(copy.extend(other), std::invalid_argument);
}

TEST(PowerTrace, MeanAndEnergy) {
  PowerTrace p({1.0, 100.0e6, 1e-14});
  for (const double w : {1.0, 2.0, 3.0, 4.0}) p.append(w);
  EXPECT_DOUBLE_EQ(p.mean(0, 3), 2.5);
  EXPECT_DOUBLE_EQ(p.mean(1, 2), 2.5);
  EXPECT_THROW(p.mean(2, 1), std::out_of_range);
  EXPECT_THROW(p.mean(0, 9), std::out_of_range);
  EXPECT_NEAR(p.totalEnergy(), 10.0 / 100.0e6, 1e-18);
}

TEST(PowerTrace, MeanRelativeError) {
  EXPECT_DOUBLE_EQ(meanRelativeError({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_NEAR(meanRelativeError({1.1, 2.2}, {1.0, 2.0}), 0.1, 1e-12);
  // Zero-reference instants are skipped.
  EXPECT_NEAR(meanRelativeError({5.0, 1.1}, {0.0, 1.0}), 0.1, 1e-12);
  EXPECT_THROW(meanRelativeError({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(TraceIo, FunctionalRoundTrip) {
  FunctionalTrace t = demoTrace();
  std::stringstream ss;
  writeFunctionalTrace(ss, t);
  const FunctionalTrace back = readFunctionalTrace(ss);
  EXPECT_EQ(back, t);
}

TEST(TraceIo, PowerRoundTrip) {
  PowerTrace p({1.2, 50.0e6, 2e-14});
  p.append(0.001);
  p.append(0.0025);
  std::stringstream ss;
  writePowerTrace(ss, p);
  const PowerTrace back = readPowerTrace(ss);
  EXPECT_EQ(back.params(), p.params());
  ASSERT_EQ(back.length(), 2u);
  EXPECT_DOUBLE_EQ(back.at(1), 0.0025);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream ss("not a trace\n");
  EXPECT_THROW(readFunctionalTrace(ss), std::runtime_error);
  std::stringstream ss2("also not\n");
  EXPECT_THROW(readPowerTrace(ss2), std::runtime_error);
}

/// Asserts that parsing `text` as a functional (power) trace fails with
/// a message containing every fragment.
template <typename Reader>
void expectParseError(Reader reader, const std::string& text,
                      const std::vector<std::string>& fragments) {
  std::stringstream ss(text);
  try {
    reader(ss);
    FAIL() << "expected a parse error for: " << text;
  } catch (const std::runtime_error& e) {
    for (const auto& fragment : fragments) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message '" << e.what() << "' lacks '" << fragment << "'";
    }
  }
}

TEST(TraceIoErrors, TruncatedFunctionalFile) {
  expectParseError(readFunctionalTrace, "",
                   {"missing functional trace header"});
  expectParseError(readFunctionalTrace, "# psmgen functional trace v1\n",
                   {"truncated", "variable declaration"});
}

TEST(TraceIoErrors, BadFunctionalHeaderAndDeclaration) {
  expectParseError(readFunctionalTrace, "# psmgen functional trace v99\na:in:1\n",
                   {"missing functional trace header"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:in\n",
                   {"line 2", "bad variable declaration"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:sideways:1\n",
                   {"line 2", "bad variable kind"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:in:zero\n",
                   {"line 2", "bad variable width"});
  expectParseError(readFunctionalTrace,
                   "# psmgen functional trace v1\na:in:1,a:in:2\n",
                   {"line 2", "duplicate"});
}

TEST(TraceIoErrors, RowErrorsReportTheLine) {
  const std::string preamble =
      "# psmgen functional trace v1\nen:in:1,data:in:8,out:out:8\n";
  expectParseError(readFunctionalTrace, preamble + "0,00,00\n1,ff\n",
                   {"line 4", "arity mismatch", "got 2", "expected 3"});
  expectParseError(readFunctionalTrace, preamble + "0,00,00\n\n0,zz,00\n",
                   {"line 5", "data", "bad value"});
  // A value wider than the declared variable is malformed, not truncated.
  expectParseError(readFunctionalTrace, preamble + "3,00,00\n",
                   {"line 3", "en", "does not fit"});
}

TEST(TraceIo, EmptyCellsReadAsZero) {
  // An empty cell is a zero-digit value; runs of commas split into empty
  // cells, never into a cell holding a comma.
  std::stringstream ss(
      "# psmgen functional trace v1\nen:in:1,data:in:8,out:out:8\n"
      ",,\n1,,\n,,f\n,a,\n");
  const FunctionalTrace t = readFunctionalTrace(ss);
  const auto row = [](unsigned en, unsigned data, unsigned out) {
    return std::vector<BitVector>{BitVector(1, en), BitVector(8, data),
                                  BitVector(8, out)};
  };
  ASSERT_EQ(t.length(), 4u);
  EXPECT_EQ(t.step(0), row(0, 0, 0));
  EXPECT_EQ(t.step(1), row(1, 0, 0));
  EXPECT_EQ(t.step(2), row(0, 0, 0xF));
  EXPECT_EQ(t.step(3), row(0, 0xA, 0));
}

TEST(TraceIoErrors, PowerTraceErrorsReportTheLine) {
  expectParseError(readPowerTrace, "# psmgen power trace v1\n",
                   {"truncated", "power parameter"});
  expectParseError(readPowerTrace, "# psmgen power trace v1\n1.0,2.0\n",
                   {"line 2", "bad power parameter line"});
  expectParseError(readPowerTrace, "# psmgen power trace v1\n1.0,2.0,oops\n",
                   {"line 2", "bad capacitance"});
  expectParseError(readPowerTrace,
                   "# psmgen power trace v1\n1,1e8,1e-14\n0.5\nnope\n",
                   {"line 4", "bad power sample"});
}

TEST(TraceIoErrors, UnreadablePath) {
  const std::string missing = "/nonexistent-psmgen-dir/trace.csv";
  EXPECT_THROW(loadFunctionalTrace(missing), std::runtime_error);
  EXPECT_THROW(loadPowerTrace(missing), std::runtime_error);
  EXPECT_THROW(saveFunctionalTrace(missing, demoTrace()), std::runtime_error);
  EXPECT_THROW(savePowerTrace(missing, PowerTrace{}), std::runtime_error);
  try {
    loadFunctionalTrace(missing);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
}

TEST(TraceIoProperty, RandomizedFunctionalRoundTrip) {
  std::mt19937_64 rng(0x5EED);
  for (int iter = 0; iter < 20; ++iter) {
    VariableSet vars;
    const std::size_t nvars = 1 + rng() % 5;
    for (std::size_t v = 0; v < nvars; ++v) {
      // Widths crossing the 64-bit limb boundary exercise multi-limb hex.
      const unsigned width = 1 + static_cast<unsigned>(rng() % 90);
      vars.add("v" + std::to_string(v), width,
               rng() % 2 ? VarKind::Input : VarKind::Output);
    }
    FunctionalTrace t(vars);
    const std::size_t rows = rng() % 40;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<BitVector> row;
      for (std::size_t v = 0; v < nvars; ++v) {
        BitVector value(vars[v].width);
        for (unsigned b = 0; b < value.width(); ++b) {
          if (rng() % 2) value.setBit(b, true);
        }
        row.push_back(std::move(value));
      }
      t.append(std::move(row));
    }
    std::stringstream ss;
    writeFunctionalTrace(ss, t);
    const FunctionalTrace back = readFunctionalTrace(ss);
    ASSERT_EQ(back, t) << "iteration " << iter;
  }
}

TEST(TraceIoProperty, RandomizedPowerRoundTrip) {
  std::mt19937_64 rng(0xCAFE);
  std::uniform_real_distribution<double> watts(0.0, 1.0);
  for (int iter = 0; iter < 20; ++iter) {
    PowerTrace p({0.5 + watts(rng), 1e6 + 1e9 * watts(rng), 1e-14 * watts(rng)});
    const std::size_t samples = rng() % 50;
    for (std::size_t s = 0; s < samples; ++s) p.append(watts(rng) * 1e-2);
    std::stringstream ss;
    writePowerTrace(ss, p);
    const PowerTrace back = readPowerTrace(ss);
    // precision(17) makes the decimal rendering lossless for doubles.
    ASSERT_EQ(back, p) << "iteration " << iter;
  }
}

// --- the block-read line loop --------------------------------------------

/// Every line of `text` as LineReader hands it out, spans resolved only
/// once the whole text is read (no release), so spans must survive every
/// block read, buffer move and growth.
std::vector<std::pair<std::string, std::size_t>> splitLines(
    const std::string& text, bool non_blank) {
  std::istringstream is(text);
  LineReader lines(is);
  std::vector<LineReader::Span> spans;
  LineReader::Span span;
  while (non_blank ? lines.nextNonBlank(span) : lines.nextLine(span)) {
    spans.push_back(span);
  }
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const auto& s : spans) out.emplace_back(lines.text(s), s.line_no);
  return out;
}

TEST(LineReader, SplitsLikeGetlineAcrossTheBlockBoundary) {
  const std::string tail =
      "first\r\n\n  \t\nsome longer line, with commas,,\nx\n\r\nlast";
  // A leading line of padding puts the first block boundary at every
  // offset of `tail`, its newlines included.
  for (std::size_t at = 0; at <= tail.size(); ++at) {
    const std::string text =
        std::string(LineReader::kBlockBytes - 1 - at, 'p') + "\n" + tail;
    std::istringstream is(text);
    std::vector<std::pair<std::string, std::size_t>> want;
    std::vector<std::pair<std::string, std::size_t>> want_rows;
    std::string line;
    for (std::size_t n = 1; std::getline(is, line); ++n) {
      want.emplace_back(line, n);
      const std::string t = common::trim(line);
      if (!t.empty()) want_rows.emplace_back(t, n);
    }
    EXPECT_EQ(splitLines(text, false), want) << "boundary at " << at;
    EXPECT_EQ(splitLines(text, true), want_rows) << "boundary at " << at;
    // With a trailing newline the last line is the same line.
    EXPECT_EQ(splitLines(text + "\n", false), want) << "boundary at " << at;
  }
  EXPECT_TRUE(splitLines("", false).empty());
  EXPECT_EQ(splitLines("\n", false),
            (std::vector<std::pair<std::string, std::size_t>>{{"", 1}}));
}

TEST(LineReader, ReleaseKeepsLaterSpansAndLongLines) {
  // Lines longer than one and than two blocks, read with releases in
  // between, so the buffer both moves and grows.
  const std::size_t kBlock = LineReader::kBlockBytes;
  const std::vector<std::size_t> lengths = {1,     kBlock + 7, 3,
                                            3 * kBlock, 0, kBlock};
  std::string text;
  for (std::size_t len : lengths) {
    text += std::string(len, static_cast<char>('a' + len % 26)) + "\n";
  }
  std::istringstream is(text);
  LineReader lines(is);
  LineReader::Span span;
  std::size_t n = 0;
  for (std::size_t len : lengths) {
    ASSERT_TRUE(lines.nextLine(span));
    EXPECT_EQ(lines.text(span),
              std::string(len, static_cast<char>('a' + len % 26)));
    EXPECT_EQ(span.line_no, ++n);
    if (n % 2 == 0) lines.release();
  }
  EXPECT_FALSE(lines.nextLine(span));
  EXPECT_FALSE(lines.nextLine(span));
}

TEST(Vcd, EmitsDeclarationsAndChanges) {
  FunctionalTrace t = demoTrace();
  std::stringstream ss;
  writeVcd(ss, t, "top");
  const std::string vcd = ss.str();
  EXPECT_NE(vcd.find("$scope module top"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 8"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#2"), std::string::npos);
  // Value-change encoding for the 8-bit bus.
  EXPECT_NE(vcd.find("b11111111"), std::string::npos);
}

}  // namespace
}  // namespace psmgen::trace

// Deterministic mutation test of the two row parsers that read untrusted
// bytes on the prediction path: the functional-trace CSV reader (through
// StreamingTraceReader and readFunctionalTrace) and the serve protocol's
// decodeRowsInto. The seeds are a written AES trace and the Rows frame
// encoding the same rows. A fixed-seed PRNG applies bit flips,
// truncations, length-field inflation and splices, for a fixed number of
// iterations. Property: every mutated input yields exactly the rows of a
// slow reference parser, or the typed error (std::runtime_error naming
// the line, serve::ProtocolError) with the reference's message.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"
#include "reference_parsers.hpp"
#include "serve/protocol.hpp"
#include "trace/trace_io.hpp"

namespace psmgen {
namespace {

using common::BitVector;
using Bytes = std::vector<std::uint8_t>;

struct Seeds {
  trace::FunctionalTrace trace;
  std::string csv;
  std::size_t rows_at = 0;  // first byte after the declaration line
  Bytes payload;            // of the Rows frame
};

const Seeds& seeds() {
  static const Seeds s = [] {
    Seeds out;
    auto device = ip::makeDevice(ip::IpKind::Aes);
    power::GateLevelEstimator est(*device, ip::powerConfig(ip::IpKind::Aes));
    auto tb = ip::makeTestbench(ip::IpKind::Aes, ip::TestsetMode::Long, 7);
    out.trace = est.run(*tb, 40).functional;
    std::ostringstream os;
    trace::writeFunctionalTrace(os, out.trace);
    out.csv = os.str();
    out.rows_at = out.csv.find('\n', out.csv.find('\n') + 1) + 1;
    std::vector<std::vector<BitVector>> rows;
    for (std::size_t i = 0; i < out.trace.length(); ++i) {
      rows.push_back(out.trace.step(i));
    }
    const std::string frame = serve::encodeRows(rows);
    serve::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    out.payload = decoder.next().value().payload;
    return out;
  }();
  return s;
}

/// One random mutation of `in` at or after byte `from`. `length_at` is
/// the offset of a little-endian u32 length field to inflate, or npos for
/// text, which has none: there a run of bytes is repeated instead.
template <typename Buf>
Buf mutate(Buf in, std::size_t from, std::size_t length_at,
           std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {  // [lo, hi]
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  if (in.size() <= from) return in;
  const std::size_t last = in.size() - 1;
  switch (pick(0, 3)) {
    case 0:  // bit flips
      for (std::size_t k = pick(1, 4); k > 0; --k) {
        in[pick(from, last)] ^= static_cast<std::uint8_t>(1u << pick(0, 7));
      }
      break;
    case 1:  // truncation
      in.resize(pick(from, in.size()));
      break;
    case 2:  // length-field inflation
      if (length_at != std::string::npos) {
        std::uint32_t n = 0;
        for (int i = 0; i < 4; ++i) {
          n |= static_cast<std::uint32_t>(
                   static_cast<std::uint8_t>(in[length_at + i]))
               << (8 * i);
        }
        const std::uint32_t grown =
            pick(0, 3) == 0 ? 0xFFFFFFFFu
                            : n + static_cast<std::uint32_t>(pick(1, 64));
        for (int i = 0; i < 4; ++i) {
          in[length_at + i] = static_cast<std::uint8_t>(grown >> (8 * i));
        }
      } else {
        const std::size_t at = pick(from, last);
        const std::size_t len =
            pick(1, std::min<std::size_t>(40, in.size() - at));
        const Buf run(in.begin() + static_cast<std::ptrdiff_t>(at),
                      in.begin() + static_cast<std::ptrdiff_t>(at + len));
        in.insert(in.begin() + static_cast<std::ptrdiff_t>(at), run.begin(),
                  run.end());
      }
      break;
    default: {  // splice: a range of the input over another range
      const std::size_t src = pick(from, last);
      const std::size_t len = pick(1, in.size() - src);
      const Buf piece(in.begin() + static_cast<std::ptrdiff_t>(src),
                      in.begin() + static_cast<std::ptrdiff_t>(src + len));
      const std::size_t dst = pick(from, last);
      const std::size_t cut = pick(0, in.size() - dst);
      in.erase(in.begin() + static_cast<std::ptrdiff_t>(dst),
               in.begin() + static_cast<std::ptrdiff_t>(dst + cut));
      in.insert(in.begin() + static_cast<std::ptrdiff_t>(dst), piece.begin(),
                piece.end());
      break;
    }
  }
  return in;
}

TEST(ParserMutation, CsvRowsMatchTheReferenceOrFailAlike) {
  const Seeds& s = seeds();
  // Mutations stay behind the declaration line: the preamble parser is
  // not what this test covers, and a mutated width could ask for a value
  // of billions of bits.
  std::mt19937_64 rng(0xC5F);
  std::size_t failed = 0;
  constexpr int kIterations = 1500;
  for (int it = 0; it < kIterations; ++it) {
    std::string csv = s.csv;
    for (int k = 1 + it % 3; k > 0; --k) {
      csv = mutate(std::move(csv), s.rows_at, std::string::npos, rng);
    }
    const testing::RowsResult want = testing::referenceCsv(csv);
    failed += want.error.empty() ? 0 : 1;
    for (const std::size_t chunk : {7, 4096}) {
      ASSERT_EQ(testing::streamCsv(csv, {chunk}), want)
          << "iteration " << it << ", chunk " << chunk << "\n" << csv;
    }
    const testing::RowsResult loaded = testing::loadCsv(csv);
    ASSERT_EQ(loaded.error, want.error) << "iteration " << it << "\n" << csv;
    if (want.error.empty()) {
      ASSERT_EQ(loaded.rows, want.rows) << "iteration " << it;
    }
  }
  // Both outcomes are exercised, so neither comparison is vacuous.
  EXPECT_GT(failed, kIterations / 10u);
  EXPECT_LT(failed, kIterations * 9u / 10u);
}

/// The Rows payload layout read the slow way: u32 LE row count, then per
/// row each variable's ceil(width/8) little-endian bytes, any set bit at
/// or above the width an error.
testing::RowsResult referenceRows(const Bytes& payload,
                                 const trace::VariableSet& vars) {
  testing::RowsResult out;
  if (payload.size() < 4) {
    out.error = "rows: truncated payload";
    return out;
  }
  std::uint64_t count = 0;
  for (int i = 0; i < 4; ++i) {
    count |= static_cast<std::uint64_t>(payload[static_cast<std::size_t>(i)])
             << (8 * i);
  }
  std::uint64_t stride = 0;
  for (const auto& v : vars.all()) stride += (v.width + 7) / 8;
  if (payload.size() != 4 + count * stride) {
    out.error = "rows: payload size does not match row count";
    return out;
  }
  std::size_t pos = 4;
  for (std::uint64_t r = 0; r < count; ++r) {
    std::vector<BitVector> row;
    for (const auto& v : vars.all()) {
      BitVector value(v.width);
      for (unsigned b = 0; b < 8 * ((v.width + 7) / 8); ++b) {
        if (((payload[pos + b / 8] >> (b % 8)) & 1) == 0) continue;
        if (b >= v.width) {
          out.error = "rows: nonzero padding bits in packed value";
          return out;
        }
        value.setBit(b, true);
      }
      pos += (v.width + 7) / 8;
      row.push_back(std::move(value));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

TEST(ParserMutation, WireRowsMatchTheReferenceOrFailAlike) {
  const Seeds& s = seeds();
  const trace::VariableSet& vars = s.trace.variables();
  std::mt19937_64 rng(0xF4A);
  std::vector<std::vector<BitVector>> rows;  // reused, as a session does
  std::size_t failed = 0;
  constexpr int kIterations = 4000;
  for (int it = 0; it < kIterations; ++it) {
    Bytes payload = s.payload;
    for (int k = 1 + it % 2; k > 0; --k) {
      // The row count is the payload's length field.
      const std::size_t count_at = payload.size() >= 4 ? 0 : std::string::npos;
      payload = mutate(std::move(payload), 0, count_at, rng);
    }
    const testing::RowsResult want = referenceRows(payload, vars);
    testing::RowsResult got;
    try {
      serve::decodeRowsInto(payload, vars, rows);
      got.rows = rows;
    } catch (const serve::ProtocolError& e) {
      got.error = e.what();
    }
    if (!want.error.empty()) {
      ++failed;
      ASSERT_EQ(got.error, want.error) << "iteration " << it;
    } else {
      ASSERT_EQ(got, want) << "iteration " << it;
    }
  }
  EXPECT_GT(failed, kIterations / 10u);
  EXPECT_LT(failed, kIterations * 9u / 10u);
}

}  // namespace
}  // namespace psmgen

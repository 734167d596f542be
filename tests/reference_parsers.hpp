#pragma once
// Slow, obviously-correct reference parsers for the differential and
// mutation tests of the CSV trace reader and the hex decoder. They share
// no code with the parsers under test beyond the variable declaration
// parser, which neither test rewrites: values are built one bit at a
// time, lines are split with std::string::find, cells counted by hand.

#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.hpp"
#include "runtime/streaming_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace/variable.hpp"

namespace psmgen::testing {

/// A parsed value, or the message of the error a parser must throw.
struct HexResult {
  common::BitVector value;
  std::string error;
};

/// Decodes `hex` (MSB first) one nibble at a time from the least
/// significant digit and stops at the first bad character or non-zero
/// bit above the width; width 0 means 4 bits per digit.
inline HexResult referenceHex(std::string_view hex, unsigned width = 0) {
  static const std::string kDigits = "0123456789abcdef";
  static const std::string kUpper = "0123456789ABCDEF";
  HexResult out;
  out.value = common::BitVector(
      width == 0 ? static_cast<unsigned>(hex.size()) * 4 : width);
  for (std::size_t k = 0; k < hex.size(); ++k) {
    const char c = hex[hex.size() - 1 - k];
    std::size_t nib = kDigits.find(c);
    if (nib == std::string::npos) nib = kUpper.find(c);
    if (nib == std::string::npos) {
      out.error = "BitVector::fromHex: bad character";
      return out;
    }
    for (unsigned b = 0; b < 4; ++b) {
      if (((nib >> b) & 1) == 0) continue;
      const std::size_t pos = 4 * k + b;
      if (pos >= out.value.width()) {
        out.error = "BitVector::fromHex: value does not fit requested width";
        return out;
      }
      out.value.setBit(static_cast<unsigned>(pos), true);
    }
  }
  return out;
}

inline bool isBlank(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

inline std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && isBlank(s[b])) ++b;
  while (e > b && isBlank(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Every row a reader delivers before it stops, and the message it
/// stops with ("" if it reaches the end cleanly).
struct RowsResult {
  std::vector<std::vector<common::BitVector>> rows;
  std::string error;

  bool operator==(const RowsResult&) const = default;
};

/// Reads a functional-trace CSV the slow way: the text is cut into lines
/// at each '\n' (a final line without one still counts), the first two
/// are the header and the declaration, blank rows are skipped but
/// counted, and each row is checked for arity before any of its values.
inline RowsResult referenceCsv(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t stop = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(start, stop - start));
    start = stop + 1;
  }
  RowsResult out;
  if (lines.empty() ||
      trimmed(lines[0]) != trace::functionalTraceHeader()) {
    out.error = "trace_io: missing functional trace header";
    return out;
  }
  if (lines.size() < 2) {
    out.error = "trace_io: truncated trace: missing variable declaration line";
    return out;
  }
  trace::VariableSet vars;
  try {
    vars = trace::parseVariableDeclaration(lines[1], 2);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
    return out;
  }
  for (std::size_t i = 2; i < lines.size(); ++i) {
    const std::string row = trimmed(lines[i]);
    if (row.empty()) continue;
    const std::string where = "trace_io: line " + std::to_string(i + 1) + ": ";
    std::vector<std::string> cells(1);
    for (const char c : row) {
      if (c == ',') {
        cells.emplace_back();
      } else {
        cells.back() += c;
      }
    }
    if (cells.size() != vars.size()) {
      out.error = where + "row arity mismatch (got " +
                  std::to_string(cells.size()) + " cells, expected " +
                  std::to_string(vars.size()) + ")";
      return out;
    }
    std::vector<common::BitVector> values;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      HexResult v = referenceHex(cells[k], vars[k].width);
      if (!v.error.empty()) {
        out.error = where + "bad value for variable '" + vars[k].name +
                    "': " + v.error;
        return out;
      }
      values.push_back(std::move(v.value));
    }
    out.rows.push_back(std::move(values));
  }
  return out;
}

// --- the readers under test, run to the end of an input ----------------

/// Rows StreamingTraceReader delivers for `csv` until it stops, and the
/// message it stops with.
inline RowsResult streamCsv(const std::string& csv,
                           runtime::StreamingTraceReader::Options options) {
  RowsResult out;
  try {
    std::istringstream is(csv);
    runtime::StreamingTraceReader reader(is, options);
    std::vector<common::BitVector> row;
    while (reader.next(row)) out.rows.push_back(row);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

/// readFunctionalTrace's rows for `csv`, or its message and no rows.
inline RowsResult loadCsv(const std::string& csv) {
  RowsResult out;
  try {
    std::istringstream is(csv);
    const trace::FunctionalTrace t = trace::readFunctionalTrace(is);
    for (std::size_t i = 0; i < t.length(); ++i) out.rows.push_back(t.step(i));
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace psmgen::testing

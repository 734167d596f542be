#pragma once
// Bounded-memory iteration over functional-trace CSV files.
//
// trace::loadFunctionalTrace materializes the whole trace — fine for
// training, wrong for serving, where evaluation traces can be orders of
// magnitude longer than RAM. StreamingTraceReader reads the same CSV
// format (trace/trace_io.hpp) through the same trace::LineReader loop, in
// chunks: a refill reads up to `chunk_rows` non-blank lines as byte spans
// (offset, length, line number) into the line reader's one byte buffer,
// and next() parses one span straight into the caller's row. Memory
// contract: at most `chunk_rows` raw lines, one block of read-ahead and
// the one parsed row the caller owns are resident at any instant,
// regardless of trace length; once the buffer has grown to the widest
// chunk, reading allocates nothing per row.
//
// peakBufferedRows() exposes the high-water mark of buffered lines; the
// bounded-memory contract (peak <= chunk_rows) is enforced by tests that
// stream traces much larger than one chunk. A malformed row throws when
// next() reaches it, after every earlier row has been delivered.

#include <cstddef>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "trace/line_reader.hpp"
#include "trace/variable.hpp"

namespace psmgen::runtime {

class StreamingTraceReader {
 public:
  struct Options {
    /// Raw lines buffered per refill; the memory bound of the reader.
    std::size_t chunk_rows = 4096;
  };

  /// Reads from an externally owned stream (header + variable declaration
  /// are consumed immediately; throws std::runtime_error if malformed).
  explicit StreamingTraceReader(std::istream& is);
  StreamingTraceReader(std::istream& is, Options options);

  /// Opens `path`; throws std::runtime_error if unreadable.
  explicit StreamingTraceReader(const std::string& path);
  StreamingTraceReader(const std::string& path, Options options);

  const trace::VariableSet& variables() const { return vars_; }

  /// Parses the next row into `row` in place (see
  /// trace::parseFunctionalRowInto); returns false at end of stream.
  /// Parse errors carry the 1-based line number of the offending row.
  bool next(std::vector<common::BitVector>& row);

  /// Rows handed out through next() so far.
  std::size_t rowsDelivered() const { return rows_; }
  /// Buffer refills performed (chunked I/O round trips).
  std::size_t refills() const { return refills_; }
  /// High-water mark of raw lines resident in the buffer; never exceeds
  /// Options::chunk_rows.
  std::size_t peakBufferedRows() const { return peak_; }

 private:
  /// Reads from `is`, or from `owned` when `is` is null.
  StreamingTraceReader(std::unique_ptr<std::istream> owned, std::istream* is,
                       Options options);
  void refill();

  std::unique_ptr<std::istream> owned_;
  Options options_;
  trace::LineReader lines_;
  trace::VariableSet vars_;
  /// The current chunk's lines; the vector keeps its capacity.
  std::vector<trace::LineReader::Span> spans_;
  std::size_t buffer_pos_ = 0;
  std::size_t rows_ = 0;
  std::size_t refills_ = 0;
  std::size_t peak_ = 0;
  bool exhausted_ = false;
};

}  // namespace psmgen::runtime

#include "runtime/streaming_reader.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "trace/trace_io.hpp"

namespace psmgen::runtime {

namespace {
/// Registry handles resolved once, so a refill looks nothing up by name.
struct ReaderCounters {
  obs::Counter& refills = obs::metrics().counter("reader.refills");
  obs::Counter& rows = obs::metrics().counter("reader.rows");
  obs::Gauge& peak = obs::metrics().gauge("reader.peak_resident_rows");
};

ReaderCounters& counters() {
  static ReaderCounters c;
  return c;
}

std::unique_ptr<std::istream> openTrace(const std::string& path) {
  auto is = std::make_unique<std::ifstream>(path);
  if (!*is) {
    throw std::runtime_error("StreamingTraceReader: cannot open " + path);
  }
  return is;
}

StreamingTraceReader::Options checked(StreamingTraceReader::Options options) {
  if (options.chunk_rows == 0) {
    throw std::invalid_argument("StreamingTraceReader: chunk_rows must be > 0");
  }
  return options;
}
}  // namespace

StreamingTraceReader::StreamingTraceReader(std::istream& is)
    : StreamingTraceReader(is, Options{}) {}

StreamingTraceReader::StreamingTraceReader(std::istream& is, Options options)
    : StreamingTraceReader(nullptr, &is, options) {}

StreamingTraceReader::StreamingTraceReader(const std::string& path)
    : StreamingTraceReader(path, Options{}) {}

StreamingTraceReader::StreamingTraceReader(const std::string& path,
                                           Options options)
    : StreamingTraceReader(openTrace(path), nullptr, options) {}

StreamingTraceReader::StreamingTraceReader(std::unique_ptr<std::istream> owned,
                                           std::istream* is, Options options)
    : owned_(std::move(owned)), options_(checked(options)),
      lines_(is != nullptr ? *is : *owned_),
      vars_(trace::readFunctionalPreamble(lines_)) {}

void StreamingTraceReader::refill() {
  lines_.release();
  spans_.clear();
  buffer_pos_ = 0;
  trace::LineReader::Span line;
  while (spans_.size() < options_.chunk_rows && lines_.nextNonBlank(line)) {
    spans_.push_back(line);
  }
  if (spans_.empty()) {
    exhausted_ = true;
    return;
  }
  ++refills_;
  peak_ = std::max(peak_, spans_.size());
  // Per-refill (not per-row): one counter bump per chunk keeps the
  // disabled-registry cost off the row-delivery fast path entirely.
  ReaderCounters& c = counters();
  c.refills.add(1);
  c.rows.add(spans_.size());
  c.peak.set(static_cast<double>(peak_));
}

bool StreamingTraceReader::next(std::vector<common::BitVector>& row) {
  if (buffer_pos_ == spans_.size()) {
    if (exhausted_) return false;
    refill();
    if (exhausted_) return false;
  }
  const trace::LineReader::Span& line = spans_[buffer_pos_++];
  trace::parseFunctionalRowInto(lines_.text(line), vars_, line.line_no, row);
  ++rows_;
  return true;
}

}  // namespace psmgen::runtime

#include "runtime/streaming_reader.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "common/strings.hpp"
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
}  // namespace

StreamingTraceReader::StreamingTraceReader(std::istream& is)
    : StreamingTraceReader(is, Options{}) {}

StreamingTraceReader::StreamingTraceReader(std::istream& is, Options options)
    : is_(&is), options_(options) {
  readPreamble();
}

StreamingTraceReader::StreamingTraceReader(const std::string& path)
    : StreamingTraceReader(path, Options{}) {}

StreamingTraceReader::StreamingTraceReader(const std::string& path,
                                           Options options)
    : owned_(std::make_unique<std::ifstream>(path)), is_(owned_.get()),
      options_(options) {
  if (!*is_) {
    throw std::runtime_error("StreamingTraceReader: cannot open " + path);
  }
  readPreamble();
}

void StreamingTraceReader::readPreamble() {
  if (options_.chunk_rows == 0) {
    throw std::invalid_argument("StreamingTraceReader: chunk_rows must be > 0");
  }
  std::string line;
  if (!std::getline(*is_, line) ||
      common::trim(line) != trace::functionalTraceHeader()) {
    throw std::runtime_error("trace_io: missing functional trace header");
  }
  ++line_no_;
  if (!std::getline(*is_, line)) {
    throw std::runtime_error(
        "trace_io: truncated trace: missing variable declaration line");
  }
  ++line_no_;
  vars_ = trace::parseVariableDeclaration(line, line_no_);
}

void StreamingTraceReader::refill() {
  buffered_ = 0;
  buffer_pos_ = 0;
  while (buffered_ < options_.chunk_rows) {
    if (buffered_ == lines_.size()) lines_.emplace_back();
    BufferedLine& line = lines_[buffered_];
    if (!std::getline(*is_, line.text)) break;
    ++line_no_;
    if (common::trimView(line.text).empty()) continue;
    line.line_no = line_no_;
    ++buffered_;
  }
  if (buffered_ == 0) {
    exhausted_ = true;
    return;
  }
  ++refills_;
  peak_ = std::max(peak_, buffered_);
  // Per-refill (not per-row): one counter bump per chunk keeps the
  // disabled-registry cost off the row-delivery fast path entirely.
  ReaderCounters& c = counters();
  c.refills.add(1);
  c.rows.add(buffered_);
  c.peak.set(static_cast<double>(peak_));
}

bool StreamingTraceReader::next(std::vector<common::BitVector>& row) {
  if (buffer_pos_ == buffered_) {
    if (exhausted_) return false;
    refill();
    if (exhausted_) return false;
  }
  const BufferedLine& line = lines_[buffer_pos_++];
  trace::parseFunctionalRowInto(common::trimView(line.text), vars_,
                                line.line_no, row);
  ++rows_;
  return true;
}

}  // namespace psmgen::runtime

#pragma once
// The line loop under every functional-trace CSV reader
// (trace::readFunctionalTrace and runtime::StreamingTraceReader).
//
// LineReader reads its stream in fixed-size blocks into one byte buffer
// and splits lines with memchr. A line is handed out as a Span: its offset
// and length relative to the oldest line still held, plus its 1-based
// line number. Spans stay valid while later blocks are read, because a
// block read may move or grow the buffer but never changes an offset.
// release() drops every span handed out so far, and the next block read
// reuses their bytes. The buffer holds the lines not yet released, the
// current partial line and at most one block read ahead, so it stops
// growing once it has held the widest run of lines between releases.
//
// A block read blocks until the whole block or the end of the stream has
// arrived: the reader is made for files and pipes read to the end.

#include <cstddef>
#include <istream>
#include <string_view>
#include <vector>

namespace psmgen::trace {

class LineReader {
 public:
  /// Bytes per read from the stream.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  struct Span {
    std::size_t offset = 0;
    std::size_t length = 0;
    std::size_t line_no = 0;
  };

  /// Reads `is` from its current position.
  explicit LineReader(std::istream& is);

  /// The next line without its '\n' (a '\r' before it is kept), or
  /// false at the end of the stream. A last line with no '\n' is a line.
  bool nextLine(Span& line);
  /// The next line that is not blank once whitespace is trimmed, trimmed.
  /// Skipped lines still count towards line numbers.
  bool nextNonBlank(Span& line);

  std::string_view text(const Span& line) const {
    return {buf_.data() + base_ + line.offset, line.length};
  }

  /// Drops every span handed out so far.
  void release() { base_ = pos_; }

 private:
  /// Appends one block; false once the stream has no more bytes.
  bool fill();

  std::istream* is_;
  std::vector<char> buf_;
  std::size_t base_ = 0;  // first byte of the oldest span still held
  std::size_t pos_ = 0;   // first byte of the next line
  std::size_t end_ = 0;   // end of the bytes read
  std::size_t line_no_ = 0;
  bool eof_ = false;
};

}  // namespace psmgen::trace

#include "trace/line_reader.hpp"

#include <cstring>

#include "common/strings.hpp"

namespace psmgen::trace {

namespace {
/// A printable ASCII character other than the space: never whitespace.
bool isGraph(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u > ' ' && u < 0x7F;
}
}  // namespace

// Room for a block read ahead while a block's worth of lines is held.
LineReader::LineReader(std::istream& is) : is_(&is), buf_(2 * kBlockBytes) {}

bool LineReader::fill() {
  if (eof_) return false;
  if (buf_.size() - end_ < kBlockBytes) {
    std::memmove(buf_.data(), buf_.data() + base_, end_ - base_);
    pos_ -= base_;
    end_ -= base_;
    base_ = 0;
    // The buffer holds at least two blocks, so doubling leaves room.
    if (buf_.size() - end_ < kBlockBytes) buf_.resize(2 * buf_.size());
  }
  is_->read(buf_.data() + end_, static_cast<std::streamsize>(kBlockBytes));
  const auto got = static_cast<std::size_t>(is_->gcount());
  end_ += got;
  // read() returns short only at the end of the stream (or on an error).
  eof_ = got < kBlockBytes;
  return got > 0;
}

bool LineReader::nextLine(Span& line) {
  std::size_t scanned = 0;  // bytes after pos_ known to hold no '\n'
  for (;;) {
    const char* from = buf_.data() + pos_ + scanned;
    const auto* nl = static_cast<const char*>(
        std::memchr(from, '\n', end_ - pos_ - scanned));
    if (nl != nullptr) {
      const auto stop = static_cast<std::size_t>(nl - buf_.data());
      line = {pos_ - base_, stop - pos_, ++line_no_};
      pos_ = stop + 1;
      return true;
    }
    scanned = end_ - pos_;
    if (!fill()) break;
  }
  if (pos_ == end_) return false;
  line = {pos_ - base_, end_ - pos_, ++line_no_};
  pos_ = end_;
  return true;
}

bool LineReader::nextNonBlank(Span& line) {
  while (nextLine(line)) {
    const std::string_view raw = text(line);
    // Most lines have nothing to trim; skip the per-character test.
    if (!raw.empty() && isGraph(raw.front()) && isGraph(raw.back())) {
      return true;
    }
    const std::string_view trimmed = common::trimView(raw);
    if (trimmed.empty()) continue;
    line.offset += static_cast<std::size_t>(trimmed.data() - raw.data());
    line.length = trimmed.size();
    return true;
  }
  return false;
}

}  // namespace psmgen::trace

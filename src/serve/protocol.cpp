#include "serve/protocol.hpp"

#include <cstring>

namespace psmgen::serve {

namespace {

void putU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void putU16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) putU8(out, (v >> (8 * i)) & 0xFF);
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) putU8(out, (v >> (8 * i)) & 0xFF);
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) putU8(out, (v >> (8 * i)) & 0xFF);
}

void putF64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  putU64(out, bits);
}

void putString(std::string& out, const std::string& s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian reader over a payload.
class Reader {
 public:
  Reader(const std::vector<std::uint8_t>& payload, const char* what)
      : data_(payload.data()), size_(payload.size()), what_(what) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(uint(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint(4)); }
  std::uint64_t u64() { return uint(8); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  const std::uint8_t* bytes(std::size_t n) {
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  /// Every payload decoder ends with this: trailing bytes mean the peer
  /// and we disagree about the layout, which is never recoverable.
  void done() const {
    if (pos_ != size_) {
      throw ProtocolError(ErrorCode::Protocol,
                          std::string(what_) + ": trailing payload bytes");
    }
  }

 private:
  std::uint64_t uint(int bytes) {
    need(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw ProtocolError(ErrorCode::Protocol,
                          std::string(what_) + ": truncated payload");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

std::size_t rowBytes(const trace::VariableSet& vars) {
  std::size_t n = 0;
  for (const auto& v : vars.all()) n += (v.width + 7) / 8;
  return n;
}

void putBitVector(std::string& out, const common::BitVector& v) {
  const std::size_t nbytes = (v.width() + 7) / 8;
  for (std::size_t i = 0; i < nbytes; ++i) {
    putU8(out, static_cast<std::uint8_t>(v.limb(i / 8) >> (8 * (i % 8))));
  }
}

void readBitVector(const std::uint8_t* bytes, unsigned width,
                   common::BitVector& v) {
  // Bits above `width` in the last byte must be zero: a peer setting them
  // is packing against a different variable set than it negotiated.
  const unsigned nbytes = (width + 7) / 8;
  const unsigned spare = 8 * nbytes - width;
  if (spare != 0 &&
      (bytes[nbytes - 1] >> (8 - spare)) != 0) {
    throw ProtocolError(ErrorCode::Protocol,
                        "rows: nonzero padding bits in packed value");
  }
  v.assignBytes(bytes, width);
}

}  // namespace

const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::VersionMismatch: return "version_mismatch";
    case ErrorCode::BadVariables: return "bad_variables";
    case ErrorCode::BadModel: return "bad_model";
    case ErrorCode::Protocol: return "protocol";
    case ErrorCode::Busy: return "busy";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::IdleTimeout: return "idle_timeout";
    case ErrorCode::Oversized: return "oversized";
    case ErrorCode::Internal: return "internal";
  }
  return "unknown";
}

std::string encodeFrame(FrameType type, const std::uint8_t* payload,
                        std::size_t size) {
  std::string out;
  out.reserve(5 + size);
  putU8(out, static_cast<std::uint8_t>(type));
  putU32(out, static_cast<std::uint32_t>(size));
  if (size != 0) {
    out.append(reinterpret_cast<const char*>(payload), size);
  }
  return out;
}

namespace {
std::string finishFrame(FrameType type, const std::string& payload) {
  return encodeFrame(type,
                     reinterpret_cast<const std::uint8_t*>(payload.data()),
                     payload.size());
}
}  // namespace

std::string encodeHello(const HelloRequest& hello) {
  std::string p;
  putU32(p, hello.version);
  putString(p, hello.model_id);
  putString(p, hello.variables);
  return finishFrame(FrameType::Hello, p);
}

std::string encodeHelloOk(const HelloReply& reply) {
  std::string p;
  putU32(p, reply.version);
  putString(p, reply.model_id);
  putU32(p, reply.psm_format_version);
  putU32(p, reply.states);
  putU32(p, reply.transitions);
  putString(p, reply.variables);
  return finishFrame(FrameType::HelloOk, p);
}

std::string encodeRows(
    const std::vector<std::vector<common::BitVector>>& rows) {
  std::string p;
  putU32(p, static_cast<std::uint32_t>(rows.size()));
  for (const auto& row : rows) {
    for (const auto& v : row) putBitVector(p, v);
  }
  return finishFrame(FrameType::Rows, p);
}

std::string encodeEst(const std::vector<EstRow>& rows) {
  std::string p;
  putU32(p, static_cast<std::uint32_t>(rows.size()));
  for (const EstRow& r : rows) {
    putF64(p, r.estimate);
    putU8(p, r.flags);
  }
  return finishFrame(FrameType::Est, p);
}

std::string encodeFin() { return finishFrame(FrameType::Fin, ""); }

std::string encodeFinAck(const FinSummary& summary) {
  std::string p;
  putU64(p, summary.rows);
  putU64(p, summary.predictions);
  putU64(p, summary.wrong_predictions);
  putU64(p, summary.unexpected_behaviours);
  putU64(p, summary.lost_instants);
  putU64(p, summary.resyncs);
  putU8(p, summary.drift_status);
  return finishFrame(FrameType::FinAck, p);
}

std::string encodeError(const ErrorFrame& error) {
  std::string p;
  putU16(p, static_cast<std::uint16_t>(error.code));
  putString(p, error.message);
  return finishFrame(FrameType::Error, p);
}

HelloRequest decodeHello(const std::vector<std::uint8_t>& payload) {
  Reader r(payload, "hello");
  HelloRequest hello;
  hello.version = r.u32();
  hello.model_id = r.str();
  hello.variables = r.str();
  r.done();
  return hello;
}

HelloReply decodeHelloOk(const std::vector<std::uint8_t>& payload) {
  Reader r(payload, "hello_ok");
  HelloReply reply;
  reply.version = r.u32();
  reply.model_id = r.str();
  reply.psm_format_version = r.u32();
  reply.states = r.u32();
  reply.transitions = r.u32();
  reply.variables = r.str();
  r.done();
  return reply;
}

std::vector<std::vector<common::BitVector>> decodeRows(
    const std::vector<std::uint8_t>& payload, const trace::VariableSet& vars) {
  std::vector<std::vector<common::BitVector>> rows;
  decodeRowsInto(payload, vars, rows);
  return rows;
}

void decodeRowsInto(const std::vector<std::uint8_t>& payload,
                    const trace::VariableSet& vars,
                    std::vector<std::vector<common::BitVector>>& rows) {
  Reader r(payload, "rows");
  const std::uint32_t count = r.u32();
  const std::size_t stride = rowBytes(vars);
  // Arity is checked up front so the error names the real problem
  // instead of a generic truncation mid-row.
  if (payload.size() != 4 + static_cast<std::size_t>(count) * stride) {
    throw ProtocolError(ErrorCode::Protocol,
                        "rows: payload size does not match row count");
  }
  rows.resize(count);
  for (auto& row : rows) {
    row.resize(vars.size());
    for (std::size_t k = 0; k < vars.size(); ++k) {
      const unsigned width = vars[k].width;
      readBitVector(r.bytes((width + 7) / 8), width, row[k]);
    }
  }
  r.done();
}

std::vector<EstRow> decodeEst(const std::vector<std::uint8_t>& payload) {
  Reader r(payload, "est");
  const std::uint32_t count = r.u32();
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 9) {
    throw ProtocolError(ErrorCode::Protocol,
                        "est: payload size does not match row count");
  }
  std::vector<EstRow> rows;
  rows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EstRow row;
    row.estimate = r.f64();
    row.flags = r.u8();
    rows.push_back(row);
  }
  r.done();
  return rows;
}

FinSummary decodeFinAck(const std::vector<std::uint8_t>& payload) {
  Reader r(payload, "fin_ack");
  FinSummary s;
  s.rows = r.u64();
  s.predictions = r.u64();
  s.wrong_predictions = r.u64();
  s.unexpected_behaviours = r.u64();
  s.lost_instants = r.u64();
  s.resyncs = r.u64();
  s.drift_status = r.u8();
  r.done();
  return s;
}

ErrorFrame decodeError(const std::vector<std::uint8_t>& payload) {
  Reader r(payload, "error");
  ErrorFrame e;
  e.code = static_cast<ErrorCode>(r.u16());
  e.message = r.str();
  r.done();
  return e;
}

void FrameDecoder::feed(const void* data, std::size_t size) {
  // Compact lazily: the consumed prefix is dropped once it dominates the
  // buffer, so feeding byte-at-a-time stays linear, not quadratic.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 5) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  const std::uint8_t type = head[0];
  if (type < static_cast<std::uint8_t>(FrameType::Hello) ||
      type > static_cast<std::uint8_t>(FrameType::Error)) {
    throw ProtocolError(ErrorCode::Protocol, "unknown frame type " +
                                                 std::to_string(type));
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(head[1 + i]) << (8 * i);
  }
  if (len > max_payload_) {
    throw ProtocolError(ErrorCode::Oversized,
                        "frame payload of " + std::to_string(len) +
                            " bytes exceeds the cap of " +
                            std::to_string(max_payload_));
  }
  if (avail < 5 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(head + 5, head + 5 + len);
  consumed_ += 5 + static_cast<std::size_t>(len);
  return frame;
}

}  // namespace psmgen::serve

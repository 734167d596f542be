#pragma once
// Wire protocol of the concurrent prediction service (psmgen.serve.v1).
//
// A session is a single TCP connection speaking length-prefixed binary
// frames. Every frame is
//
//   +------+-------------+----------------------+
//   | type | payload_len | payload              |
//   | u8   | u32 LE      | payload_len bytes    |
//   +------+-------------+----------------------+
//
// and the conversation is
//
//   client                                server
//     | -- Hello {version, model, vars} --> |   negotiate
//     | <-- HelloOk {model shape, vars} --  |
//     | -- Rows {n, packed rows} ---------> |   repeated
//     | <-- Est {n, estimate+flags rows} -- |
//     | -- Fin ---------------------------> |
//     | <-- FinAck {session summary} -----  |
//
// with Error {code, message} possible from the server at any point,
// after which the server closes the connection. The protocol version is
// negotiated in Hello: a client speaking a different version is rejected
// with ErrorCode::VersionMismatch before any row is accepted, and the
// variable declaration (the same "name:kind:width,..." line the CSV
// trace format uses) must match the served model's domain exactly —
// a silent width mismatch would corrupt every estimate after it.
//
// Row packing: each row carries one value per trace variable, in
// variable-set order; each value occupies ceil(width/8) bytes,
// little-endian (bit i of the value is bit i%8 of byte i/8). Estimates
// come back as one IEEE-754 double (little-endian) plus one flags byte
// per row, so violations ride the estimate stream instead of needing a
// side channel.
//
// Everything here is pure bytes-in/bytes-out (no sockets): the codec is
// exercised by tests/test_serve_protocol.cpp against golden byte
// strings, short reads split at every byte boundary, and garbage input.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "trace/variable.hpp"

namespace psmgen::serve {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard cap on a single frame's payload; a frame claiming more is a
/// protocol error, not an allocation.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  Hello = 1,
  HelloOk = 2,
  Rows = 3,
  Est = 4,
  Fin = 5,
  FinAck = 6,
  Error = 7,
};

/// Wire error codes carried by Error frames.
enum class ErrorCode : std::uint16_t {
  VersionMismatch = 1,  ///< Hello.version != kProtocolVersion
  BadVariables = 2,     ///< Hello variable declaration != model domain
  BadModel = 3,         ///< Hello names a model this server does not serve
  Protocol = 4,         ///< malformed frame or frame out of sequence
  Busy = 5,             ///< session cap reached, try another replica
  Draining = 6,         ///< server is draining; finish elsewhere
  IdleTimeout = 7,      ///< no bytes from the client within the deadline
  Oversized = 8,        ///< frame payload exceeded the negotiated cap
  Internal = 9,         ///< predictor failure; see message
};

const char* errorCodeName(ErrorCode code);

/// Per-row flags in an Est frame (bitwise OR).
inline constexpr std::uint8_t kEstFlagLost = 0x1;
inline constexpr std::uint8_t kEstFlagWrongPrediction = 0x2;
inline constexpr std::uint8_t kEstFlagUnexpected = 0x4;
inline constexpr std::uint8_t kEstFlagResync = 0x8;

/// Raised by every decode helper on malformed bytes. `code` is the wire
/// error a server should answer with before closing.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

struct Frame {
  FrameType type = FrameType::Error;
  std::vector<std::uint8_t> payload;

  bool operator==(const Frame&) const = default;
};

struct HelloRequest {
  std::uint32_t version = kProtocolVersion;
  /// Model the client expects to talk to; empty accepts whatever the
  /// server serves.
  std::string model_id;
  /// "name:kind:width,..." — must equal the served model's declaration.
  std::string variables;

  bool operator==(const HelloRequest&) const = default;
};

struct HelloReply {
  std::uint32_t version = kProtocolVersion;
  std::string model_id;
  std::uint32_t psm_format_version = 0;
  std::uint32_t states = 0;
  std::uint32_t transitions = 0;
  std::string variables;

  bool operator==(const HelloReply&) const = default;
};

struct EstRow {
  double estimate = 0.0;
  std::uint8_t flags = 0;

  bool operator==(const EstRow&) const = default;
};

struct FinSummary {
  std::uint64_t rows = 0;
  std::uint64_t predictions = 0;
  std::uint64_t wrong_predictions = 0;
  std::uint64_t unexpected_behaviours = 0;
  std::uint64_t lost_instants = 0;
  std::uint64_t resyncs = 0;
  /// runtime::DriftStatus as an integer (0 Ok / 1 Degraded / 2 Drifted).
  std::uint8_t drift_status = 0;

  bool operator==(const FinSummary&) const = default;
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::Internal;
  std::string message;

  bool operator==(const ErrorFrame&) const = default;
};

// --- frame encoding (header + payload, ready for send()) ---------------

std::string encodeFrame(FrameType type, const std::uint8_t* payload,
                        std::size_t size);
std::string encodeHello(const HelloRequest& hello);
std::string encodeHelloOk(const HelloReply& reply);
std::string encodeRows(const std::vector<std::vector<common::BitVector>>& rows);
std::string encodeEst(const std::vector<EstRow>& rows);
std::string encodeFin();
std::string encodeFinAck(const FinSummary& summary);
std::string encodeError(const ErrorFrame& error);

// --- payload decoding ---------------------------------------------------

HelloRequest decodeHello(const std::vector<std::uint8_t>& payload);
HelloReply decodeHelloOk(const std::vector<std::uint8_t>& payload);
/// Rows are decoded against the served model's variable set (widths fix
/// the per-row byte layout). Throws ProtocolError on any inconsistency.
std::vector<std::vector<common::BitVector>> decodeRows(
    const std::vector<std::uint8_t>& payload, const trace::VariableSet& vars);
/// decodeRows into caller-owned storage: `rows` is resized to the frame's
/// row count and every value overwritten in place, so a buffer reused
/// across frames of the same size decodes without heap allocation. Same
/// errors; `rows` holds unspecified values after a throw.
void decodeRowsInto(const std::vector<std::uint8_t>& payload,
                    const trace::VariableSet& vars,
                    std::vector<std::vector<common::BitVector>>& rows);
std::vector<EstRow> decodeEst(const std::vector<std::uint8_t>& payload);
FinSummary decodeFinAck(const std::vector<std::uint8_t>& payload);
ErrorFrame decodeError(const std::vector<std::uint8_t>& payload);

/// Incremental frame splitter: feed() raw socket bytes in any
/// granularity, next() pops complete frames. A frame claiming a payload
/// above `max_payload` or an unknown frame type throws ProtocolError the
/// moment the header is readable — before any payload is buffered.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(const void* data, std::size_t size);
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace psmgen::serve

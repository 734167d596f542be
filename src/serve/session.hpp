#pragma once
// Per-connection protocol state machine of the prediction service.
//
// One Session owns one runtime::OnlinePredictor + QualityMonitor pair
// over the server's shared immutable model, and turns request bytes into
// response bytes:
//
//            Hello ok              Fin
//   AwaitHello ------> Streaming ------> Done
//        |                 |
//        +---- any error --+----------> Failed   (Error frame emitted,
//                                                 connection closes)
//
// The session is pure bytes-in/bytes-out — it never touches a socket —
// so the whole protocol surface (negotiation, row prediction, violation
// flags, rate limiting, summaries, every error path) is unit-testable
// without networking, and the server's connection loop stays a dumb
// read/feed/write pump. Backpressure falls out of that shape: the pump
// does not read more input until the previous output is fully written,
// so a client that stops reading stops being read from.
//
// Rate limiting: with Config::rows_per_second > 0, a token-bucket
// (obs::RateLimiter, one per session) is charged per predicted row;
// when the bucket runs dry the session sleeps inside consume() until a
// token accrues — the connection thread stalls, TCP pushes back, rows
// are never dropped. Each stall increments serve.backpressure_stalls.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/quality_monitor.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace psmgen::serve {

class Session {
 public:
  struct Config {
    /// Identity announced in HelloOk and matched against a non-empty
    /// HelloRequest::model_id.
    std::string model_id;
    std::size_t max_frame_payload = kMaxFramePayload;
    /// Per-session row throughput cap; 0 disables the limiter.
    double rows_per_second = 0.0;
    /// QualityMonitor drift thresholds for this session's stream.
    runtime::QualityMonitorConfig quality;
  };

  enum class State { AwaitHello, Streaming, Done, Failed };

  /// `model` must outlive the session (it is the server's shared
  /// immutable model; the session only ever reads it).
  Session(const serialize::PsmModel& model, Config config);

  /// Attaches the server's live-registry record: the session mirrors its
  /// progress (rows, frames, violation counters, drift status) into it
  /// and stamps its flight-recorder events with the record's id. Optional
  /// — the stdio mode and protocol unit tests run without one.
  void bindRecord(std::shared_ptr<SessionRecord> record);

  /// The bound record's id (0 when unbound); doubles as the session id
  /// in flight events and log lines.
  std::uint64_t id() const { return record_ ? record_->id : 0; }

  /// Feeds raw connection bytes; protocol responses are appended to
  /// `out`. Returns false once the session is terminal (Done/Failed) and
  /// the connection should be closed after flushing `out`.
  bool consume(const void* data, std::size_t size, std::string& out);

  /// Graceful-drain interrupt: emits Error{Draining} (in-flight frames
  /// already consumed have been fully answered) and turns terminal.
  void abort(ErrorCode code, const std::string& message, std::string& out);

  State state() const { return state_; }
  const runtime::PredictorStats& stats() const { return predictor_.stats(); }
  runtime::DriftStatus driftStatus() const { return monitor_.status(); }
  /// Rows predicted by this session (streamed, not yet summarized).
  std::size_t rows() const { return rows_; }

  /// The FinAck summary for the current stream state (also what a drain
  /// abort loses; exposed for logging and tests).
  FinSummary summary() const;

 private:
  bool handleFrame(const Frame& frame, std::string& out);
  void fail(ErrorCode code, const std::string& message, std::string& out);
  /// Mirrors predictor stats + state into the bound record (no-op when
  /// unbound).
  void syncRecord();

  const serialize::PsmModel& model_;
  Config config_;
  runtime::OnlinePredictor predictor_;
  runtime::QualityMonitor monitor_;
  FrameDecoder decoder_;
  /// Decoded rows of the current frame, reused across frames.
  std::vector<std::vector<common::BitVector>> rows_buf_;
  std::unique_ptr<obs::RateLimiter> limiter_;  ///< null when unlimited
  std::shared_ptr<SessionRecord> record_;      ///< null when unbound
  State state_ = State::AwaitHello;
  std::size_t rows_ = 0;
};

}  // namespace psmgen::serve

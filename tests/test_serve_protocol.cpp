// Wire-codec tests for the prediction service protocol (serve/): golden
// byte strings, encode/decode round-trips including multi-limb values,
// the incremental FrameDecoder against short reads split at every byte
// boundary, malformed/oversized/garbage frames, and the Session state
// machine's negotiation error paths — all pure bytes-in/bytes-out, no
// sockets.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "core/proposition.hpp"
#include "core/psm.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "trace/trace_io.hpp"

namespace psmgen {
namespace {

using common::BitVector;
using namespace serve;

std::vector<std::uint8_t> payloadOf(const std::string& frame) {
  // Strip the 5-byte header; the decoder tests cover it separately.
  EXPECT_GE(frame.size(), 5u);
  return std::vector<std::uint8_t>(frame.begin() + 5, frame.end());
}

Frame decodeWhole(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto frame = decoder.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
  return *frame;
}

// --- golden bytes -------------------------------------------------------

TEST(ServeProtocol, HelloGoldenBytes) {
  HelloRequest hello;
  hello.version = 1;
  hello.model_id = "m";
  hello.variables = "a:in:3";
  const std::string bytes = encodeHello(hello);
  const std::uint8_t expected[] = {
      0x01,                          // FrameType::Hello
      0x13, 0x00, 0x00, 0x00,        // payload_len = 19
      0x01, 0x00, 0x00, 0x00,        // version = 1
      0x01, 0x00, 0x00, 0x00, 'm',   // model_id = "m"
      0x06, 0x00, 0x00, 0x00,        // variables length
      'a',  ':',  'i',  'n',  ':',  '3',
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

TEST(ServeProtocol, EstGoldenBytes) {
  const std::string bytes = encodeEst({{1.5, kEstFlagResync}});
  const std::uint8_t expected[] = {
      0x04,                          // FrameType::Est
      0x0d, 0x00, 0x00, 0x00,        // payload_len = 13
      0x01, 0x00, 0x00, 0x00,        // count = 1
      // 1.5 as IEEE-754 double, little-endian
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,
      0x08,                          // flags = Resync
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

TEST(ServeProtocol, FinIsHeaderOnly) {
  const std::string bytes = encodeFin();
  const std::uint8_t expected[] = {0x05, 0x00, 0x00, 0x00, 0x00};
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

TEST(ServeProtocol, ErrorGoldenBytes) {
  const std::string bytes = encodeError({ErrorCode::Busy, "no"});
  const std::uint8_t expected[] = {
      0x07,                    // FrameType::Error
      0x08, 0x00, 0x00, 0x00,  // payload_len = 8
      0x05, 0x00,              // code = Busy (u16)
      0x02, 0x00, 0x00, 0x00,  // message length
      'n',  'o',
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(0, std::memcmp(bytes.data(), expected, sizeof(expected)));
}

// --- round-trips --------------------------------------------------------

TEST(ServeProtocol, HelloRoundTrip) {
  HelloRequest hello;
  hello.version = 7;
  hello.model_id = "models/ram.psm";
  hello.variables = "clk:in:1,addr:in:16";
  const Frame frame = decodeWhole(encodeHello(hello));
  EXPECT_EQ(frame.type, FrameType::Hello);
  EXPECT_EQ(decodeHello(frame.payload), hello);
}

TEST(ServeProtocol, HelloOkRoundTrip) {
  HelloReply reply;
  reply.version = kProtocolVersion;
  reply.model_id = "ram";
  reply.psm_format_version = 3;
  reply.states = 12;
  reply.transitions = 40;
  reply.variables = "a:in:3,b:out:9";
  EXPECT_EQ(decodeHelloOk(payloadOf(encodeHelloOk(reply))), reply);
}

TEST(ServeProtocol, EstRoundTripIncludingNonFinite) {
  const std::vector<EstRow> rows = {
      {0.0, 0},
      {-1.25e-3, kEstFlagLost | kEstFlagUnexpected},
      {std::numeric_limits<double>::infinity(), kEstFlagWrongPrediction},
  };
  EXPECT_EQ(decodeEst(payloadOf(encodeEst(rows))), rows);
}

TEST(ServeProtocol, FinAckRoundTrip) {
  FinSummary s;
  s.rows = 1u << 20;
  s.predictions = 99999;
  s.wrong_predictions = 7;
  s.unexpected_behaviours = 3;
  s.lost_instants = 11;
  s.resyncs = 2;
  s.drift_status = 2;
  EXPECT_EQ(decodeFinAck(payloadOf(encodeFinAck(s))), s);
}

TEST(ServeProtocol, ErrorRoundTrip) {
  const ErrorFrame e{ErrorCode::Draining, "server is draining"};
  EXPECT_EQ(decodeError(payloadOf(encodeError(e))), e);
}

TEST(ServeProtocol, RowsRoundTripWithMultiLimbValues) {
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  vars.add("bus", 262, trace::VarKind::Input);  // 5 limbs, 6 spare bits
  vars.add("q", 8, trace::VarKind::Output);

  BitVector wide(262);
  for (unsigned bit : {0u, 7u, 63u, 64u, 128u, 200u, 261u}) {
    wide.setBit(bit, true);
  }
  const std::vector<std::vector<BitVector>> rows = {
      {BitVector(1, 1), wide, BitVector(8, 0xA5)},
      {BitVector(1, 0), BitVector(262), BitVector(8, 0xFF)},
  };
  EXPECT_EQ(decodeRows(payloadOf(encodeRows(rows)), vars), rows);
  // A reused buffer holding more, wider and differently shaped rows is
  // overwritten exactly.
  std::vector<std::vector<BitVector>> reused = {
      {BitVector::ones(300)}, {}, {BitVector::ones(5), wide, wide, wide}};
  decodeRowsInto(payloadOf(encodeRows(rows)), vars, reused);
  EXPECT_EQ(reused, rows);
}

TEST(ServeProtocol, RowsRejectNonzeroPaddingBits) {
  trace::VariableSet vars;
  vars.add("v", 3, trace::VarKind::Input);  // 1 byte, 5 padding bits
  std::string frame = encodeRows({{BitVector(3, 0x7)}});
  frame.back() = static_cast<char>(0x87);  // set a bit above width 3
  const Frame f = decodeWhole(frame);
  try {
    decodeRows(f.payload, vars);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Protocol);
    EXPECT_NE(std::string(e.what()).find("padding"), std::string::npos);
  }
}

TEST(ServeProtocol, RowsRejectCountMismatch) {
  trace::VariableSet vars;
  vars.add("v", 8, trace::VarKind::Input);
  std::string frame = encodeRows({{BitVector(8, 1)}, {BitVector(8, 2)}});
  frame[5] = 3;  // claim 3 rows; payload carries 2
  const Frame f = decodeWhole(frame);
  EXPECT_THROW(decodeRows(f.payload, vars), ProtocolError);
}

TEST(ServeProtocol, TruncatedPayloadsThrowNotRead) {
  // Every decoder must fail cleanly on a payload cut anywhere, and on
  // trailing garbage after a well-formed payload.
  const std::string hello = encodeHello({1, "model", "a:in:3"});
  const std::vector<std::uint8_t> payload = payloadOf(hello);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<std::uint8_t> prefix(payload.begin(),
                                     payload.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decodeHello(prefix), ProtocolError) << "cut at " << cut;
  }
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW(decodeHello(trailing), ProtocolError);
  EXPECT_THROW(decodeFinAck({}), ProtocolError);
  EXPECT_THROW(decodeError({0x01}), ProtocolError);
  EXPECT_THROW(decodeEst({0x01, 0x00, 0x00, 0x00}), ProtocolError);
}

// --- FrameDecoder -------------------------------------------------------

TEST(ServeFrameDecoder, ReassemblesAcrossEveryShortReadBoundary) {
  const std::string a = encodeHello({1, "ram", "a:in:3,b:out:9"});
  const std::string b = encodeEst({{2.5, 0}, {3.5, kEstFlagLost}});
  const std::string c = encodeFin();
  const std::string stream = a + b + c;
  const Frame fa = decodeWhole(a);
  const Frame fb = decodeWhole(b);
  const Frame fc = decodeWhole(c);

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), split);
    std::vector<Frame> got;
    while (auto f = decoder.next()) got.push_back(*f);
    decoder.feed(stream.data() + split, stream.size() - split);
    while (auto f = decoder.next()) got.push_back(*f);
    ASSERT_EQ(got.size(), 3u) << "split at " << split;
    EXPECT_EQ(got[0], fa);
    EXPECT_EQ(got[1], fb);
    EXPECT_EQ(got[2], fc);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(ServeFrameDecoder, ByteAtATimeStaysLinearAndCorrect) {
  const std::string stream =
      encodeHello({1, "", ""}) + encodeFin() + encodeFin();
  FrameDecoder decoder;
  std::size_t frames = 0;
  for (const char ch : stream) {
    decoder.feed(&ch, 1);
    while (decoder.next()) ++frames;
  }
  EXPECT_EQ(frames, 3u);
}

TEST(ServeFrameDecoder, IncompleteHeaderYieldsNothing) {
  FrameDecoder decoder;
  const std::uint8_t partial[] = {0x03, 0x10, 0x00, 0x00};
  decoder.feed(partial, sizeof(partial));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 4u);
}

TEST(ServeFrameDecoder, UnknownTypeThrowsImmediately) {
  FrameDecoder decoder;
  const std::uint8_t garbage[] = {0x63, 0x01, 0x00, 0x00, 0x00};
  decoder.feed(garbage, sizeof(garbage));
  try {
    decoder.next();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Protocol);
  }
}

TEST(ServeFrameDecoder, OversizedFrameThrowsBeforeBufferingPayload) {
  FrameDecoder decoder(/*max_payload=*/16);
  // Header claims a 17-byte payload; only the header is fed — the cap
  // must trip on the claim, not after allocation.
  const std::uint8_t header[] = {0x03, 0x11, 0x00, 0x00, 0x00};
  decoder.feed(header, sizeof(header));
  try {
    decoder.next();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Oversized);
  }
}

TEST(ServeFrameDecoder, ZeroLengthPayloadFramesAreValid) {
  FrameDecoder decoder;
  const std::string fin = encodeFin();
  decoder.feed(fin.data(), fin.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::Fin);
  EXPECT_TRUE(frame->payload.empty());
}

// --- Session negotiation ------------------------------------------------

/// A tiny hand-built model (mirrors test_serialize's TinyModel): enough
/// structure for the Session to negotiate and predict without paying for
/// a real characterization run.
serialize::PsmModel tinyModel() {
  trace::VariableSet vars;
  vars.add("en", 1, trace::VarKind::Input);
  vars.add("q", 8, trace::VarKind::Output);

  std::vector<core::AtomicProposition> atoms(1);
  atoms[0].lhs = 0;
  atoms[0].op = core::CmpOp::Eq;
  atoms[0].rhs_const = BitVector(1, 1);

  core::PropositionDomain domain(vars, atoms);
  const core::PropId p0 = domain.intern(core::Signature({false}));
  const core::PropId p1 = domain.intern(core::Signature({true}));

  core::Psm psm;
  core::PowerState idle;
  idle.assertion.alts = {{{p0, p0, true}}};
  idle.power = core::PowerAttr::single(1.0e-3, 1.0e-4, 10);
  psm.addState(std::move(idle));
  core::PowerState active;
  active.assertion.alts = {{{p1, p1, true}}};
  active.power = core::PowerAttr::single(5.0e-3, 2.0e-4, 10);
  psm.addState(std::move(active));
  psm.addTransition({0, 1, p1, 1});
  psm.addTransition({1, 0, p0, 1});
  psm.addInitial(0);
  return {std::move(domain), std::move(psm)};
}

/// Feeds bytes and splits the response back into frames.
std::vector<Frame> pump(Session& session, const std::string& bytes) {
  std::string out;
  session.consume(bytes.data(), bytes.size(), out);
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  std::vector<Frame> frames;
  while (auto f = decoder.next()) frames.push_back(*f);
  return frames;
}

TEST(ServeSession, HelloNegotiatesAndReportsModelShape) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, {.model_id = "tiny"});
  const auto frames = pump(session, encodeHello({kProtocolVersion, "", ""}));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::HelloOk);
  const HelloReply reply = decodeHelloOk(frames[0].payload);
  EXPECT_EQ(reply.version, kProtocolVersion);
  EXPECT_EQ(reply.model_id, "tiny");
  EXPECT_EQ(reply.states, 2u);
  EXPECT_EQ(reply.transitions, 2u);
  EXPECT_EQ(reply.variables,
            trace::formatVariableDeclaration(model.domain.variables()));
  EXPECT_EQ(session.state(), Session::State::Streaming);
}

TEST(ServeSession, VersionMismatchIsRejectedBeforeAnyRow) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, {.model_id = "tiny"});
  const auto frames = pump(session, encodeHello({2, "", ""}));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::Error);
  EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::VersionMismatch);
  EXPECT_EQ(session.state(), Session::State::Failed);
}

TEST(ServeSession, WrongModelIdAndVariablesAreRejected) {
  const serialize::PsmModel model = tinyModel();
  {
    Session session(model, {.model_id = "tiny"});
    const auto frames =
        pump(session, encodeHello({kProtocolVersion, "other", ""}));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::BadModel);
  }
  {
    Session session(model, {.model_id = "tiny"});
    const auto frames = pump(
        session, encodeHello({kProtocolVersion, "tiny", "bogus:in:1"}));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::BadVariables);
  }
}

TEST(ServeSession, RowsBeforeHelloIsAProtocolError) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, {.model_id = "tiny"});
  const auto frames =
      pump(session, encodeRows({{BitVector(1, 0), BitVector(8, 0)}}));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(decodeError(frames[0].payload).code, ErrorCode::Protocol);
  EXPECT_EQ(session.state(), Session::State::Failed);
}

TEST(ServeSession, StreamsRowsAndSummarizesOnFin) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, {.model_id = "tiny"});
  ASSERT_EQ(pump(session, encodeHello({kProtocolVersion, "tiny", ""})).size(),
            1u);
  std::vector<std::vector<BitVector>> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({BitVector(1, i % 2 ? 1u : 0u), BitVector(8, 0)});
  }
  const auto est_frames = pump(session, encodeRows(rows));
  ASSERT_EQ(est_frames.size(), 1u);
  ASSERT_EQ(est_frames[0].type, FrameType::Est);
  EXPECT_EQ(decodeEst(est_frames[0].payload).size(), rows.size());
  EXPECT_EQ(session.rows(), rows.size());

  const auto fin_frames = pump(session, encodeFin());
  ASSERT_EQ(fin_frames.size(), 1u);
  ASSERT_EQ(fin_frames[0].type, FrameType::FinAck);
  EXPECT_EQ(decodeFinAck(fin_frames[0].payload).rows, rows.size());
  EXPECT_EQ(session.state(), Session::State::Done);
}

TEST(ServeSession, GarbageBytesFailTheSessionWithAnErrorFrame) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, {.model_id = "tiny"});
  const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  std::string out;
  EXPECT_FALSE(session.consume(garbage, sizeof(garbage), out));
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::Error);
  EXPECT_EQ(session.state(), Session::State::Failed);
}

TEST(ServeSession, AbortEmitsTheGivenCodeOnce) {
  const serialize::PsmModel model = tinyModel();
  Session session(model, {.model_id = "tiny"});
  std::string out;
  session.abort(ErrorCode::Draining, "server is draining", out);
  FrameDecoder decoder;
  decoder.feed(out.data(), out.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decodeError(frame->payload).code, ErrorCode::Draining);
  // A second abort on a terminal session is a no-op.
  std::string again;
  session.abort(ErrorCode::IdleTimeout, "idle", again);
  EXPECT_TRUE(again.empty());
}

}  // namespace
}  // namespace psmgen

// serve: a serve::PredictionServer on loopback serves the AES model to two
// closed-loop serve::Client sessions, one thread each (with the server's
// two connection threads they fill four cores). Each session streams the
// held-out AES trace in 32-row frames, byte-compares every estimate with
// a bare OnlinePredictor's and checks the FinAck summary, then starts
// over. An operation is one frame; a latency sample is one frame round
// trip as the client sees it.
//
// The traced run times encodeRows and the socket round trip per frame on
// the live sessions, then replays the same frame bytes in-process through
// serve::Session::consume (all the server-side work) and, split by call,
// through FrameDecoder + decodeRows, QualityMonitor::predictRow and
// encodeEst. socket = round trip - consume.

#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "expected.hpp"
#include "models.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/quality_monitor.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace perfbench {

namespace {

using namespace psmgen;
using Rows = std::vector<std::vector<common::BitVector>>;

constexpr std::size_t kFrameRows = 32;
constexpr std::size_t kSessions = 2;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kFlightEvents = 1024;  // `psmgen serve`'s default

struct Workload {
  std::string model_id;
  const serialize::PsmModel* model = nullptr;
  std::vector<Rows> frames;
  std::vector<std::string> frame_bytes;  ///< encodeRows(frames[f])
  std::size_t rows = 0;
  /// The bare OnlinePredictor's answer for the whole trace.
  std::vector<double> expected;
  runtime::PredictorStats expected_stats;
};

/// Per-client-thread tallies, merged after join.
struct ClientTally {
  std::uint64_t frames = 0;  ///< Rows frames answered
  std::uint64_t rows = 0;
  std::uint64_t passes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
  /// Per session pass: the p99 frame round trip and the throughput.
  std::vector<double> pass_p99_us;
  std::vector<double> pass_rows_per_s;
  std::vector<std::string> errors;
};

bool sameBits(const std::vector<serve::EstRow>& est,
              const std::vector<double>& expected, std::size_t offset) {
  for (std::size_t i = 0; i < est.size(); ++i) {
    if (std::memcmp(&est[i].estimate, &expected[offset + i], sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

bool sameSummary(const serve::FinSummary& fin, const Workload& w) {
  const runtime::PredictorStats& s = w.expected_stats;
  return fin.rows == w.rows && fin.predictions == s.predictions &&
         fin.wrong_predictions == s.wrong_predictions &&
         fin.unexpected_behaviours == s.unexpected_behaviours &&
         fin.lost_instants == s.lost_instants && fin.resyncs == s.resyncs;
}

void merge(ClientTally& into, const ClientTally& from) {
  into.frames += from.frames;
  into.rows += from.rows;
  into.passes += from.passes;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(),
                         from.latency_us.end());
  into.pass_p99_us.insert(into.pass_p99_us.end(), from.pass_p99_us.begin(),
                          from.pass_p99_us.end());
  into.errors.insert(into.errors.end(), from.errors.begin(),
                     from.errors.end());
}

/// One closed-loop session pass: hello, every frame, fin. With a tracer,
/// the pass is one "phase.serve" span and each frame's encode and round
/// trip get spans.
void clientPass(std::uint16_t port, const Workload& w, ClientTally& tally,
                Tracer* tracer) {
  const auto pass_start = Clock::now();
  std::optional<Tracer::Span> root_span;
  if (tracer) root_span.emplace(*tracer, "phase.serve", 0, 0);
  const std::uint64_t root = tracer ? root_span->id() : 0;
  serve::Client client;
  if (!client.connect(port)) throw std::runtime_error("connect failed");
  {
    std::optional<Tracer::Span> span;
    if (tracer) span.emplace(*tracer, "serve.handshake", root, 0);
    client.hello(w.model_id);
  }
  const std::size_t first_sample = tally.latency_us.size();
  std::size_t offset = 0;
  for (const Rows& frame : w.frames) {
    ++tally.attempted;
    std::vector<serve::EstRow> est;
    const auto t0 = Clock::now();
    if (tracer == nullptr) {
      est = client.predict(frame);
    } else {
      const std::uint64_t op = tracer->newOp();
      Tracer::Span frame_span(*tracer, "bench.frame", root, op);
      std::string bytes;
      {
        Tracer::Span span(*tracer, "serve.encode_rows", frame_span.id(), op);
        bytes = serve::encodeRows(frame);
      }
      Tracer::Span span(*tracer, "serve.round_trip", frame_span.id(), op);
      if (!client.sendRaw(bytes)) throw std::runtime_error("send failed");
      const serve::Frame reply = client.readFrame();
      if (reply.type != serve::FrameType::Est) {
        throw std::runtime_error("expected an Est frame");
      }
      est = serve::decodeEst(reply.payload);
    }
    tally.latency_us.push_back(microsSince(t0));
    if (est.size() != frame.size() || !sameBits(est, w.expected, offset)) {
      ++tally.failed;
      tally.errors.push_back("frame at row " + std::to_string(offset) +
                             " differs from the bare predictor");
    }
    offset += frame.size();
    tally.rows += frame.size();
    ++tally.frames;
  }
  ++tally.attempted;
  serve::FinSummary fin;
  {
    std::optional<Tracer::Span> span;
    if (tracer) span.emplace(*tracer, "serve.handshake", root, 0);
    fin = client.finish();
  }
  if (!sameSummary(fin, w)) {
    ++tally.failed;
    tally.errors.push_back("FinAck summary differs (rows " +
                           std::to_string(fin.rows) + ")");
  }
  ++tally.passes;
  tally.pass_p99_us.push_back(percentile(
      std::vector<double>(tally.latency_us.begin() +
                              static_cast<std::ptrdiff_t>(first_sample),
                          tally.latency_us.end()),
      0.99));
  tally.pass_rows_per_s.push_back(static_cast<double>(w.rows) /
                                  secondsSince(pass_start));
}

struct LiveOutcome {
  /// Sum over sessions of each session's median pass throughput, for the
  /// untraced passes and (with a tracer) the traced ones.
  double rows_per_s = 0.0;
  double traced_rows_per_s = 0.0;
  ClientTally untraced;
  ClientTally traced;
};

/// Runs kSessions client threads, each repeating passes until `budget`
/// seconds have gone by (a started pass always completes). With a tracer,
/// each session alternates untraced and traced passes.
LiveOutcome runSessions(std::uint16_t port, const Workload& w, double budget,
                        Tracer* tracer) {
  std::vector<ClientTally> untraced(kSessions);
  std::vector<ClientTally> traced(kSessions);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      try {
        for (std::size_t pass = 0;
             pass < (tracer ? 2 : 1) || secondsSince(t0) < budget; ++pass) {
          if (tracer && pass % 2 == 1) {
            clientPass(port, w, traced[s], tracer);
          } else {
            clientPass(port, w, untraced[s], nullptr);
          }
        }
      } catch (const std::exception& e) {
        ++untraced[s].failed;
        untraced[s].errors.push_back(std::string("session error: ") +
                                     e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LiveOutcome out;
  for (std::size_t s = 0; s < kSessions; ++s) {
    out.rows_per_s += median(untraced[s].pass_rows_per_s);
    merge(out.untraced, untraced[s]);
    if (tracer) {
      out.traced_rows_per_s += median(traced[s].pass_rows_per_s);
      merge(out.traced, traced[s]);
    }
  }
  return out;
}

struct RegistryCounts {
  std::uint64_t frames = 0;
  std::uint64_t rows = 0;
  std::uint64_t sessions = 0;
};

RegistryCounts readRegistry() {
  obs::Registry& reg = obs::metrics();
  return {reg.counter("serve.frames_total").value(),
          reg.counter("serve.rows_total").value(),
          reg.counter("serve.sessions_total").value()};
}

/// Books a live phase into `result` and checks the server's counters
/// against what the clients sent (Hello + Rows + Fin frames per pass).
void bookLive(const LiveOutcome& live, const RegistryCounts& before,
              const RegistryCounts& after, Result& result) {
  ClientTally total = live.untraced;
  merge(total, live.traced);
  result.attempted += total.attempted;
  if (total.failed > 0) {
    const std::string first = total.errors.empty() ? "" : total.errors.front();
    result.fail(std::to_string(total.failed) +
                    " serve operations failed; first: " + first,
                total.failed);
  }
  const std::uint64_t passes = total.passes;
  if (after.frames - before.frames != total.frames + 2 * passes ||
      after.rows - before.rows != total.rows ||
      after.sessions - before.sessions != passes) {
    result.fail("server registry counters disagree with the client tallies");
  }
}

/// In-process replay through serve::Session::consume, whole passes until
/// `budget` seconds have gone by; returns the frames replayed.
std::size_t replayConsume(const Workload& w, double budget, Tracer& tracer,
                          Result& result) {
  serve::HelloRequest hello;
  hello.model_id = w.model_id;
  const std::string hello_bytes = serve::encodeHello(hello);
  const std::string fin_bytes = serve::encodeFin();
  std::size_t frames = 0;
  const auto t0 = Clock::now();
  do {
    Tracer::Span root_span(tracer, "phase.serve", 0, 0);
    const std::uint64_t root = root_span.id();
    serve::Session::Config config;
    config.model_id = w.model_id;
    serve::Session session(*w.model, config);
    std::string out;
    session.consume(hello_bytes.data(), hello_bytes.size(), out);
    std::string replies;
    for (const std::string& bytes : w.frame_bytes) {
      out.clear();
      {
        Tracer::Span span(tracer, "serve.consume", root, tracer.newOp());
        session.consume(bytes.data(), bytes.size(), out);
      }
      replies += out;
      ++frames;
    }
    out.clear();
    session.consume(fin_bytes.data(), fin_bytes.size(), out);
    std::size_t offset = 0;
    bool same = true;
    {
      Tracer::Span span(tracer, "serve.decode_est", root, 0);
      serve::FrameDecoder decoder;
      decoder.feed(replies.data(), replies.size());
      while (auto frame = decoder.next()) {
        const auto est = serve::decodeEst(frame->payload);
        same = same && offset + est.size() <= w.rows &&
               sameBits(est, w.expected, offset);
        offset += est.size();
      }
    }
    if (!same || offset != w.rows) {
      result.fail("replayed Session::consume estimates differ");
    }
  } while (secondsSince(t0) < budget);
  return frames;
}

struct SplitCounts {
  std::size_t frames = 0;
  std::size_t rows = 0;
};

/// The server's per-frame work split by call: FrameDecoder + decodeRows,
/// QualityMonitor::predictRow, encodeEst; plus per-batch probes of
/// findRow, a bare Session::step and a bare OnlinePredictor::predictRow.
SplitCounts replaySplit(const Workload& w, double budget, Tracer& tracer,
                        Result& result) {
  SplitCounts counts;
  const core::PsmSimulator bare_sim(w.model->psm, w.model->domain);
  const auto t0 = Clock::now();
  do {
    Tracer::Span root_span(tracer, "phase.serve", 0, 0);
    const std::uint64_t root = root_span.id();
    serve::FrameDecoder decoder;
    runtime::OnlinePredictor predictor(*w.model);
    runtime::QualityMonitor monitor(predictor, w.model->psm);
    runtime::OnlinePredictor bare_predictor(*w.model);
    core::PsmSimulator::Session session = bare_sim.startSession();
    std::vector<double> served;
    std::vector<double> stepped;
    std::vector<double> predicted;
    for (const std::string& bytes : w.frame_bytes) {
      const std::uint64_t op = tracer.newOp();
      Rows rows;
      {
        Tracer::Span span(tracer, "serve.decode_rows", root, op);
        decoder.feed(bytes.data(), bytes.size());
        const auto frame = decoder.next();
        if (!frame) throw std::runtime_error("replay: incomplete frame");
        rows = serve::decodeRows(frame->payload, w.model->domain.variables());
      }
      std::vector<serve::EstRow> est;
      est.reserve(rows.size());
      {
        Tracer::Span span(tracer, "runtime.quality_row", root, op);
        for (const auto& row : rows) {
          const runtime::PredictorStats before = predictor.stats();
          serve::EstRow e;
          e.estimate = monitor.predictRow(row);
          const runtime::PredictorStats& after = predictor.stats();
          if (predictor.isLost()) e.flags |= serve::kEstFlagLost;
          if (after.wrong_predictions != before.wrong_predictions) {
            e.flags |= serve::kEstFlagWrongPrediction;
          }
          if (after.unexpected_behaviours != before.unexpected_behaviours) {
            e.flags |= serve::kEstFlagUnexpected;
          }
          if (after.resyncs != before.resyncs) e.flags |= serve::kEstFlagResync;
          est.push_back(e);
          served.push_back(e.estimate);
        }
      }
      {
        Tracer::Span span(tracer, "serve.encode_est", root, op);
        keepAlive(serve::encodeEst(est).size());
      }
      {
        Tracer::Span span(tracer, "core.find_row", root, op);
        std::size_t sum = 0;
        for (const auto& row : rows) {
          sum += static_cast<std::size_t>(w.model->domain.findRow(row));
        }
        keepAlive(sum);
      }
      {
        Tracer::Span span(tracer, "core.step", root, op);
        for (const auto& row : rows) stepped.push_back(session.step(row));
      }
      {
        Tracer::Span span(tracer, "runtime.predict_row", root, op);
        for (const auto& row : rows) {
          predicted.push_back(bare_predictor.predictRow(row));
        }
      }
      ++counts.frames;
      counts.rows += rows.size();
    }
    if (served != w.expected || stepped != w.expected ||
        predicted != w.expected) {
      result.fail("split replay estimates differ from the bare predictor");
    }
  } while (secondsSince(t0) < budget);
  return counts;
}

}  // namespace

Result runServe(const Options& options) {
  Result result;
  // As `psmgen serve`: registry on, 1024-event flight recorder on.
  obs::Options obs_options;
  obs_options.log_level = obs::LogLevel::Error;
  obs_options.metrics = true;
  obs::configure(obs_options);
  obs::flightRecorder().configure(kFlightEvents);
  obs::flightRecorder().setEnabled(true);

  double setup_s = 0.0;
  const Preparation prep =
      prepareRepeated({ip::IpKind::Aes}, options.seed, options.workdir,
                      /*write_csv=*/false, kSetupRepeats, setup_s, result);
  const PreparedIp& aes = prep.ips.front();

  Workload w;
  w.model_id = aes.model_path;
  w.model = &*aes.model;
  w.rows = aes.eval.length();
  for (std::size_t off = 0; off < w.rows; off += kFrameRows) {
    Rows frame;
    for (std::size_t t = off; t < std::min(w.rows, off + kFrameRows); ++t) {
      frame.push_back(aes.eval.step(t));
    }
    w.frame_bytes.push_back(serve::encodeRows(frame));
    w.frames.push_back(std::move(frame));
  }
  runtime::OnlinePredictor reference(*aes.model);
  w.expected = reference.predictTrace(aes.eval);
  w.expected_stats = reference.stats();
  const double mre_percent =
      100.0 * trace::meanRelativeError(w.expected, aes.reference_power);
  if (options.seed == kDefaultSeed) {
    // Pinned: the same AES model and trace as predict_stream's.
    const PredictExpect& pin = kPredictExpected[ipIndex(ip::IpKind::Aes)];
    Fnv1a fnv;
    fnv.addDoubles(w.expected);
    const std::uint64_t want =
        pin.estimates_fnv1a ^ (options.corrupt_expected ? 1 : 0);
    if (fnv.hash != want || w.expected_stats.rows != pin.rows ||
        w.expected_stats.unexpected_behaviours != pin.unexpected_behaviours) {
      result.fail("AES reference estimates differ from the pinned digest");
    }
  }
  if (options.corrupt_expected) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w.expected.front(), sizeof bits);
    bits ^= 1;
    std::memcpy(&w.expected.front(), &bits, sizeof bits);
  }

  serve::ServerConfig config;
  config.model_id = w.model_id;
  serve::PredictionServer server(*aes.model, config);
  if (!server.listen()) {
    result.fail("server could not bind a loopback port");
    return result;
  }
  server.start();

  // With --trace 1: alternating untraced / traced live passes for half
  // the budget, then each in-process replay for a quarter.
  Tracer tracer;
  const double live_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  const RegistryCounts before = readRegistry();
  const LiveOutcome live = runSessions(server.port(), w, live_budget,
                                       options.trace ? &tracer : nullptr);
  const RegistryCounts after = readRegistry();
  bookLive(live, before, after, result);

  if (!options.trace) {
    server.stop();
    result.set("setup_s", setup_s, "s");
    result.set("rows_per_s", live.rows_per_s, "rows/s");
    result.set("op_p50_us", percentile(live.untraced.latency_us, 0.50), "us");
    // p99 within each pass (1,875 frames, 18 beyond it), median over the
    // passes: one burst of host noise moves a few passes, not the figure.
    result.set("op_tail_us", median(live.untraced.pass_p99_us), "us");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    std::fprintf(stderr,
                 "serve: %llu passes, %zu frame latency samples, held-out "
                 "MRE %.3f%%\n",
                 static_cast<unsigned long long>(live.untraced.passes),
                 live.untraced.latency_us.size(), mre_percent);
    return result;
  }
  server.stop();
  const std::size_t replay_frames =
      replayConsume(w, options.seconds / 4, tracer, result);
  const SplitCounts split = replaySplit(w, options.seconds / 4, tracer, result);

  for (const auto& [name, unit] : perLayerMetrics()) result.set(name, 0, unit);
  reportSetupLayers(prep, result);
  const double live_frames = static_cast<double>(live.traced.frames);
  const double encode_us =
      tracer.totalSeconds("serve.encode_rows") * 1e6 / live_frames;
  const double round_trip_us =
      tracer.totalSeconds("serve.round_trip") * 1e6 / live_frames;
  const double consume_us = tracer.totalSeconds("serve.consume") * 1e6 /
                            static_cast<double>(replay_frames);
  const double split_frames = static_cast<double>(split.frames);
  const double split_rows = static_cast<double>(split.rows);
  result.set("serve.encode_rows_us", encode_us, "us");
  result.set("serve.consume_us", consume_us, "us");
  result.set("serve.decode_rows_us",
             tracer.totalSeconds("serve.decode_rows") * 1e6 / split_frames,
             "us");
  result.set("runtime.quality_row_ns",
             tracer.totalSeconds("runtime.quality_row") * 1e9 / split_rows,
             "ns");
  result.set("serve.encode_est_us",
             tracer.totalSeconds("serve.encode_est") * 1e6 / split_frames,
             "us");
  result.set("serve.socket_us", round_trip_us - consume_us, "us");
  result.set("core.find_row_ns",
             tracer.totalSeconds("core.find_row") * 1e9 / split_rows, "ns");
  result.set("core.step_ns",
             tracer.totalSeconds("core.step") * 1e9 / split_rows, "ns");
  result.set("runtime.predict_row_ns",
             tracer.totalSeconds("runtime.predict_row") * 1e9 / split_rows,
             "ns");
  const double passes =
      static_cast<double>(live.untraced.passes + live.traced.passes);
  result.set("serve.frames", static_cast<double>(w.frames.size()), "count");
  result.set("serve.rows", static_cast<double>(w.rows), "count");
  result.set("serve.registry_frames",
             static_cast<double>(after.frames - before.frames) / passes,
             "count");
  result.set("serve.registry_rows",
             static_cast<double>(after.rows - before.rows) / passes, "count");
  result.set("serve.registry_sessions",
             static_cast<double>(after.sessions - before.sessions) / passes,
             "count");
  result.set("model.mre_percent", mre_percent, "%");
  result.set("trace.coverage_percent", tracer.coveragePercent("phase.serve"),
             "%");
  result.set("trace.overhead_percent",
             100.0 * (live.rows_per_s / live.traced_rows_per_s - 1.0), "%");
  tracer.writeJson(options.spans_out.empty()
                       ? options.workdir + "/spans.json"
                       : options.spans_out);
  return result;
}

}  // namespace perfbench

// predict_stream: the `psmgen predict` streaming path. Per IP, the held-out
// functional CSV written during set-up (so reads come from the page
// cache) is streamed through StreamingTraceReader (default 4096-row
// chunk) and OnlinePredictor. One pass streams all four IPs; an operation
// is one row, and a latency sample is one 4096-row batch.
//
// The traced run reads the same rows batch by batch and times, per batch,
// the reader, PropositionDomain::findRow, PsmSimulator::Session::step (on
// a separate bare session) and OnlinePredictor::predictRow, so the clock
// is read once per 4096 rows and never swamps a sub-microsecond step.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "expected.hpp"
#include "models.hpp"
#include "obs/obs.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/streaming_reader.hpp"

namespace perfbench {

namespace {

using namespace psmgen;

constexpr std::size_t kBatchRows = 4096;  // = the reader's default chunk
constexpr int kSetupRepeats = 3;

struct PassOutcome {
  std::vector<double> estimates;
  runtime::PredictorStats stats;
  std::size_t refills = 0;
  /// Traced pass: time in the calls the untraced pass also makes (open,
  /// reader, predictor), without the findRow and bare-step probes.
  double seconds = 0.0;
};

bool equalBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Checks one pass against the batch simulator's estimates (every seed)
/// and the expected digest and counters. Mismatching rows count failed; a
/// digest or counter mismatch fails the whole pass.
void checkPass(const PreparedIp& p, const PassOutcome& out,
               const PredictExpect& c, Result& result) {
  const std::string ip = ip::ipName(p.kind);
  const std::vector<double>& ref = p.expected.estimate;
  if (out.estimates.size() != ref.size()) {
    result.fail(ip + ": streamed " + std::to_string(out.estimates.size()) +
                    " estimates, batch simulator gave " +
                    std::to_string(ref.size()),
                ref.size());
    return;
  }
  std::uint64_t wrong_rows = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!equalBits(out.estimates[i], ref[i])) ++wrong_rows;
  }
  if (wrong_rows > 0) {
    result.fail(ip + ": " + std::to_string(wrong_rows) +
                    " streamed estimates differ from PsmSimulator::simulate",
                wrong_rows);
    return;
  }
  Fnv1a fnv;
  fnv.addDoubles(out.estimates);
  const runtime::PredictorStats& s = out.stats;
  if (fnv.hash != c.estimates_fnv1a || s.rows != c.rows ||
      s.predictions != c.predictions ||
      s.wrong_predictions != c.wrong_predictions ||
      s.unexpected_behaviours != c.unexpected_behaviours ||
      s.lost_instants != c.lost_instants || s.resyncs != c.resyncs) {
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%s: estimates fnv1a %016llx rows %zu pred %zu wrong %zu unexp %zu "
        "lost %zu resync %zu; expected %016llx %zu %zu %zu %zu %zu %zu",
        ip.c_str(), static_cast<unsigned long long>(fnv.hash), s.rows,
        s.predictions, s.wrong_predictions, s.unexpected_behaviours,
        s.lost_instants, s.resyncs,
        static_cast<unsigned long long>(c.estimates_fnv1a), c.rows,
        c.predictions, c.wrong_predictions, c.unexpected_behaviours,
        c.lost_instants, c.resyncs);
    result.fail(buf, out.estimates.size());
  }
}

/// Untraced pass over one IP: the reader + OnlinePredictor::predictStream
/// loop of `psmgen predict` (without its quality monitor and CSV
/// printing), plus one clock read per 4096-row batch.
PassOutcome streamIp(const PreparedIp& p, std::vector<double>& batch_us) {
  PassOutcome out;
  out.estimates.reserve(p.eval.length());
  auto batch_start = Clock::now();
  runtime::StreamingTraceReader reader(p.csv_path);
  runtime::OnlinePredictor predictor(*p.model);
  out.stats = predictor.predictStream(
      reader, [&](std::size_t index, double estimate) {
        out.estimates.push_back(estimate);
        if ((index + 1) % kBatchRows == 0) {
          const auto now = Clock::now();
          batch_us.push_back(
              std::chrono::duration<double, std::micro>(now - batch_start)
                  .count());
          batch_start = now;
        }
      });
  out.refills = reader.refills();
  return out;
}

/// Traced pass over one IP; `step_estimates` receives the bare session's
/// output, which must equal the predictor's.
PassOutcome tracedStreamIp(Tracer& tracer, std::uint64_t root,
                           const PreparedIp& p,
                           const core::PsmSimulator& bare,
                           std::vector<double>& step_estimates) {
  const std::uint64_t op = tracer.newOp();
  Tracer::Span ip_span(tracer, "bench.ip_stream", root, op);
  const std::uint64_t parent = ip_span.id();
  PassOutcome out;
  out.estimates.reserve(p.eval.length());
  step_estimates.clear();
  std::vector<std::vector<common::BitVector>> rows(kBatchRows);
  std::optional<runtime::StreamingTraceReader> reader;
  std::optional<runtime::OnlinePredictor> predictor;
  {
    Tracer::Span span(tracer, "runtime.open", parent, op);
    reader.emplace(p.csv_path);
    predictor.emplace(*p.model);
    out.seconds += span.end();
  }
  core::PsmSimulator::Session session = bare.startSession();
  for (;;) {
    std::size_t n = 0;
    {
      Tracer::Span span(tracer, "trace.reader", parent, op);
      while (n < kBatchRows && reader->next(rows[n])) ++n;
      out.seconds += span.end();
    }
    if (n == 0) break;
    {
      Tracer::Span span(tracer, "core.find_row", parent, op);
      std::size_t sum = 0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += static_cast<std::size_t>(p.model->domain.findRow(rows[k]));
      }
      keepAlive(sum);
    }
    {
      Tracer::Span span(tracer, "core.step", parent, op);
      for (std::size_t k = 0; k < n; ++k) {
        step_estimates.push_back(session.step(rows[k]));
      }
    }
    {
      Tracer::Span span(tracer, "runtime.predict_row", parent, op);
      for (std::size_t k = 0; k < n; ++k) {
        out.estimates.push_back(predictor->predictRow(rows[k]));
      }
      out.seconds += span.end();
    }
  }
  out.stats = predictor->stats();
  out.refills = reader->refills();
  return out;
}

}  // namespace

Result runPredictStream(const Options& options) {
  Result result;
  obs::Options obs_options;
  obs_options.log_level = obs::LogLevel::Error;
  obs::configure(obs_options);

  const std::vector<ip::IpKind> kinds(std::begin(ip::kAllIps),
                                      std::end(ip::kAllIps));
  double setup_s = 0.0;
  const Preparation prep =
      prepareRepeated(kinds, options.seed, options.workdir, /*write_csv=*/true,
                      kSetupRepeats, setup_s, result);

  const bool pinned = options.seed == kDefaultSeed;
  // Expected output of each IP's stream: pinned at the default seed, the
  // batch simulator's at any other.
  std::vector<PredictExpect> expects(prep.ips.size());
  double mre_sum = 0.0;
  for (std::size_t i = 0; i < prep.ips.size(); ++i) {
    const PreparedIp& p = prep.ips[i];
    mre_sum += 100.0 * trace::meanRelativeError(p.expected.estimate,
                                                p.reference_power);
    if (pinned) {
      expects[i] = kPredictExpected[i];
    } else {
      // Cross-path: the stream must reproduce the batch simulator, whose
      // counters mean the same (resyncs are a streaming-only counter and
      // are taken from the first pass).
      Fnv1a fnv;
      fnv.addDoubles(p.expected.estimate);
      expects[i] = {fnv.hash,
                    p.expected.estimate.size(),
                    p.expected.predictions,
                    p.expected.wrong_predictions,
                    p.expected.unexpected_behaviours,
                    p.expected.lost_instants,
                    0};
    }
    if (options.corrupt_expected) expects[i].estimates_fnv1a ^= 1;
  }

  // Per IP, the seconds of every pass; the throughput divides the rows of
  // one pass over all IPs by the sum of the per-IP medians. With --trace 1
  // the passes alternate untraced / traced, so the overhead compares
  // passes run under the same machine conditions.
  const std::size_t n_ips = prep.ips.size();
  std::vector<std::vector<double>> ip_seconds(n_ips);
  std::vector<std::vector<double>> traced_ip_seconds(n_ips);
  std::size_t pass_rows = 0;
  std::vector<double> batch_us;
  std::vector<std::size_t> first_refills(n_ips, 0);
  std::vector<core::PsmSimulator> bare;
  if (options.trace) {
    bare.reserve(n_ips);
    for (const PreparedIp& p : prep.ips) {
      bare.emplace_back(p.model->psm, p.model->domain);
    }
  }
  Tracer tracer;
  std::vector<double> step_estimates;
  std::size_t traced_rows = 0;
  runtime::PredictorStats traced_stats;  // of one traced pass
  std::size_t traced_refills = 0;
  const auto t_start = Clock::now();
  const int min_passes = options.trace ? 2 : 1;
  for (int pass = 0;
       pass < min_passes || secondsSince(t_start) < options.seconds; ++pass) {
    if (options.trace && pass % 2 == 1) {
      Tracer::Span root(tracer, "phase.predict_stream", 0, 0);
      traced_stats = {};
      traced_refills = 0;
      for (std::size_t i = 0; i < n_ips; ++i) {
        const PreparedIp& p = prep.ips[i];
        const PassOutcome out =
            tracedStreamIp(tracer, root.id(), p, bare[i], step_estimates);
        traced_ip_seconds[i].push_back(out.seconds);
        result.attempted += p.eval.length();
        traced_rows += out.stats.rows;
        checkPass(p, out, expects[i], result);
        if (step_estimates != p.expected.estimate) {
          result.fail(ip::ipName(p.kind) +
                          ": bare Session::step estimates differ",
                      p.eval.length());
        }
        if (out.refills != first_refills[i]) {
          result.fail(ip::ipName(p.kind) + ": reader refill count changed");
        }
        traced_stats.rows += out.stats.rows;
        traced_stats.predictions += out.stats.predictions;
        traced_stats.wrong_predictions += out.stats.wrong_predictions;
        traced_stats.unexpected_behaviours += out.stats.unexpected_behaviours;
        traced_stats.lost_instants += out.stats.lost_instants;
        traced_stats.resyncs += out.stats.resyncs;
        traced_refills += out.refills;
      }
      continue;
    }
    for (std::size_t i = 0; i < n_ips; ++i) {
      const PreparedIp& p = prep.ips[i];
      const auto t0 = Clock::now();
      const PassOutcome out = streamIp(p, batch_us);
      ip_seconds[i].push_back(secondsSince(t0));
      result.attempted += p.eval.length();
      if (pass == 0) {
        pass_rows += out.stats.rows;
        first_refills[i] = out.refills;
        if (!pinned) expects[i].resyncs = out.stats.resyncs;
        if (options.print_digests) {
          Fnv1a fnv;
          fnv.addDoubles(out.estimates);
          const auto& s = out.stats;
          std::fprintf(stderr,
                       "predict_stream %s: {0x%016llxULL, %zu, %zu, %zu, "
                       "%zu, %zu, %zu},\n",
                       ip::ipName(p.kind).c_str(),
                       static_cast<unsigned long long>(fnv.hash), s.rows,
                       s.predictions, s.wrong_predictions,
                       s.unexpected_behaviours, s.lost_instants, s.resyncs);
        }
      }
      checkPass(p, out, expects[i], result);
    }
  }
  double pass_seconds = 0.0;
  for (const auto& s : ip_seconds) pass_seconds += median(s);
  const double mre_percent = mre_sum / static_cast<double>(n_ips);

  if (!options.trace) {
    result.set("setup_s", setup_s, "s");
    result.set("rows_per_s", static_cast<double>(pass_rows) / pass_seconds,
               "rows/s");
    result.set("op_p50_us", percentile(batch_us, 0.50), "us");
    result.set("op_tail_us", percentile(batch_us, 0.99), "us");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    std::fprintf(stderr,
                 "predict_stream: %zu passes, %zu batch latency samples, "
                 "held-out MRE %.3f%%\n",
                 ip_seconds.front().size(), batch_us.size(), mre_percent);
    return result;
  }

  for (const auto& [name, unit] : perLayerMetrics()) result.set(name, 0, unit);
  reportSetupLayers(prep, result);
  const double rows = static_cast<double>(traced_rows);
  result.set("trace.reader_ns_per_row",
             tracer.totalSeconds("trace.reader") * 1e9 / rows, "ns");
  result.set("core.find_row_ns",
             tracer.totalSeconds("core.find_row") * 1e9 / rows, "ns");
  result.set("core.step_ns", tracer.totalSeconds("core.step") * 1e9 / rows,
             "ns");
  result.set("runtime.predict_row_ns",
             tracer.totalSeconds("runtime.predict_row") * 1e9 / rows, "ns");
  const runtime::PredictorStats& c = traced_stats;
  result.set("predict.rows", static_cast<double>(c.rows), "count");
  result.set("predict.predictions", static_cast<double>(c.predictions),
             "count");
  result.set("predict.wrong", static_cast<double>(c.wrong_predictions),
             "count");
  result.set("predict.unexpected",
             static_cast<double>(c.unexpected_behaviours), "count");
  result.set("predict.lost", static_cast<double>(c.lost_instants), "count");
  result.set("predict.resyncs", static_cast<double>(c.resyncs), "count");
  result.set("reader.refills", static_cast<double>(traced_refills), "count");
  result.set("model.mre_percent", mre_percent, "%");
  result.set("trace.coverage_percent",
             tracer.coveragePercent("phase.predict_stream"), "%");
  double traced_pass = 0.0;
  for (const auto& s : traced_ip_seconds) traced_pass += median(s);
  result.set("trace.overhead_percent",
             100.0 * (traced_pass / pass_seconds - 1.0), "%");
  tracer.writeJson(options.spans_out.empty()
                       ? options.workdir + "/spans.json"
                       : options.spans_out);
  return result;
}

}  // namespace perfbench

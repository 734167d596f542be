#include "runtime/online_predictor.hpp"

#include <chrono>

#include "obs/obs.hpp"

namespace psmgen::runtime {

namespace {
/// Registry handles resolved once; predictRow runs per stream row, so a
/// disabled registry must cost only a relaxed load + branch per counter.
struct PredictorCounters {
  obs::Counter& rows = obs::metrics().counter("predict.rows");
  obs::Counter& predictions = obs::metrics().counter("predict.predictions");
  obs::Counter& wrong = obs::metrics().counter("predict.wrong_predictions");
  obs::Counter& unexpected =
      obs::metrics().counter("predict.unexpected_behaviours");
  obs::Counter& lost = obs::metrics().counter("predict.lost_instants");
  obs::Counter& resyncs = obs::metrics().counter("predict.resyncs");
  obs::Histogram& resync_latency =
      obs::metrics().histogram("predict.resync_latency_rows");
};

PredictorCounters& counters() {
  static PredictorCounters c;
  return c;
}
}  // namespace

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

OnlinePredictor::OnlinePredictor(const core::Psm& psm,
                                 const core::PropositionDomain& domain,
                                 core::SimOptions options)
    : sim_(psm, domain, options) {
  session_ = sim_.startSession();
}

OnlinePredictor::OnlinePredictor(const serialize::PsmModel& model,
                                 core::SimOptions options)
    : OnlinePredictor(model.psm, model.domain, options) {}

void OnlinePredictor::reset() {
  session_ = sim_.startSession();
  stats_ = PredictorStats{};
  ever_synced_ = false;
  lost_streak_ = 0;
}

double OnlinePredictor::predictRow(const std::vector<common::BitVector>& row) {
  const bool was_lost = session_->isLost();
  const double estimate = session_->step(row);
  ++stats_.rows;
  // Registry counters take per-row deltas of the session's cumulative
  // counters (stats_ still holds the previous row's snapshot here).
  PredictorCounters& c = counters();
  c.rows.add(1);
  c.predictions.add(session_->predictions() - stats_.predictions);
  c.wrong.add(session_->wrongPredictions() - stats_.wrong_predictions);
  c.unexpected.add(session_->unexpectedBehaviours() -
                   stats_.unexpected_behaviours);
  c.lost.add(session_->lostInstants() - stats_.lost_instants);
  if (!session_->isLost()) {
    if (was_lost && ever_synced_) {
      ++stats_.resyncs;
      c.resyncs.add(1);
      // Resync latency: instants spent desynchronized before this
      // recovery (the paper's "until a known behaviour is recognised").
      c.resync_latency.record(static_cast<double>(lost_streak_));
      // A resync is worth a warn line, but a stream drifting off the
      // trained workload resyncs continuously — the token bucket caps
      // this call site at ~1 line/s and reports what it elided.
      static obs::RateLimiter resync_warn_limiter(/*tokens_per_second=*/1.0,
                                                  /*burst=*/5.0);
      if (const auto d = resync_warn_limiter.tick(); d.allowed) {
        obs::warn("predict.resync",
                  {{"row", stats_.rows},
                   {"lost_rows", lost_streak_},
                   {"resyncs", stats_.resyncs},
                   {"suppressed", d.suppressed}});
      }
    }
    ever_synced_ = true;
    lost_streak_ = 0;
  } else {
    ++lost_streak_;
  }
  stats_.predictions = session_->predictions();
  stats_.wrong_predictions = session_->wrongPredictions();
  stats_.unexpected_behaviours = session_->unexpectedBehaviours();
  stats_.lost_instants = session_->lostInstants();
  return estimate;
}

PredictorStats OnlinePredictor::predictStream(
    StreamingTraceReader& reader,
    const std::function<void(std::size_t, double)>& sink) {
  reset();
  obs::Span span("predict.stream", "predict");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<common::BitVector> row;
  std::size_t index = 0;
  while (reader.next(row)) {
    const double estimate = predictRow(row);
    if (sink) sink(index, estimate);
    ++index;
  }
  addSeconds(secondsSince(t0));
  obs::metrics().gauge("predict.wsp_percent").set(stats_.wspPercent());
  obs::metrics().gauge("predict.lost_percent").set(stats_.lostPercent());
  obs::metrics()
      .gauge("predict.resyncs_per_kilorow")
      .set(stats_.resyncsPerKiloRow());
  obs::metrics().gauge("predict.rows_per_second").set(stats_.rowsPerSecond());
  obs::debug("predict.stream_done",
             {{"rows", stats_.rows},
              {"predictions", stats_.predictions},
              {"wrong", stats_.wrong_predictions},
              {"unexpected", stats_.unexpected_behaviours},
              {"lost", stats_.lost_instants},
              {"resyncs", stats_.resyncs},
              {"wsp_percent", stats_.wspPercent()},
              {"rows_per_second", stats_.rowsPerSecond()}});
  return stats_;
}

std::vector<double> OnlinePredictor::predictTrace(
    const trace::FunctionalTrace& trace) {
  reset();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> out;
  out.reserve(trace.length());
  for (std::size_t t = 0; t < trace.length(); ++t) {
    out.push_back(predictRow(trace.step(t)));
  }
  addSeconds(secondsSince(t0));
  return out;
}

}  // namespace psmgen::runtime

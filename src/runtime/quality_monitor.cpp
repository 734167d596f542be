#include "runtime/quality_monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace psmgen::runtime {

namespace {

/// Handles resolved once (see the registry's cost policy); the monitor
/// updates the scalar gauges on every row.
struct QualityGauges {
  obs::Gauge& rows = obs::metrics().gauge("quality.window_rows");
  obs::Gauge& wsp = obs::metrics().gauge("quality.window_wsp_percent");
  obs::Gauge& lost = obs::metrics().gauge("quality.window_lost_percent");
  obs::Gauge& resyncs =
      obs::metrics().gauge("quality.window_resyncs_per_kilorow");
  obs::Gauge& residual = obs::metrics().gauge("quality.residual_ewma_z");
  obs::Gauge& status = obs::metrics().gauge("quality.status");
  obs::Counter& changes = obs::metrics().counter("quality.status_changes");
};

QualityGauges& gauges() {
  static QualityGauges g;
  return g;
}

/// Floor for sigma in the residual z-score: a constant-power state has
/// sigma == 0, and a regression-refined state legitimately emits a few
/// permille around mu — without a floor those states would turn any
/// nonzero residual into a spurious drift signal.
double sigmaFloor(double mu, double sigma) {
  return std::max({sigma, 1e-3 * std::abs(mu), 1e-12});
}

}  // namespace

const char* driftStatusName(DriftStatus status) {
  switch (status) {
    case DriftStatus::Ok: return "ok";
    case DriftStatus::Degraded: return "degraded";
    case DriftStatus::Drifted: return "drifted";
  }
  return "?";
}

QualityMonitor::QualityMonitor(OnlinePredictor& predictor,
                               const core::Psm& psm,
                               QualityMonitorConfig config)
    : predictor_(predictor), psm_(&psm), config_(config) {
  occupancy_.assign(psm_->stateCount(), 0);
}

void QualityMonitor::reset() {
  predictor_.reset();
  common::MutexLock lock(mutex_);
  ring_.clear();
  window_ = QualityWindow{};
  occupancy_.assign(psm_->stateCount(), 0);
  residual_primed_ = false;
  status_.store(static_cast<int>(DriftStatus::Ok),
                std::memory_order_relaxed);
  gauges().status.set(0.0);
}

double QualityMonitor::predictRow(const std::vector<common::BitVector>& row) {
  return predictRowImpl(row, nullptr);
}

double QualityMonitor::predictRow(const std::vector<common::BitVector>& row,
                                  double reference) {
  return predictRowImpl(row, &reference);
}

double QualityMonitor::predictRowImpl(
    const std::vector<common::BitVector>& row, const double* reference) {
  const PredictorStats before = predictor_.stats();
  const double estimate = predictor_.predictRow(row);
  const PredictorStats& after = predictor_.stats();

  RowRecord rec;
  rec.predictions =
      static_cast<std::uint32_t>(after.predictions - before.predictions);
  rec.wrong = static_cast<std::uint32_t>(after.wrong_predictions -
                                         before.wrong_predictions);
  rec.resyncs = static_cast<std::uint32_t>(after.resyncs - before.resyncs);
  rec.lost = predictor_.isLost();
  rec.state = rec.lost ? core::kNoState : predictor_.currentState();

  common::MutexLock lock(mutex_);

  // Power residual against the occupied state's stored <mu, sigma>; a
  // reference sample measures true error, the bare estimate measures how
  // far the regression output strays from the characterized level.
  if (!rec.lost && rec.state != core::kNoState) {
    const core::PowerAttr& power = psm_->state(rec.state).power;
    const double value = reference != nullptr ? *reference : estimate;
    const double z =
        std::abs(value - power.mean) / sigmaFloor(power.mean, power.stddev);
    if (!residual_primed_) {
      window_.residual_ewma_z = z;
      residual_primed_ = true;
    } else {
      window_.residual_ewma_z +=
          config_.residual_alpha * (z - window_.residual_ewma_z);
    }
  }

  // Slide the window: admit the new row, evict the oldest beyond the cap.
  ring_.push_back(rec);
  ++window_.rows;
  window_.predictions += rec.predictions;
  window_.wrong_predictions += rec.wrong;
  window_.resyncs += rec.resyncs;
  if (rec.lost) ++window_.lost_instants;
  if (rec.state != core::kNoState &&
      static_cast<std::size_t>(rec.state) < occupancy_.size()) {
    ++occupancy_[static_cast<std::size_t>(rec.state)];
  }
  if (ring_.size() > config_.window_rows) {
    const RowRecord& old = ring_.front();
    --window_.rows;
    window_.predictions -= old.predictions;
    window_.wrong_predictions -= old.wrong;
    window_.resyncs -= old.resyncs;
    if (old.lost) --window_.lost_instants;
    if (old.state != core::kNoState &&
        static_cast<std::size_t>(old.state) < occupancy_.size()) {
      --occupancy_[static_cast<std::size_t>(old.state)];
    }
    ring_.pop_front();
  }

  evaluateLocked();

  QualityGauges& g = gauges();
  g.rows.set(static_cast<double>(window_.rows));
  g.wsp.set(window_.wspPercent());
  g.lost.set(window_.lostPercent());
  g.resyncs.set(window_.resyncsPerKilorow());
  g.residual.set(window_.residual_ewma_z);
  if (predictor_.stats().rows % config_.occupancy_update_rows == 0) {
    updateOccupancyGaugesLocked();
  }
  return estimate;
}

void QualityMonitor::evaluateLocked() {
  DriftStatus next = DriftStatus::Ok;
  if (window_.rows >= config_.min_rows) {
    const bool judge_wsp = window_.predictions >= config_.min_predictions;
    const double wsp = judge_wsp ? window_.wspPercent() : 0.0;
    const double lost = window_.lostPercent();
    const double resyncs = window_.resyncsPerKilorow();
    const double z = window_.residual_ewma_z;
    if (wsp >= config_.wsp_drifted_percent ||
        lost >= config_.lost_drifted_percent ||
        resyncs >= config_.resync_drifted_per_kilorow ||
        z >= config_.residual_drifted_z) {
      next = DriftStatus::Drifted;
    } else if (wsp >= config_.wsp_degraded_percent ||
               lost >= config_.lost_degraded_percent ||
               resyncs >= config_.resync_degraded_per_kilorow ||
               z >= config_.residual_degraded_z) {
      next = DriftStatus::Degraded;
    }
  }
  const auto previous = static_cast<DriftStatus>(
      status_.exchange(static_cast<int>(next), std::memory_order_relaxed));
  window_.status = next;
  gauges().status.set(static_cast<double>(next));
  if (next != previous) {
    gauges().changes.add(1);
    const auto log_level = static_cast<int>(next) > static_cast<int>(previous)
                               ? obs::LogLevel::Warn
                               : obs::LogLevel::Info;
    obs::logger().log(log_level, "quality.status_changed",
                      {{"from", driftStatusName(previous)},
                       {"to", driftStatusName(next)},
                       {"window_rows", window_.rows},
                       {"wsp_percent", window_.wspPercent()},
                       {"lost_percent", window_.lostPercent()},
                       {"resyncs_per_kilorow", window_.resyncsPerKilorow()},
                       {"residual_ewma_z", window_.residual_ewma_z}});
    if (obs::flightRecorder().enabled()) {
      // The event's session comes from the thread binding (a serve
      // session thread carries its id; stdio mode records session 0).
      obs::FlightEvent event;
      event.row = window_.rows;
      event.detail = static_cast<std::uint32_t>(next);
      event.kind = static_cast<std::uint16_t>(obs::FlightEventKind::Drift);
      if (next == DriftStatus::Degraded) event.flags |= obs::kFlightDegraded;
      if (next == DriftStatus::Drifted) event.flags |= obs::kFlightDrifted;
      obs::flightRecorder().record(event);
      // Entering Drifted is a dump trigger: capture the window of events
      // that led here while it is still in the rings.
      if (next == DriftStatus::Drifted) {
        obs::flightRecorder().triggerDump(
            "drift", obs::FlightRecorder::threadSession());
      }
    }
  } else if (next == DriftStatus::Drifted) {
    // Heartbeat while drifted, throttled so a long drift cannot storm.
    static obs::RateLimiter drift_warn_limiter(/*tokens_per_second=*/0.2,
                                               /*burst=*/1.0);
    if (const auto d = drift_warn_limiter.tick(); d.allowed) {
      obs::warn("quality.drifted",
                {{"window_rows", window_.rows},
                 {"wsp_percent", window_.wspPercent()},
                 {"lost_percent", window_.lostPercent()},
                 {"resyncs_per_kilorow", window_.resyncsPerKilorow()},
                 {"residual_ewma_z", window_.residual_ewma_z},
                 {"suppressed", d.suppressed}});
    }
  }
}

void QualityMonitor::updateOccupancyGaugesLocked() {
  if (window_.rows == 0) return;
  const double denom = static_cast<double>(window_.rows);
  for (std::size_t s = 0; s < occupancy_.size(); ++s) {
    char name[64];
    std::snprintf(name, sizeof(name), "quality.state_occupancy.%zu", s);
    obs::metrics().gauge(name).set(static_cast<double>(occupancy_[s]) /
                                   denom);
  }
}

QualityWindow QualityMonitor::window() const {
  common::MutexLock lock(mutex_);
  return window_;
}

std::vector<double> QualityMonitor::stateOccupancy() const {
  common::MutexLock lock(mutex_);
  std::vector<double> out(occupancy_.size(), 0.0);
  if (window_.rows == 0) return out;
  for (std::size_t s = 0; s < occupancy_.size(); ++s) {
    out[s] = static_cast<double>(occupancy_[s]) /
             static_cast<double>(window_.rows);
  }
  return out;
}

PredictorStats QualityMonitor::predictStream(
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
  predictor_.addSeconds(secondsSince(t0));
  const PredictorStats stats = predictor_.stats();
  obs::metrics().gauge("predict.wsp_percent").set(stats.wspPercent());
  obs::metrics().gauge("predict.rows_per_second").set(stats.rowsPerSecond());
  {
    common::MutexLock lock(mutex_);
    updateOccupancyGaugesLocked();
  }
  obs::debug("quality.stream_done",
             {{"rows", stats.rows},
              {"status", driftStatusName(status())},
              {"window_wsp_percent", window().wspPercent()}});
  return stats;
}

obs::HttpServer::Response readyzResponse(const QualityMonitor& monitor) {
  const DriftStatus status = monitor.status();
  const QualityWindow w = monitor.window();
  char body[256];
  std::snprintf(body, sizeof(body),
                "%s\nwindow_rows %zu\nwsp_percent %.3f\nlost_percent %.3f\n"
                "resyncs_per_kilorow %.3f\nresidual_ewma_z %.3f\n",
                driftStatusName(status), w.rows, w.wspPercent(),
                w.lostPercent(), w.resyncsPerKilorow(), w.residual_ewma_z);
  return {status == DriftStatus::Drifted ? 503 : 200,
          "text/plain; charset=utf-8", std::string(body)};
}

}  // namespace psmgen::runtime

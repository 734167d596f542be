#pragma once
// Row-at-a-time power prediction over a trained PSM model.
//
// The serving half of the train/serve split: a model loaded from a PSM
// artifact (serialize::PsmModel) is wrapped once into an HMM-backed
// simulator, then any number of streams are predicted against it — each
// stream is one PsmSimulator::Session (forward filter, non-deterministic
// choice resolution, revert-and-penalize resynchronization), driven one
// row at a time so memory stays constant however long the stream runs.
//
// Per-stream counters (rows, HMM-resolved predictions, resyncs, wall
// time of the stream loop) support the production monitoring story;
// predictStream() couples the predictor to a StreamingTraceReader for
// the bounded-memory batch path. Per-row estimates are identical to
// PsmSimulator::simulate on the same rows — streaming changes memory
// behaviour, never results.

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/psm_simulator.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/functional_trace.hpp"

namespace psmgen::runtime {

/// Counters of one prediction stream (since construction or reset()).
struct PredictorStats {
  std::size_t rows = 0;
  /// Non-deterministic successor choices the HMM filter resolved (same
  /// definition as SimResult::predictions — resync guesses are excluded,
  /// see DESIGN.md "Prediction accounting").
  std::size_t predictions = 0;
  /// Predictions proven wrong (revert + penalize + re-route). Always
  /// <= predictions, so wspPercent() is bounded by 100.
  std::size_t wrong_predictions = 0;
  /// Assertion failures on a deterministic path: behaviour the training
  /// traces never covered. Disjoint from wrong_predictions.
  std::size_t unexpected_behaviours = 0;
  /// Rows that ended desynchronized from the model.
  std::size_t lost_instants = 0;
  /// Recoveries from a desynchronized stretch (lost -> synced, after the
  /// stream had synchronized at least once).
  std::size_t resyncs = 0;
  /// Wall time of the stream loops that fed the rows: predictStream()
  /// and predictTrace() time their whole loop (reading included) with
  /// one clock read pair per call, and callers driving predictRow()
  /// themselves report their loop through addSeconds(). predictRow()
  /// reads no clock, so rows fed outside a timed loop add no time.
  double seconds = 0.0;

  double rowsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(rows) / seconds : 0.0;
  }
  double wspPercent() const {
    return predictions == 0
               ? 0.0
               : 100.0 * static_cast<double>(wrong_predictions) /
                     static_cast<double>(predictions);
  }
  double lostPercent() const {
    return rows == 0 ? 0.0
                     : 100.0 * static_cast<double>(lost_instants) /
                           static_cast<double>(rows);
  }
  double resyncsPerKiloRow() const {
    return rows == 0 ? 0.0
                     : 1000.0 * static_cast<double>(resyncs) /
                           static_cast<double>(rows);
  }
};

/// Steady-clock seconds elapsed since `t0`: how the stream loops time
/// themselves for OnlinePredictor::addSeconds.
double secondsSince(std::chrono::steady_clock::time_point t0);

class OnlinePredictor {
 public:
  /// Serves the given PSM/domain; both must outlive the predictor.
  OnlinePredictor(const core::Psm& psm, const core::PropositionDomain& domain,
                  core::SimOptions options = {});
  /// Serves a loaded model; the model must outlive the predictor.
  explicit OnlinePredictor(const serialize::PsmModel& model,
                           core::SimOptions options = {});

  /// Predicts the power of the next instant of the current stream. The
  /// row holds one value per trace variable, in variable-set order.
  double predictRow(const std::vector<common::BitVector>& row);

  /// Ends the current stream and starts a fresh one (fresh HMM session,
  /// zeroed counters).
  void reset();

  /// Adds the wall time of a caller-timed predictRow() loop to
  /// stats().seconds.
  void addSeconds(double seconds) { stats_.seconds += seconds; }

  const PredictorStats& stats() const { return stats_; }
  const core::PsmSimulator& simulator() const { return sim_; }

  /// The state the current stream's session sits in (kNoState before the
  /// first recognition). Read-only view for monitoring (QualityMonitor's
  /// per-state occupancy and power-residual tracking).
  core::StateId currentState() const {
    return session_ ? session_->currentState() : core::kNoState;
  }
  /// True while the stream is desynchronized from the model.
  bool isLost() const { return !session_ || session_->isLost(); }

  /// Streams every row of `reader` through a fresh stream; `sink` (may be
  /// empty) receives (row index, estimate) as rows are consumed — nothing
  /// is accumulated, so memory stays bounded by the reader's chunk size.
  /// Returns the stream's final counters.
  PredictorStats predictStream(
      StreamingTraceReader& reader,
      const std::function<void(std::size_t, double)>& sink = {});

  /// In-memory batch convenience: predicts a whole trace on a fresh
  /// stream and returns the per-instant estimates (identical to
  /// PsmSimulator::simulate(trace).estimate).
  std::vector<double> predictTrace(const trace::FunctionalTrace& trace);

 private:
  core::PsmSimulator sim_;
  std::optional<core::PsmSimulator::Session> session_;
  PredictorStats stats_;
  bool ever_synced_ = false;
  /// Instants of the current desynchronized stretch; feeds the
  /// `predict.resync_latency_rows` histogram on recovery.
  std::size_t lost_streak_ = 0;
};

}  // namespace psmgen::runtime

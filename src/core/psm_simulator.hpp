#pragma once
// Simulation of the (combined, possibly non-deterministic) PSM set
// concurrently with a functional trace (paper Secs. III-C and V).
//
// Per instant the simulator evaluates the proposition holding on the
// IP's PIs/POs, advances the temporal-assertion engine of the current
// power state, and emits the state's power output (constant mu or the
// regression function of the input Hamming distance).
//
// Within a state the engine tracks *all* viable alternatives
// simultaneously (subset construction over the state's {seq || seq}
// assertion set): an alternative dies when its expected pattern is not
// satisfied. When the assertion set completes, the state is left through
// the transition whose enabling function equals the observed exit
// proposition; if several transitions qualify (non-determinism from the
// join), the HMM filter predicts the most probable target, weighting
// each candidate by the emission probability of the alternative it would
// enter through (b_j of the forward-filtering recurrence) on top of the
// belief-propagated transition mass. When every alternative dies the
// simulator reverts to the last valid state, transiently fixes the
// offending transition probability to 0 (Hmm::Filter::penalize — lifted
// again once the session advances cleanly, see hmm.hpp) and tries a
// different path; if no path accepts the observation it stays in the
// last valid state — emitting its (unreliable) power — until a known
// behaviour is recognised again.
//
// Counter semantics (shared verbatim by SimResult, runtime::PredictorStats
// and runtime::QualityMonitor — DESIGN.md "Prediction accounting"):
//   - predictions: non-deterministic choices the filter resolved (entry
//     among >1 viable successors, initial choice among >1 matching
//     initial states, re-route among >1 surviving alternatives). A
//     resynchronization guess is *not* a prediction: it recovers from
//     behaviour the model does not cover, so its failure says nothing
//     about the filter's choice quality.
//   - wrong_predictions: a *prediction* later invalidated — the entered
//     state's assertion died while the entry had been a choice. A
//     violation on a deterministic path is never a wrong prediction, so
//     wrong_predictions <= predictions and WSP% = 100 * wrong /
//     predictions is bounded by 100.
//   - unexpected_behaviours: assertion violations whose entry was *not* a
//     choice — behaviour absent from the training traces (the paper's
//     "unexpected behaviour"). Every violation increments exactly one of
//     wrong_predictions / unexpected_behaviours.
//   - lost_instants: rows whose processing *ends* with the session
//     desynchronized — incremented at exactly one point per step(), so a
//     row can never be counted lost twice.
//
// The Session object exposes a streaming per-cycle API so the SystemC-lite
// PSM module can co-simulate with the IP model (Table III).

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/hmm.hpp"
#include "core/proposition.hpp"
#include "core/psm.hpp"
#include "trace/functional_trace.hpp"

namespace psmgen::core {

struct SimOptions {
  /// Use the HMM filter for non-deterministic choices and resync; when
  /// false, ties break on training frequency only (ablation knob).
  bool use_hmm = true;
  /// When every alternative of the current state dies but a trained
  /// transition of the state is enabled by the observation, leave through
  /// it instead of declaring a violation (the state's exit alphabet is
  /// the union of its alternatives' exits). Documented extension; turn
  /// off to get the paper's strict per-alternative semantics.
  bool generalize_exits = true;
};

struct SimResult {
  std::vector<double> estimate;  ///< per-instant power estimate

  /// Non-deterministic decisions the HMM filter resolved (choice among
  /// more than one viable state at an entry, initial choice, or re-route
  /// with several matching states; resync guesses are excluded).
  std::size_t predictions = 0;
  /// Predictions proven wrong: the entered state's assertion failed and
  /// the entry had been a non-deterministic choice — the HMM picked the
  /// wrong branch (paper Sec. V: revert, penalize, re-route). Always
  /// <= predictions.
  std::size_t wrong_predictions = 0;
  /// Assertion failures whose entry was deterministic: behaviour absent
  /// from the training traces (the paper's "unexpected behaviour" case).
  /// Disjoint from wrong_predictions — each violation counts once.
  std::size_t unexpected_behaviours = 0;
  /// Rows that ended desynchronized (counted once per row).
  std::size_t lost_instants = 0;

  /// Wrong-state-prediction percentage (Table III "WSP"): wrong
  /// predictions over resolved predictions, in [0, 100].
  double wspPercent() const {
    return predictions == 0
               ? 0.0
               : 100.0 * static_cast<double>(wrong_predictions) /
                     static_cast<double>(predictions);
  }
};

class PsmSimulator {
 public:
  PsmSimulator(const Psm& psm, const PropositionDomain& domain,
               SimOptions options = {});

  /// Streaming per-cycle evaluation.
  class Session {
   public:
    /// Consumes the next row (one value per trace variable, inputs first)
    /// and returns the power estimate for that instant. Throws
    /// std::invalid_argument if the row's arity differs from the domain's
    /// variable count.
    double step(const std::vector<common::BitVector>& row);

    std::size_t predictions() const { return predictions_; }
    std::size_t wrongPredictions() const { return wrong_; }
    std::size_t unexpectedBehaviours() const { return unexpected_; }
    std::size_t lostInstants() const { return lost_instants_; }
    StateId currentState() const { return cur_; }
    bool isLost() const { return lost_; }

   private:
    friend class PsmSimulator;
    explicit Session(const PsmSimulator& sim);

    struct Config {
      std::size_t alt = 0;
      std::size_t pos = 0;
    };

    enum class Advance { Stayed, Exited, Violation };
    /// Bound on *runs* of identical buffered observations per checkpoint.
    /// Power traces dwell in long same-proposition runs (idle/busy
    /// stretches), which until patterns absorb whole; bounding runs
    /// instead of raw rows keeps a checkpoint alive across arbitrarily
    /// long dwells with bounded memory. (Bounding raw rows silently
    /// dropped the only correct reinterpretation on every dwell longer
    /// than the cap — the root cause of the RAM WSP blow-up.)
    static constexpr std::size_t kMaxBacktrackRuns = 64;

    double outputPower(unsigned hd_in, unsigned hd_io) const;
    bool enterState(StateId s, PropId obs, bool entry_only, bool was_choice,
                    PropId enabling);
    Advance advanceCore(PropId obs, bool allow_checkpoint);
    bool tryBacktrack();
    bool tryCheckpoint();
    void handleViolation(PropId obs);
    void tryRecognize(PropId obs);
    std::vector<Config> matchingConfigs(StateId s, PropId obs,
                                        bool entry_only) const;
    double choiceScore(StateId s, const std::vector<Config>& configs) const;

    const PsmSimulator* sim_;
    Hmm::Filter filter_;
    bool started_ = false;
    bool lost_ = true;
    StateId cur_ = kNoState;
    StateId last_valid_ = kNoState;
    StateId revert_from_ = kNoState;  ///< state we entered cur_ from
    PropId entry_enabling_ = kNoProp;
    /// The entry into cur_ was a non-deterministic HMM choice.
    bool entry_was_choice_ = false;
    std::vector<Config> configs_;
    /// advanceCore's working buffer, swapped with configs_ on a stay so the
    /// per-row path reuses both buffers instead of allocating.
    std::vector<Config> survivors_;
    /// A forgone exit (survivors were preferred) that violation handling
    /// may revisit; buffer holds the observations seen since,
    /// run-length-encoded (power traces dwell, so runs are the natural
    /// unit). A small stack of checkpoints handles nested ambiguities,
    /// newest first.
    struct Run {
      PropId p = kNoProp;
      std::uint32_t count = 0;
    };
    struct Checkpoint {
      StateId state = kNoState;
      PropId enabling = kNoProp;
      std::vector<Run> buffer;
    };
    static void bufferObs(std::vector<Run>& buffer, PropId obs);
    static constexpr std::size_t kMaxCheckpoints = 4;
    std::vector<Checkpoint> checkpoints_;
    std::vector<common::BitVector> prev_inputs_;
    std::size_t predictions_ = 0;
    std::size_t wrong_ = 0;
    std::size_t unexpected_ = 0;
    std::size_t lost_instants_ = 0;
  };

  Session startSession() const { return Session(*this); }

  /// Batch simulation of a whole functional trace.
  SimResult simulate(const trace::FunctionalTrace& trace) const;

  const Psm& psm() const { return *psm_; }
  const Hmm& hmm() const { return hmm_; }
  const PropositionDomain& domain() const { return *domain_; }

 private:
  const std::vector<StateId>& successors(StateId from, PropId enabling) const;

  const Psm* psm_;
  const PropositionDomain* domain_;
  SimOptions options_;
  Hmm hmm_;
  /// Fallback state while desynchronized before any state was entered.
  StateId default_state_ = kNoState;
  /// Per trace-variable: is it a primary input (for the input-HD scope).
  std::vector<char> is_input_;
  /// (state, enabling proposition) -> unique successor states; built once
  /// so the per-cycle hot path avoids scanning the transition list.
  std::unordered_map<std::uint64_t, std::vector<StateId>> adjacency_;
};

}  // namespace psmgen::core

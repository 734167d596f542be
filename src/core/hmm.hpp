#pragma once
// Hidden Markov Model over a joined PSM (paper Sec. V).
//
// lambda = <Q, E, A, B, pi> where Q is the set of PSM states, E the set of
// distinct characterizing assertions (pattern sequences), A is built from
// transition multiplicities, B from the multiplicity with which the join
// put each assertion into each state's alternative set, and pi from the
// number of training traces whose PSM starts in each state.
//
// The Filter implements the paper's simulation strategy: a forward
// "filtering" step updates the belief over hidden states from the
// observed assertion; non-deterministic choices pick the most probable
// candidate; when a wrong state is predicted the simulator reverts to the
// last valid state and the offending transition probability is fixed to 0
// (penalize) while the mis-prediction is being repaired. Penalties are
// *transient*: they exist so the repair does not immediately re-pick the
// branch that just failed, and relax() restores the trained matrix once
// the simulator advances cleanly again. (The paper keeps them for the
// rest of the run; over long serving streams that permanently corrodes
// A — every context where the penalized branch was the *right* answer
// then mispredicts too, which is exactly the WSP blow-up this revision
// fixes.) penalizeState covers the first mis-prediction, where there is
// no last-valid source state to index a transition penalty from: the
// wrong state is suppressed in the belief and in the initial-choice
// prior instead.

// The matrices are compiled into flat O(alternatives + transitions)
// tables (never n x n or n x E: artifacts are untrusted input), so
// Filter::step allocates nothing and adds exactly the dense recurrence's
// non-zero terms in its order (DESIGN.md "Prediction accounting").

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/psm.hpp"

namespace psmgen::core {

using EventId = int;
inline constexpr EventId kNoEvent = -1;

class Hmm {
 public:
  explicit Hmm(const Psm& psm);

  /// The event of one (state, alternative) and b_j of that event (equal
  /// alternatives of a state share the summed weight).
  struct Emission {
    EventId event = kNoEvent;
    double b = 0.0;
  };

  std::size_t stateCount() const { return n_; }
  std::size_t eventCount() const { return events_.size(); }

  /// Event id of an assertion (pattern sequence); kNoEvent if the
  /// sequence never occurs in the PSM.
  EventId eventOf(const PatternSeq& seq) const;
  const PatternSeq& event(EventId id) const { return events_.at(id); }

  double a(StateId i, StateId j) const;
  double b(StateId j, EventId e) const;
  double pi(StateId i) const { return pi_.at(static_cast<std::size_t>(i)); }

  /// Emissions of state s, indexed like its assertion's alternatives.
  std::span<const Emission> emissions(StateId s) const {
    const auto k = static_cast<std::size_t>(s);
    return {alt_emissions_.data() + alt_begin_[k],
            alt_emissions_.data() + alt_begin_[k + 1]};
  }

  class Filter {
   public:
    explicit Filter(const Hmm& hmm);

    /// Restores belief = pi and clears all penalties.
    void reset();

    /// Forward filtering step given the observed assertion event.
    void step(EventId event);

    /// Collapses the belief to the state the simulator committed to
    /// (mixed with the filtered distribution to keep alternatives alive).
    void commit(StateId s);

    /// Predictive score of moving to `j` next, given the current belief
    /// and the penalized transition weights.
    double predictiveScore(StateId j, EventId event) const;

    /// Most probable candidate as next state; kNoState for an empty list.
    StateId bestAmong(const std::vector<StateId>& candidates,
                      EventId event) const;

    /// Most probable initial state given pi and the first observation.
    StateId bestInitial(const std::vector<StateId>& candidates,
                        EventId event) const;

    /// Fixes the (penalized) probability of i -> j to 0 until relax().
    void penalize(StateId i, StateId j);

    /// Penalty for a mis-prediction with no source state (the first entry
    /// of a stream): suppresses j in the belief and in the initial-choice
    /// prior until relax(), so the repair cannot re-pick it.
    void penalizeState(StateId j);

    /// Lifts every active penalty: restores the trained transition
    /// weights and the initial prior. The belief is left as filtered (it
    /// evolves on its own). Cheap no-op when nothing is penalized.
    void relax();

    bool hasPenalties() const {
      return !penalized_.empty() || pi_penalized_;
    }

    const std::vector<double>& belief() const { return belief_; }

   private:
    /// Sum over the incoming edges of j of belief(i) * penalized a(i, j).
    double predicted(std::size_t j) const;

    const Hmm* hmm_;
    std::vector<double> belief_;
    /// step()'s output buffer, swapped with belief_ on success.
    std::vector<double> next_;
    /// The trained edge weights of hmm_->in_a_ with penalties applied.
    std::vector<double> a_penalized_;
    /// Edge indices currently forced to 0 (relax() restores them from
    /// hmm_->in_a_); at most one entry per edge.
    std::vector<std::size_t> penalized_;
    /// Initial-choice prior with penalizeState suppressions; only read
    /// while pi_penalized_.
    std::vector<double> pi_overlay_;
    bool pi_penalized_ = false;
  };

 private:
  /// Index of edge i -> j in the incoming CSR, or in_src_.size().
  std::size_t edgeIndex(StateId i, StateId j) const;

  std::size_t n_ = 0;
  std::vector<double> pi_;
  std::vector<PatternSeq> events_;
  /// Per state: its alternatives' emissions, alt_begin_[s] .. [s + 1].
  std::vector<std::size_t> alt_begin_;
  std::vector<Emission> alt_emissions_;
  /// Per event: the states emitting it with b > 0, ascending,
  /// emitters_[emit_begin_[e]] .. [e + 1].
  struct Emitter {
    StateId state = kNoState;
    double b = 0.0;
  };
  std::vector<std::size_t> emit_begin_;
  std::vector<Emitter> emitters_;
  /// Per target state: its incoming transitions, ascending by source,
  /// in_src_/in_a_[in_begin_[j]] .. [j + 1] (row-normalized weights).
  std::vector<std::size_t> in_begin_;
  std::vector<StateId> in_src_;
  std::vector<double> in_a_;
  friend class Filter;
};

}  // namespace psmgen::core

#include "core/psm_simulator.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace psmgen::core {

PsmSimulator::PsmSimulator(const Psm& psm, const PropositionDomain& domain,
                           SimOptions options)
    : psm_(&psm), domain_(&domain), options_(options), hmm_(psm) {
  if (psm.stateCount() == 0) {
    throw std::invalid_argument("PsmSimulator: empty PSM");
  }
  // Default fallback: the most probable initial state, or state 0.
  double best = -1.0;
  for (const StateId s : psm.initialStates()) {
    if (hmm_.pi(s) > best) {
      best = hmm_.pi(s);
      default_state_ = s;
    }
  }
  if (default_state_ == kNoState) default_state_ = 0;
  for (const auto& v : domain.variables().all()) {
    is_input_.push_back(v.kind == trace::VarKind::Input ? 1 : 0);
  }
  for (const auto& s : psm.states()) {
    std::size_t patterns = 0;
    for (const PatternSeq& seq : s.assertion.alts) patterns += seq.size();
    max_matches_ = std::max(max_matches_, patterns);
  }

  // Successor groups, ascending by (state, enabling proposition), each
  // listing its unique targets in first-appearance order.
  std::map<std::pair<StateId, PropId>, std::vector<StateId>> groups;
  for (const auto& t : psm.transitions()) {
    auto& targets = groups[{t.from, t.enabling}];
    if (std::find(targets.begin(), targets.end(), t.to) == targets.end()) {
      targets.push_back(t.to);
    }
  }
  succ_begin_.assign(psm.stateCount() + 1, 0);
  for (const auto& [key, targets] : groups) {
    const auto begin = static_cast<std::uint32_t>(succ_targets_.size());
    succ_targets_.insert(succ_targets_.end(), targets.begin(), targets.end());
    succ_groups_.push_back(
        {key.second, begin, static_cast<std::uint32_t>(succ_targets_.size())});
    ++succ_begin_[static_cast<std::size_t>(key.first) + 1];
    max_successors_ = std::max(max_successors_, targets.size());
  }
  for (std::size_t k = 0; k + 1 < succ_begin_.size(); ++k) {
    succ_begin_[k + 1] += succ_begin_[k];
  }
}

std::span<const StateId> PsmSimulator::successors(StateId from,
                                                  PropId enabling) const {
  const auto k = static_cast<std::size_t>(from);
  const auto first = succ_groups_.begin() +
                     static_cast<std::ptrdiff_t>(succ_begin_[k]);
  const auto last = succ_groups_.begin() +
                    static_cast<std::ptrdiff_t>(succ_begin_[k + 1]);
  const auto it = std::lower_bound(
      first, last, enabling,
      [](const SuccessorGroup& g, PropId p) { return g.enabling < p; });
  if (it == last || it->enabling != enabling) return {};
  return {succ_targets_.data() + it->begin, succ_targets_.data() + it->end};
}

PsmSimulator::Session::Session(const PsmSimulator& sim)
    : sim_(&sim), filter_(sim.hmm_) {
  configs_.reserve(sim.max_matches_);
  survivors_.reserve(sim.max_matches_);
  matches_.reserve(sim.max_matches_);
  viable_.reserve(
      std::max(sim.max_successors_, sim.psm_->initialStates().size()));
  for (Checkpoint& chk : checkpoints_) {
    chk.buffer.reserve(kMaxBacktrackRuns + 1);
  }
  replay_.reserve(kMaxBacktrackRuns + 1);
  for (const auto& v : sim.domain_->variables().all()) {
    prev_inputs_.emplace_back(v.width);
  }
}

/// The output of the current (or fallback) state. Only a regression
/// output reads the input and interface Hamming distances to the previous
/// row, so only then are they computed.
double PsmSimulator::Session::outputPower(
    const std::vector<common::BitVector>& row) const {
  const StateId s = cur_ != kNoState ? cur_ : sim_->default_state_;
  const PowerState& state = sim_->psm_->state(s);
  unsigned hd_in = 0;
  unsigned hd_io = 0;
  if (state.regression && has_prev_) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      const unsigned d =
          common::BitVector::hammingDistance(row[k], prev_inputs_[k]);
      hd_io += d;
      if (sim_->is_input_[k]) hd_in += d;
    }
  }
  return state.output(hd_in, hd_io);
}

/// Fills matches_ with the configurations of `s` that accept `obs`: the
/// alternatives whose first pattern opens on it (entry_only), or every
/// (alternative, position) whose pattern does. Returns !matches_.empty().
bool PsmSimulator::Session::matchConfigs(StateId s, PropId obs,
                                         bool entry_only) {
  matches_.clear();
  const auto& alts = sim_->psm_->state(s).assertion.alts;
  for (std::size_t a = 0; a < alts.size(); ++a) {
    const PatternSeq& seq = alts[a];
    const std::size_t limit = entry_only ? std::min<std::size_t>(1, seq.size())
                                         : seq.size();
    for (std::size_t k = 0; k < limit; ++k) {
      if (seq[k].p == obs) matches_.push_back({a, k});
    }
  }
  return !matches_.empty();
}

/// Ranks a candidate state, whose configurations matchConfigs just left in
/// matches_, for a non-deterministic choice. With the HMM: the
/// forward-filtering predictive mass into the state times the emission
/// probability of the best alternative the entry would select (b_j of the
/// observed assertion), with the training population as an epsilon
/// tie-break. Without the HMM: training population alone (the
/// frequency-ablation policy).
double PsmSimulator::Session::choiceScore(StateId s) const {
  const PowerState& state = sim_->psm_->state(s);
  if (!sim_->options_.use_hmm) return static_cast<double>(state.power.n);
  const std::span<const Hmm::Emission> emissions = sim_->hmm_.emissions(s);
  double b_best = 0.0;
  for (const Config& c : matches_) {
    b_best = std::max(b_best, emissions[c.alt].b);
  }
  return filter_.predictiveScore(s, kNoEvent) * b_best +
         1e-9 * static_cast<double>(state.power.n);
}

/// The best-scoring target of (from, enabling) that accepts `obs`, first
/// best on ties; `viable` counts the targets that qualified. An exit
/// matches entry patterns only. A re-route (after `failed` violated)
/// matches anywhere in the assertion and, with the HMM, skips targets the
/// penalized transitions no longer reach.
StateId PsmSimulator::Session::bestSuccessor(StateId from, PropId enabling,
                                             PropId obs, bool reroute,
                                             StateId failed,
                                             std::size_t& viable) {
  const std::span<const StateId> candidates = sim_->successors(from, enabling);
  StateId best = kNoState;
  double best_score = -1.0;
  viable = 0;
  for (const StateId c : candidates) {
    if (reroute) {
      if (c == failed) continue;
      if (sim_->options_.use_hmm &&
          filter_.predictiveScore(c, kNoEvent) <= 0.0) {
        continue;
      }
    }
    if (!matchConfigs(c, obs, /*entry_only=*/!reroute)) continue;
    ++viable;
    // A lone candidate needs no score.
    const double score = candidates.size() > 1 ? choiceScore(c) : 0.0;
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

bool PsmSimulator::Session::enterState(StateId s, PropId obs, bool entry_only,
                                       bool was_choice, PropId enabling) {
  if (!matchConfigs(s, obs, entry_only)) return false;
  revert_from_ = cur_;
  cur_ = s;
  last_valid_ = s;
  entry_enabling_ = enabling;
  configs_.swap(matches_);
  lost_ = false;
  entry_was_choice_ = was_choice;
  if (was_choice) ++predictions_;
  if (sim_->options_.use_hmm) {
    // Belief update with the (first) matched assertion as observation.
    filter_.step(sim_->hmm_.emissions(s)[configs_[0].alt].event);
    filter_.commit(s);
  }
  return true;
}

void PsmSimulator::Session::tryRecognize(PropId obs) {
  if (obs == kNoProp) return;
  // Jump to the state that best explains the observation, anywhere in its
  // assertion set (paper: stay in the last valid state until a known
  // behaviour is finally recognised).
  StateId best = kNoState;
  double best_score = -1.0;
  for (const auto& s : sim_->psm_->states()) {
    if (!matchConfigs(s.id, obs, /*entry_only=*/false)) continue;
    const double score = choiceScore(s.id);
    if (score > best_score) {
      best_score = score;
      best = s.id;
    }
  }
  if (best != kNoState) {
    // Recognition is not a transition: the entry carries no enabling
    // proposition, so a later violation in the recognized state can only
    // re-route through *its own* entry context, never a stale one. It is
    // not a *prediction* either — a resync guess recovers from behaviour
    // the model does not cover, and its failure is more of the same
    // unexpected behaviour, not a wrong successor choice (WSP measures
    // the HMM at non-deterministic transitions only).
    enterState(best, obs, /*entry_only=*/false, /*was_choice=*/false,
               /*enabling=*/kNoProp);
  }
}

void PsmSimulator::Session::handleViolation(PropId obs) {
  lost_ = true;
  const StateId wrong_state = cur_;
  const bool was_choice = entry_was_choice_;
  const StateId from = revert_from_;
  const PropId enabling = entry_enabling_;
  // Revert to the last valid state. At the first mis-prediction of a
  // stream there is none: fall back to the desynchronized default (the
  // output uses default_state_) instead of staying in the wrong state.
  cur_ = last_valid_ = from;
  // Every violation is exactly one of the two failure kinds: a failed
  // non-deterministic choice (wrong prediction) or a deterministic path
  // the training traces never covered (unexpected behaviour).
  if (was_choice) {
    ++wrong_;
  } else {
    ++unexpected_;
  }
  if (sim_->options_.use_hmm && wrong_state != kNoState) {
    // Transiently suppress the failed branch so the repair below (and the
    // recognition that may follow) cannot immediately re-pick it; step()
    // lifts the penalty once the session advances cleanly again.
    if (from != kNoState) {
      filter_.penalize(from, wrong_state);
    } else {
      filter_.penalizeState(wrong_state);
    }
  }
  // Follow a different path from the last valid state: another target of
  // the same enabling function that accepts the current observation.
  if (from != kNoState && enabling != kNoProp) {
    std::size_t viable = 0;
    const StateId best = bestSuccessor(from, enabling, obs, /*reroute=*/true,
                                       wrong_state, viable);
    if (best != kNoState &&
        enterState(best, obs, /*entry_only=*/false,
                   /*was_choice=*/viable > 1, enabling)) {
      return;
    }
  }
  // No alternative path: remain in the last valid state and wait for a
  // recognisable behaviour.
  tryRecognize(obs);
}

void PsmSimulator::Session::bufferObs(std::vector<Run>& buffer, PropId obs) {
  if (!buffer.empty() && buffer.back().p == obs &&
      buffer.back().count < std::numeric_limits<std::uint32_t>::max()) {
    ++buffer.back().count;
  } else {
    buffer.push_back({obs, 1});
  }
}

void PsmSimulator::Session::pushCheckpoint(StateId state, PropId enabling) {
  if (checkpoint_count_ == kMaxCheckpoints) dropOldestCheckpoint();
  Checkpoint& chk = checkpoints_[checkpoint_count_++];
  chk.state = state;
  chk.enabling = enabling;
  chk.buffer.clear();
}

void PsmSimulator::Session::dropOldestCheckpoint() {
  std::rotate(checkpoints_.begin(), checkpoints_.begin() + 1,
              checkpoints_.begin() +
                  static_cast<std::ptrdiff_t>(checkpoint_count_));
  --checkpoint_count_;
}

double PsmSimulator::Session::step(const std::vector<common::BitVector>& row) {
  if (row.size() != sim_->is_input_.size()) {
    throw std::invalid_argument(
        "PsmSimulator::Session::step: row has " + std::to_string(row.size()) +
        " values, the domain has " + std::to_string(sim_->is_input_.size()) +
        " variables");
  }
  // The Hamming distances compare consecutive rows of one stream: reject
  // a value whose width changed before any state moves.
  if (has_prev_) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (row[k].width() != prev_inputs_[k].width()) {
        throw std::invalid_argument(
            "PsmSimulator::Session::step: value " + std::to_string(k) +
            " changed width between rows");
      }
    }
  }

  const PropId obs = sim_->domain_->findRow(row);

  if (!started_) {
    started_ = true;
    if (obs != kNoProp) {
      // Choose the starting state among all initial states (Sec. V).
      viable_.clear();
      for (const StateId s : sim_->psm_->initialStates()) {
        if (matchConfigs(s, obs, /*entry_only=*/true)) viable_.push_back(s);
      }
      StateId pick = kNoState;
      if (!viable_.empty()) {
        pick = sim_->options_.use_hmm ? filter_.bestInitial(viable_, kNoEvent)
                                      : viable_.front();
      }
      if (pick == kNoState ||
          !enterState(pick, obs, /*entry_only=*/true,
                      /*was_choice=*/viable_.size() > 1,
                      /*enabling=*/kNoProp)) {
        tryRecognize(obs);
      }
    }
  } else if (lost_) {
    tryRecognize(obs);
  } else {
    for (std::size_t i = 0; i < checkpoint_count_; ++i) {
      bufferObs(checkpoints_[i].buffer, obs);
    }
    while (checkpoint_count_ > 0 &&
           checkpoints_[0].buffer.size() > kMaxBacktrackRuns) {
      dropOldestCheckpoint();
    }
    if (advanceCore(obs) == Advance::Violation) {
      if (!tryBacktrack()) handleViolation(obs);
    } else if (filter_.hasPenalties()) {
      // A clean advance ends the mis-prediction repair: restore the
      // trained transition weights (hmm.hpp "transient penalties").
      filter_.relax();
    }
  }
  // The single lost-instant accounting point: a row counts as lost iff
  // its processing ends desynchronized (so no path can count one row
  // twice, and a violation repaired within the row counts zero).
  if (lost_) ++lost_instants_;
  const double power = outputPower(row);
  for (std::size_t k = 0; k < row.size(); ++k) prev_inputs_[k] = row[k];
  has_prev_ = true;
  return power;
}

PsmSimulator::Session::Advance PsmSimulator::Session::advanceCore(
    PropId obs) {
  // Advance every viable alternative of the current state's assertion.
  const auto& alts = sim_->psm_->state(cur_).assertion.alts;
  std::vector<Config>& survivors = survivors_;
  survivors.clear();
  bool exit_requested = false;
  for (const Config& c : configs_) {
    const PatternSeq& seq = alts[c.alt];
    const Pattern& pat = seq[c.pos];
    if (pat.is_until && obs == pat.p) {
      survivors.push_back(c);  // still inside the until run
      continue;
    }
    if (pat.q != kNoProp && obs == pat.q) {
      if (c.pos + 1 < seq.size()) {
        // The exit proposition opens the next pattern of the sequence
        // (its entry proposition by construction).
        survivors.push_back({c.alt, c.pos + 1});
      } else {
        exit_requested = true;
      }
      continue;
    }
    // Alternative dies.
  }

  if (!survivors.empty()) {
    // Alternatives that continue win over alternatives that exit, but the
    // forgone exit is checkpointed: if the surviving interpretation later
    // dies, tryBacktrack() revisits the exit and replays the buffered
    // observations through it (bounded NFA backtracking).
    if (exit_requested && !sim_->successors(cur_, obs).empty()) {
      pushCheckpoint(cur_, obs);
    }
    configs_.swap(survivors);
    return Advance::Stayed;
  }

  if (!exit_requested && sim_->options_.generalize_exits &&
      !sim_->successors(cur_, obs).empty()) {
    // Generalized exit (documented extension): every alternative died, but
    // the state has a trained transition enabled by the observation — the
    // state's exit alphabet is the union of its alternatives' exits, so
    // an occupancy that was valid until now may leave through any of
    // them (e.g. an idle that outlived its next-pattern alternative and
    // then sees that alternative's exit proposition).
    exit_requested = true;
  }

  if (!exit_requested) return Advance::Violation;

  // Leave through the transition enabled by the observed proposition.
  std::size_t viable = 0;
  const StateId best = bestSuccessor(cur_, obs, obs, /*reroute=*/false,
                                     kNoState, viable);
  if (best != kNoState &&
      enterState(best, obs, /*entry_only=*/true, /*was_choice=*/viable > 1,
                 /*enabling=*/obs)) {
    return Advance::Exited;
  }
  return Advance::Violation;
}

bool PsmSimulator::Session::tryBacktrack() {
  while (checkpoint_count_ > 0) {
    if (tryCheckpoint()) return true;
  }
  return false;
}

/// Attempts the newest checkpoint; pops it regardless of the outcome.
bool PsmSimulator::Session::tryCheckpoint() {
  Checkpoint& chk = checkpoints_[checkpoint_count_ - 1];
  const StateId from = chk.state;
  const PropId enabling = chk.enabling;
  replay_.swap(chk.buffer);
  --checkpoint_count_;

  // Take the forgone exit at the checkpointed instant...
  viable_.clear();
  for (const StateId c : sim_->successors(from, enabling)) {
    if (matchConfigs(c, enabling, /*entry_only=*/true)) viable_.push_back(c);
  }
  if (viable_.empty()) return false;
  // Order candidates by HMM preference but try them all: the revision is a
  // deterministic reinterpretation of already-seen behaviour, so whichever
  // candidate replays the buffered observations is the right one.
  if (sim_->options_.use_hmm) {
    const StateId best = filter_.bestAmong(viable_, kNoEvent);
    for (std::size_t i = 0; i < viable_.size(); ++i) {
      if (viable_[i] == best) {
        std::swap(viable_[0], viable_[i]);
        break;
      }
    }
  }
  for (const StateId pick : viable_) {
    cur_ = from;
    if (!enterState(pick, enabling, /*entry_only=*/true,
                    /*was_choice=*/false, enabling)) {
      continue;
    }
    bool ok = true;
    // Conflicts during the replay may record checkpoints of their own;
    // those only see the remaining buffered observations (older
    // checkpoints already received them through step()).
    const std::size_t baseline = checkpoint_count_;
    for (const Run& run : replay_) {
      for (std::uint32_t r = 0; ok && r < run.count; ++r) {
        for (std::size_t j = baseline; j < checkpoint_count_; ++j) {
          bufferObs(checkpoints_[j].buffer, run.p);
        }
        if (advanceCore(run.p) == Advance::Violation) ok = false;
      }
      if (!ok) break;
    }
    if (ok) return true;
    // Drop checkpoints recorded under the failed interpretation.
    checkpoint_count_ = std::min(checkpoint_count_, baseline);
  }
  return false;
}

SimResult PsmSimulator::simulate(const trace::FunctionalTrace& trace) const {
  obs::Span span("sim.simulate", "sim");
  Session session = startSession();
  SimResult result;
  result.estimate.reserve(trace.length());
  for (std::size_t t = 0; t < trace.length(); ++t) {
    result.estimate.push_back(session.step(trace.step(t)));
  }
  result.predictions = session.predictions();
  result.wrong_predictions = session.wrongPredictions();
  result.unexpected_behaviours = session.unexpectedBehaviours();
  result.lost_instants = session.lostInstants();

  obs::Registry& reg = obs::metrics();
  reg.counter("sim.instants").add(result.estimate.size());
  reg.counter("sim.predictions").add(result.predictions);
  reg.counter("sim.wrong_predictions").add(result.wrong_predictions);
  reg.counter("sim.unexpected_behaviours").add(result.unexpected_behaviours);
  reg.counter("sim.lost_instants").add(result.lost_instants);
  reg.gauge("sim.wsp_percent").set(result.wspPercent());
  obs::debug("sim.simulated", {{"instants", result.estimate.size()},
                               {"predictions", result.predictions},
                               {"wrong", result.wrong_predictions},
                               {"unexpected", result.unexpected_behaviours},
                               {"lost", result.lost_instants},
                               {"wsp_percent", result.wspPercent()}});
  return result;
}

}  // namespace psmgen::core

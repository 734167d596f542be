#include "core/hmm.hpp"

#include <algorithm>

namespace psmgen::core {

Hmm::Hmm(const Psm& psm) : n_(psm.stateCount()) {
  // Multiplicities are integers, so every sum below is exact (below 2^53)
  // whatever order it runs in: the tables hold the dense matrices'
  // values bit for bit.

  // A: incoming transitions per target, ascending by source, duplicate
  // transitions folded, weights row-normalized by the source's total.
  std::vector<double> row(n_, 0.0);
  std::vector<const Transition*> by_target;
  for (const Transition& t : psm.transitions()) {
    row[static_cast<std::size_t>(t.from)] += static_cast<double>(t.count);
    by_target.push_back(&t);
  }
  std::sort(by_target.begin(), by_target.end(),
            [](const Transition* x, const Transition* y) {
              return std::pair(x->to, x->from) < std::pair(y->to, y->from);
            });
  in_begin_.assign(n_ + 1, 0);
  for (std::size_t k = 0; k < by_target.size(); ++k) {
    const Transition& t = *by_target[k];
    if (k > 0 && by_target[k - 1]->to == t.to &&
        by_target[k - 1]->from == t.from) {
      in_a_.back() += static_cast<double>(t.count);
      continue;
    }
    in_src_.push_back(t.from);
    in_a_.push_back(static_cast<double>(t.count));
    ++in_begin_[static_cast<std::size_t>(t.to) + 1];
  }
  for (std::size_t j = 0; j < n_; ++j) in_begin_[j + 1] += in_begin_[j];
  for (std::size_t k = 0; k < in_a_.size(); ++k) {
    const double total = row[static_cast<std::size_t>(in_src_[k])];
    if (total > 0.0) in_a_[k] /= total;
  }

  // Events and B: the multiplicity of each assertion within each state,
  // normalized per state; each distinct (state, event) with b > 0 is
  // listed once under its event.
  alt_begin_.assign(n_ + 1, 0);
  std::vector<double> weight;  // per event: the current state's total
  std::vector<std::pair<EventId, Emitter>> emitters;
  for (std::size_t k = 0; k < n_; ++k) {
    const StateAssertion& assertion = psm.states()[k].assertion;
    double total = 0.0;
    for (std::size_t alt = 0; alt < assertion.alts.size(); ++alt) {
      EventId e = eventOf(assertion.alts[alt]);
      if (e == kNoEvent) {
        events_.push_back(assertion.alts[alt]);
        weight.push_back(0.0);
        e = static_cast<EventId>(events_.size() - 1);
      }
      const auto count = static_cast<double>(assertion.countOf(alt));
      weight[static_cast<std::size_t>(e)] += count;
      total += count;
      alt_emissions_.push_back({e, 0.0});
    }
    alt_begin_[k + 1] = alt_emissions_.size();
    for (std::size_t i = alt_begin_[k]; i < alt_begin_[k + 1]; ++i) {
      const double w = weight[static_cast<std::size_t>(alt_emissions_[i].event)];
      alt_emissions_[i].b = total > 0.0 ? w / total : 0.0;
    }
    for (std::size_t i = alt_begin_[k]; i < alt_begin_[k + 1]; ++i) {
      const Emission& em = alt_emissions_[i];
      double& w = weight[static_cast<std::size_t>(em.event)];
      if (w > 0.0) emitters.push_back({em.event, {static_cast<StateId>(k), em.b}});
      w = 0.0;  // lists the event once and resets it for the next state
    }
  }
  // Emitters arrive by ascending state; a stable sort by event keeps
  // each event's list ascending.
  std::stable_sort(emitters.begin(), emitters.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  emit_begin_.assign(events_.size() + 1, 0);
  for (const auto& [e, m] : emitters) {
    ++emit_begin_[static_cast<std::size_t>(e) + 1];
    emitters_.push_back(m);
  }
  for (std::size_t e = 0; e < events_.size(); ++e) {
    emit_begin_[e + 1] += emit_begin_[e];
  }

  // pi: number of traces whose PSM starts in each state.
  pi_.assign(n_, 0.0);
  double total = 0.0;
  for (const auto& s : psm.states()) {
    pi_[static_cast<std::size_t>(s.id)] = static_cast<double>(s.initial_count);
    total += static_cast<double>(s.initial_count);
  }
  if (total > 0.0) {
    for (auto& p : pi_) p /= total;
  } else if (n_ > 0) {
    std::fill(pi_.begin(), pi_.end(), 1.0 / static_cast<double>(n_));
  }
}

EventId Hmm::eventOf(const PatternSeq& seq) const {
  for (std::size_t k = 0; k < events_.size(); ++k) {
    if (events_[k] == seq) return static_cast<EventId>(k);
  }
  return kNoEvent;
}

std::size_t Hmm::edgeIndex(StateId i, StateId j) const {
  const auto to = static_cast<std::size_t>(j);
  if (j < 0 || to >= n_) return in_src_.size();
  const auto first = in_src_.begin() + static_cast<std::ptrdiff_t>(in_begin_[to]);
  const auto last = in_src_.begin() + static_cast<std::ptrdiff_t>(in_begin_[to + 1]);
  const auto it = std::lower_bound(first, last, i);
  return it != last && *it == i
             ? static_cast<std::size_t>(it - in_src_.begin())
             : in_src_.size();
}

double Hmm::a(StateId i, StateId j) const {
  const std::size_t k = edgeIndex(i, j);
  return k < in_a_.size() ? in_a_[k] : 0.0;
}

double Hmm::b(StateId j, EventId e) const {
  if (e < 0 || static_cast<std::size_t>(e) >= events_.size()) return 0.0;
  const auto first = emitters_.begin() + static_cast<std::ptrdiff_t>(
                                             emit_begin_[static_cast<std::size_t>(e)]);
  const auto last = emitters_.begin() + static_cast<std::ptrdiff_t>(
                                            emit_begin_[static_cast<std::size_t>(e) + 1]);
  const auto it = std::lower_bound(
      first, last, j, [](const Emitter& m, StateId s) { return m.state < s; });
  return it != last && it->state == j ? it->b : 0.0;
}

Hmm::Filter::Filter(const Hmm& hmm) : hmm_(&hmm) {
  next_.assign(hmm.n_, 0.0);
  penalized_.reserve(hmm.in_a_.size());
  pi_overlay_ = hmm.pi_;
  reset();
}

void Hmm::Filter::reset() {
  belief_ = hmm_->pi_;
  a_penalized_ = hmm_->in_a_;
  penalized_.clear();
  pi_penalized_ = false;
}

double Hmm::Filter::predicted(std::size_t j) const {
  const Hmm& h = *hmm_;
  double pred = 0.0;
  for (std::size_t k = h.in_begin_[j]; k < h.in_begin_[j + 1]; ++k) {
    pred += belief_[static_cast<std::size_t>(h.in_src_[k])] * a_penalized_[k];
  }
  return pred;
}

// The dense recurrence next[j] = (sum_i belief[i] * a[i][j]) * b[j][e],
// normalized over all j. Only emitters of `event` can be non-zero, and
// only incoming edges contribute to a sum, so both loops visit exactly
// the non-zero terms, in ascending index order: every partial sum is the
// dense one (adding +0.0 to a non-negative sum is exact).
void Hmm::Filter::step(EventId event) {
  const Hmm& h = *hmm_;
  // An event unknown everywhere leaves every term zero: keep the belief.
  if (event < 0 || static_cast<std::size_t>(event) >= h.events_.size()) return;
  const std::size_t lo = h.emit_begin_[static_cast<std::size_t>(event)];
  const std::size_t hi = h.emit_begin_[static_cast<std::size_t>(event) + 1];
  std::fill(next_.begin(), next_.end(), 0.0);
  double sum = 0.0;
  for (std::size_t k = lo; k < hi; ++k) {
    const auto j = static_cast<std::size_t>(h.emitters_[k].state);
    next_[j] = predicted(j) * h.emitters_[k].b;
    sum += next_[j];
  }
  if (!(sum > 0.0)) {
    // The observation is impossible under the model: fall back to the
    // observation likelihood alone (resynchronization prior).
    sum = 0.0;
    for (std::size_t k = lo; k < hi; ++k) {
      next_[static_cast<std::size_t>(h.emitters_[k].state)] = h.emitters_[k].b;
      sum += h.emitters_[k].b;
    }
    // Otherwise keep the previous belief (event unknown everywhere).
    if (!(sum > 0.0)) return;
  }
  for (std::size_t k = lo; k < hi; ++k) {
    next_[static_cast<std::size_t>(h.emitters_[k].state)] /= sum;
  }
  belief_.swap(next_);
}

void Hmm::Filter::commit(StateId s) {
  // Blend a point mass at the committed state with the filtered belief so
  // alternative hypotheses survive for later resynchronizations.
  constexpr double kCommitWeight = 0.8;
  for (std::size_t j = 0; j < belief_.size(); ++j) {
    belief_[j] *= (1.0 - kCommitWeight);
  }
  belief_[static_cast<std::size_t>(s)] += kCommitWeight;
}

double Hmm::Filter::predictiveScore(StateId j, EventId event) const {
  const double obs = event == kNoEvent ? 1.0 : hmm_->b(j, event);
  return predicted(static_cast<std::size_t>(j)) * obs;
}

StateId Hmm::Filter::bestAmong(const std::vector<StateId>& candidates,
                               EventId event) const {
  StateId best = kNoState;
  double best_score = -1.0;
  for (const StateId c : candidates) {
    const double score = predictiveScore(c, event);
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

StateId Hmm::Filter::bestInitial(const std::vector<StateId>& candidates,
                                 EventId event) const {
  StateId best = kNoState;
  double best_score = -1.0;
  const std::vector<double>& pi = pi_penalized_ ? pi_overlay_ : hmm_->pi_;
  for (const StateId c : candidates) {
    const double obs = event == kNoEvent ? 1.0 : hmm_->b(c, event);
    const double score = pi.at(static_cast<std::size_t>(c)) * obs;
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

void Hmm::Filter::penalize(StateId i, StateId j) {
  const std::size_t k = hmm_->edgeIndex(i, j);
  if (k < a_penalized_.size() && a_penalized_[k] != 0.0) {
    a_penalized_[k] = 0.0;
    penalized_.push_back(k);
  }
}

void Hmm::Filter::penalizeState(StateId j) {
  const std::size_t idx = static_cast<std::size_t>(j);
  if (!pi_penalized_) pi_overlay_ = hmm_->pi_;
  pi_overlay_[idx] = 0.0;
  pi_penalized_ = true;
  // Suppress the wrong state in the belief too; if that leaves nothing
  // (the belief had collapsed onto j), restart from the suppressed prior.
  belief_[idx] = 0.0;
  double sum = 0.0;
  for (const double v : belief_) sum += v;
  if (sum > 0.0) {
    for (auto& v : belief_) v /= sum;
    return;
  }
  belief_ = pi_overlay_;
  sum = 0.0;
  for (const double v : belief_) sum += v;
  if (sum > 0.0) {
    for (auto& v : belief_) v /= sum;
  } else if (!belief_.empty()) {
    std::fill(belief_.begin(), belief_.end(),
              1.0 / static_cast<double>(belief_.size()));
  }
}

void Hmm::Filter::relax() {
  for (const std::size_t k : penalized_) {
    a_penalized_[k] = hmm_->in_a_[k];
  }
  penalized_.clear();
  pi_penalized_ = false;
}

}  // namespace psmgen::core

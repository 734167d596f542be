#include "trace/power_trace.hpp"

#include <cmath>
#include <stdexcept>

namespace psmgen::trace {

double PowerTrace::mean(std::size_t start, std::size_t stop) const {
  if (start > stop || stop >= watts_.size()) {
    throw std::out_of_range("PowerTrace::mean: bad interval");
  }
  double sum = 0.0;
  for (std::size_t t = start; t <= stop; ++t) sum += watts_[t];
  return sum / static_cast<double>(stop - start + 1);
}

double PowerTrace::totalEnergy() const {
  if (params_.clock_hz <= 0.0) return 0.0;
  double sum = 0.0;
  for (const double s : watts_) sum += s;
  return sum / params_.clock_hz;
}

PowerTrace PowerTrace::subtrace(std::size_t start, std::size_t len) const {
  if (start + len > watts_.size()) {
    throw std::out_of_range("PowerTrace::subtrace: range out of bounds");
  }
  PowerTrace out(params_);
  out.watts_.assign(watts_.begin() + static_cast<std::ptrdiff_t>(start),
                    watts_.begin() + static_cast<std::ptrdiff_t>(start + len));
  return out;
}

void PowerTrace::extend(const PowerTrace& other) {
  watts_.insert(watts_.end(), other.watts_.begin(), other.watts_.end());
}

double meanRelativeError(const std::vector<double>& estimate,
                         const std::vector<double>& reference) {
  if (estimate.size() != reference.size()) {
    throw std::invalid_argument("meanRelativeError: length mismatch");
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < estimate.size(); ++t) {
    if (reference[t] == 0.0) continue;
    sum += std::fabs(estimate[t] - reference[t]) / std::fabs(reference[t]);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace psmgen::trace

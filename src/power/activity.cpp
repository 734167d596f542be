#include "power/activity.hpp"

namespace psmgen::power {

unsigned ActivitySample::totalRegisterToggles() const {
  unsigned total = 0;
  for (const unsigned t : register_toggles) total += t;
  return total;
}

SwitchingActivityTracker::SwitchingActivityTracker(const rtl::Device& device)
    : device_(device) {}

void SwitchingActivityTracker::reset() { has_prev_ = false; }

const ActivitySample& SwitchingActivityTracker::sample(
    const rtl::PortValues& in, const rtl::PortValues& out) {
  const auto& regs = device_.registers();
  ActivitySample& s = sample_;
  s.register_toggles.assign(regs.size(), 0);
  s.input_toggles = 0;
  s.output_toggles = 0;
  if (has_prev_) {
    for (std::size_t i = 0; i < regs.size(); ++i) {
      s.register_toggles[i] =
          common::BitVector::hammingDistance(regs[i]->value(), prev_regs_[i]);
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      s.input_toggles += common::BitVector::hammingDistance(in[i], prev_in_[i]);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      s.output_toggles +=
          common::BitVector::hammingDistance(out[i], prev_out_[i]);
    }
  }
  prev_regs_.resize(regs.size());
  for (std::size_t i = 0; i < regs.size(); ++i) {
    prev_regs_[i] = regs[i]->value();
  }
  prev_in_ = in;
  prev_out_ = out;
  has_prev_ = true;
  return s;
}

}  // namespace psmgen::power

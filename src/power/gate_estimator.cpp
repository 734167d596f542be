#include "power/gate_estimator.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace psmgen::power {

GateLevelEstimator::GateLevelEstimator(rtl::Device& device,
                                       EstimatorConfig config)
    : device_(device), config_(std::move(config)),
      noise_rng_(config_.noise_seed) {
  const auto& regs = device_.registers();
  register_scale_.reserve(regs.size());
  glitchy_.reserve(regs.size());
  for (const rtl::Register* r : regs) {
    double scale = 1.0;
    for (const auto& [prefix, s] : config_.register_cap_scale) {
      if (common::startsWith(r->name(), prefix)) {
        scale = s;
        break;
      }
    }
    register_scale_.push_back(scale);
    total_cap_bits_ += scale * r->width();
    bool glitchy = false;
    for (const auto& prefix : config_.glitch_prefixes) {
      if (common::startsWith(r->name(), prefix)) {
        glitchy = true;
        break;
      }
    }
    glitchy_.push_back(glitchy ? 1 : 0);
  }
  total_cap_bits_ +=
      config_.io_cap_scale * (device_.inputBits() + device_.outputBits());
}

double GateLevelEstimator::registerSwitchedBits(const ActivitySample& sample,
                                                std::size_t i) const {
  double scale = register_scale_[i];
  if (config_.glitch_fraction > 0.0 && glitchy_[i] &&
      sample.register_toggles[i] > 0) {
    // Deterministic data-dependent glitch factor in [1-g, 1+g]: mix the
    // register's new value hash into a uniform deviate.
    std::uint64_t h = device_.registers()[i]->value().hash();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    const double u = 2.0 * (static_cast<double>(h >> 11) * 0x1.0p-53) - 1.0;
    scale *= 1.0 + config_.glitch_fraction * u;
  }
  return scale * sample.register_toggles[i];
}

double GateLevelEstimator::cyclePower(const ActivitySample& sample) {
  double switched_bits = 0.0;
  for (std::size_t i = 0; i < sample.register_toggles.size(); ++i) {
    switched_bits += registerSwitchedBits(sample, i);
  }
  switched_bits +=
      config_.io_cap_scale * (sample.input_toggles + sample.output_toggles);
  switched_bits += config_.clock_tree_fraction * total_cap_bits_;

  const auto& p = config_.params;
  double watts = 0.5 * p.vdd * p.vdd * p.clock_hz * p.cap_per_bit * switched_bits;
  if (config_.noise_fraction > 0.0) {
    watts *= 1.0 + noise_rng_.gaussian(0.0, config_.noise_fraction);
    if (watts < 0.0) watts = 0.0;
  }
  return watts;
}

GateLevelEstimator::Result GateLevelEstimator::run(rtl::Stimulus& stimulus,
                                                   std::size_t cycles) {
  SwitchingActivityTracker tracker(device_);
  tracker.reset();
  trace::PowerTrace power(config_.params);
  power.reserve(cycles);
  rtl::Simulator sim(device_);
  auto observer = [&](std::size_t, const rtl::PortValues& in,
                      const rtl::PortValues& out) {
    power.append(cyclePower(tracker.sample(in, out)));
  };
  trace::FunctionalTrace functional = sim.run(stimulus, cycles, observer);
  return {std::move(functional), std::move(power)};
}

GateLevelEstimator::PartitionedResult GateLevelEstimator::runPartitioned(
    rtl::Stimulus& stimulus, std::size_t cycles,
    const std::vector<Partition>& partitions) {
  const auto& regs = device_.registers();
  const std::size_t rest = partitions.size();
  std::vector<std::size_t> owner(regs.size(), rest);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    for (std::size_t p = 0; p < partitions.size() && owner[i] == rest; ++p) {
      for (const auto& prefix : partitions[p].register_prefixes) {
        if (common::startsWith(regs[i]->name(), prefix)) {
          owner[i] = p;
          break;
        }
      }
    }
  }

  PartitionedResult result;
  for (const auto& p : partitions) result.names.push_back(p.name);
  result.names.push_back("rest");
  result.power.assign(rest + 1, trace::PowerTrace(config_.params));
  for (auto& trace : result.power) trace.reserve(cycles);

  SwitchingActivityTracker tracker(device_);
  tracker.reset();
  rtl::Simulator sim(device_);
  const auto& cfg = config_;
  std::vector<double> bits(rest + 1);
  auto observer = [&](std::size_t, const rtl::PortValues& in,
                      const rtl::PortValues& out) {
    const ActivitySample& sample = tracker.sample(in, out);
    std::fill(bits.begin(), bits.end(), 0.0);
    for (std::size_t i = 0; i < sample.register_toggles.size(); ++i) {
      bits[owner[i]] += registerSwitchedBits(sample, i);
    }
    // I/O pads and the clock tree belong to the implicit rest partition.
    bits[rest] +=
        cfg.io_cap_scale * (sample.input_toggles + sample.output_toggles);
    bits[rest] += cfg.clock_tree_fraction * total_cap_bits_;
    const auto& pp = cfg.params;
    for (std::size_t p = 0; p <= rest; ++p) {
      double watts =
          0.5 * pp.vdd * pp.vdd * pp.clock_hz * pp.cap_per_bit * bits[p];
      if (cfg.noise_fraction > 0.0) {
        watts *= 1.0 + noise_rng_.gaussian(0.0, cfg.noise_fraction);
        if (watts < 0.0) watts = 0.0;
      }
      result.power[p].append(watts);
    }
  };
  result.functional = sim.run(stimulus, cycles, observer);
  return result;
}

trace::PowerTrace GateLevelEstimator::runPowerOnly(rtl::Stimulus& stimulus,
                                                   std::size_t cycles) {
  SwitchingActivityTracker tracker(device_);
  tracker.reset();
  trace::PowerTrace power(config_.params);
  power.reserve(cycles);
  rtl::Simulator sim(device_);
  auto observer = [&](std::size_t, const rtl::PortValues& in,
                      const rtl::PortValues& out) {
    power.append(cyclePower(tracker.sample(in, out)));
  };
  sim.runSilent(stimulus, cycles, observer);
  return power;
}

}  // namespace psmgen::power

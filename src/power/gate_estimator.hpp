#pragma once
// Gate-level power estimation surrogate (stands in for Synopsys PrimeTime
// PX, which the paper uses to produce reference power traces).
//
// Per-cycle dynamic power follows the paper's own formula (Def. 2):
//   delta(t) = 1/2 * Vdd^2 * f * C * alpha(t)
// where alpha(t) is derived from the observed register-file and I/O
// switching activity. Extensions that reproduce the behaviour of a real
// gate-level estimate:
//   - per-register capacitance scaling (combinational cones of different
//     sub-blocks load their registers differently; this is how the
//     Camellia "poorly correlated subcomponents" effect arises),
//   - a clock-tree term toggling every cycle (power is never exactly 0),
//   - optional multiplicative Gaussian measurement noise.
//
// What the surrogate models, and therefore pays for on every cycle: a
// snapshot and Hamming diff of the full register file (RAM's 8192-bit
// array included) and of every port, plus AES's and Camellia's
// combinational cones, which their device models evaluate unconditionally
// whatever the FSM state. Host-side overhead is not modelled: a cycle
// makes no heap allocation, and the glitch term hashes only the
// glitch-prefixed registers that toggled.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "power/activity.hpp"
#include "rtl/simulator.hpp"
#include "rtl/stimulus.hpp"
#include "trace/power_trace.hpp"

namespace psmgen::power {

struct EstimatorConfig {
  trace::PowerParams params;

  /// Per-register capacitance scale factors, matched by register-name
  /// prefix (first match wins). Registers with no match use scale 1.
  std::vector<std::pair<std::string, double>> register_cap_scale;

  /// Weight of an input/output port toggle relative to a register toggle
  /// (pad + first-level combinational capacitance).
  double io_cap_scale = 0.5;

  /// Fraction of the total device capacitance switched by the clock tree
  /// on every cycle (keeps idle power non-zero, as in real silicon).
  double clock_tree_fraction = 0.02;

  /// Relative sigma of multiplicative Gaussian measurement noise; 0
  /// disables noise.
  double noise_fraction = 0.0;
  std::uint64_t noise_seed = 1;

  /// Data-dependent glitch activity in deep combinational cones: the
  /// effective switched capacitance of registers whose name matches a
  /// prefix in `glitch_prefixes` is scaled per cycle by
  /// (1 + glitch_fraction * u), where u in [-1, 1] is derived
  /// deterministically from the register's new value. Gate-level
  /// estimates of glitch-heavy logic (S-box cascades, Feistel rounds)
  /// swing this way with the data while being invisible at the ports —
  /// the "poorly correlated subcomponents" behaviour of the paper's
  /// Camellia benchmark. 0 disables.
  double glitch_fraction = 0.0;
  std::vector<std::string> glitch_prefixes;
};

class GateLevelEstimator {
 public:
  GateLevelEstimator(rtl::Device& device, EstimatorConfig config);

  struct Result {
    trace::FunctionalTrace functional;
    trace::PowerTrace power;
  };

  /// Resets the device and simulates `cycles` cycles of `stimulus`,
  /// producing the paired functional and power training traces.
  Result run(rtl::Stimulus& stimulus, std::size_t cycles);

  /// Power-only variant used for timing comparisons.
  trace::PowerTrace runPowerOnly(rtl::Stimulus& stimulus, std::size_t cycles);

  /// A named subcomponent: the registers whose names match one of the
  /// prefixes belong to it. Registers matched by no partition, the I/O
  /// pads and the clock tree are charged to an implicit "rest" partition
  /// appended at the end.
  struct Partition {
    std::string name;
    std::vector<std::string> register_prefixes;
  };

  struct PartitionedResult {
    trace::FunctionalTrace functional;
    /// One power trace per requested partition, plus the trailing "rest".
    std::vector<trace::PowerTrace> power;
    std::vector<std::string> names;
  };

  /// Hierarchical characterization (the paper's future-work direction):
  /// one simulation producing a per-subcomponent power trace. The sum of
  /// the partition traces equals the run() trace up to measurement noise
  /// (noise is drawn per partition).
  PartitionedResult runPartitioned(rtl::Stimulus& stimulus,
                                   std::size_t cycles,
                                   const std::vector<Partition>& partitions);

  /// Total effective capacitance (in per-bit units) of the device under
  /// this configuration — the C of the paper's formula.
  double effectiveCapacitanceBits() const { return total_cap_bits_; }

  /// Power of one cycle from its activity sample. Call right after the
  /// tracker sampled the device, since the glitch term reads the device's
  /// current register values. Draws measurement noise, so the sequence of
  /// calls matters.
  double cyclePower(const ActivitySample& sample);

 private:
  double registerSwitchedBits(const ActivitySample& sample,
                              std::size_t i) const;

  rtl::Device& device_;
  EstimatorConfig config_;
  std::vector<double> register_scale_;
  std::vector<char> glitchy_;
  double total_cap_bits_ = 0.0;
  common::Rng noise_rng_;
};

}  // namespace psmgen::power

#pragma once
// Switching-activity tracking over a device's register file and I/O ports.
//
// alpha(t) in the paper's Def. 2 is "the switching activity of M at time
// t". The tracker snapshots the register file after every clock cycle and
// counts toggled bits (per register and for the I/O ports), which is what
// a gate-level power simulator derives from the netlist's value changes.

#include <cstddef>
#include <vector>

#include "rtl/device.hpp"

namespace psmgen::power {

struct ActivitySample {
  /// Toggled register-file bits this cycle, per register (device order).
  std::vector<unsigned> register_toggles;
  /// Toggled input-port bits this cycle.
  unsigned input_toggles = 0;
  /// Toggled output-port bits this cycle.
  unsigned output_toggles = 0;

  unsigned totalRegisterToggles() const;
};

class SwitchingActivityTracker {
 public:
  explicit SwitchingActivityTracker(const rtl::Device& device);

  /// Forgets all snapshots; the next sample() reports zero toggles for the
  /// register file (matching a freshly reset device).
  void reset();

  /// Call after Device::tick with that cycle's port values; returns the
  /// per-bit toggle counts relative to the previous cycle. The sample is
  /// owned by the tracker and overwritten by the next call. The snapshot
  /// is copied into the previous cycle's buffers, so once one cycle has
  /// sized them a sample allocates nothing.
  const ActivitySample& sample(const rtl::PortValues& in,
                               const rtl::PortValues& out);

 private:
  const rtl::Device& device_;
  std::vector<common::BitVector> prev_regs_;
  rtl::PortValues prev_in_;
  rtl::PortValues prev_out_;
  bool has_prev_ = false;
  ActivitySample sample_;
};

}  // namespace psmgen::power

#pragma once
// Cycle-based RTL device model.
//
// This substrate replaces the paper's Verilog RTL / HIFSuite-generated
// SystemC IP models. A Device is a synchronous sequential circuit:
// tick() consumes one vector of input-port values, advances all registers
// by one clock edge, and produces the output-port values. The explicit
// register file serves two purposes:
//   - it is the "gate-level netlist" the power surrogate observes to
//     compute switching activity (paper Def. 2),
//   - its total width is the "memory elements" column of Table I.
//
// DeviceBase provides the bookkeeping (port declaration, register
// allocation, register introspection) so concrete IPs only implement
// reset()/evaluate().

#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.hpp"

namespace psmgen::rtl {

struct PortDef {
  std::string name;
  unsigned width = 1;
};

/// Input or output values aligned with a device's port list.
using PortValues = std::vector<common::BitVector>;

/// A named sequential storage element (flip-flop bank / memory array).
class Register {
 public:
  Register(std::string name, unsigned width)
      : name_(std::move(name)), value_(width) {}

  const std::string& name() const { return name_; }
  unsigned width() const { return value_.width(); }
  const common::BitVector& value() const { return value_; }
  void set(const common::BitVector& v);
  /// Overwrites bits [lo, lo+len) (len <= 64) in place: one masked store
  /// into the stored value, however wide the register is.
  void setField(unsigned lo, unsigned len, std::uint64_t bits) {
    value_.setField(lo, len, bits);
  }
  void clear() { value_.zero(); }

 private:
  std::string name_;
  common::BitVector value_;
};

class Device {
 public:
  virtual ~Device() = default;

  virtual const std::string& name() const = 0;
  virtual const std::vector<PortDef>& inputPorts() const = 0;
  virtual const std::vector<PortDef>& outputPorts() const = 0;

  /// Returns all registers to their reset values.
  virtual void reset() = 0;

  /// Simulates one clock cycle: samples `in` (one value per input port,
  /// widths must match), updates the register file, writes `out` (resized
  /// as needed). Throws std::invalid_argument on malformed inputs.
  virtual void tick(const PortValues& in, PortValues& out) = 0;

  /// Register-file introspection for the power surrogate.
  virtual const std::vector<const Register*>& registers() const = 0;

  /// Mutable register access for fault injection (ip/fault.hpp): a fault
  /// model flips stored bits *between* clock edges, exactly like an SEU
  /// or a DFA glitch hits a physical flip-flop. Devices that do not
  /// support injection return an empty vector (the default).
  virtual std::vector<Register*> mutableRegisters() { return {}; }

  /// Number of source lines of the behavioural description (Table I
  /// "Lines" column surrogate; reported by each IP from its own model).
  virtual std::size_t sourceLines() const = 0;

  // Derived characteristics.
  unsigned inputBits() const;
  unsigned outputBits() const;
  /// Total register bits ("memory elements" in Table I).
  std::size_t memoryElements() const;
};

class DeviceBase : public Device {
 public:
  const std::string& name() const override { return name_; }
  const std::vector<PortDef>& inputPorts() const override { return inputs_; }
  const std::vector<PortDef>& outputPorts() const override { return outputs_; }
  const std::vector<const Register*>& registers() const override {
    return register_views_;
  }
  std::vector<Register*> mutableRegisters() override;

  void tick(const PortValues& in, PortValues& out) final;

 protected:
  explicit DeviceBase(std::string name) : name_(std::move(name)) {}

  /// Declares an input port; returns its index.
  std::size_t addInput(const std::string& port_name, unsigned width);
  /// Declares an output port; returns its index.
  std::size_t addOutput(const std::string& port_name, unsigned width);
  /// Allocates a register; the reference stays valid for the device's life.
  Register& addRegister(const std::string& reg_name, unsigned width);

  /// Clock-edge behaviour implemented by concrete IPs. `out` already has
  /// one zero value of the right width per output port.
  virtual void evaluate(const PortValues& in, PortValues& out) = 0;

 private:
  std::string name_;
  std::vector<PortDef> inputs_;
  std::vector<PortDef> outputs_;
  std::vector<std::unique_ptr<Register>> registers_;
  std::vector<const Register*> register_views_;
};

}  // namespace psmgen::rtl

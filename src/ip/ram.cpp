#include "ip/ram.hpp"

namespace psmgen::ip {

RamIP::RamIP()
    : rtl::DeviceBase("RAM"),
      mem_(addRegister("mem", kWords * kWordBits)) {
  addInput("rst", 1);
  addInput("ce", 1);
  addInput("we", 1);
  addInput("oe", 1);
  addInput("addr", 8);
  addInput("wdata", kWordBits);
  addOutput("rdata", kWordBits);
}

void RamIP::reset() { mem_.clear(); }

void RamIP::evaluate(const rtl::PortValues& in, rtl::PortValues& out) {
  if (in[kRst].bit(0)) {
    mem_.clear();
    return;
  }
  if (!in[kCe].bit(0)) return;

  const unsigned addr = static_cast<unsigned>(in[kAddr].toUint64());
  const unsigned lo = addr * kWordBits;

  if (in[kWe].bit(0)) mem_.setField(lo, kWordBits, in[kWdata].toUint64());
  if (in[kOe].bit(0)) {
    out[kRdata] = mem_.value().slice(lo, kWordBits);
  }
}

}  // namespace psmgen::ip

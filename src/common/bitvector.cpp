#include "common/bitvector.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace psmgen::common {

namespace {
constexpr unsigned kLimbBits = 64;

std::size_t limbsFor(unsigned width) {
  return (static_cast<std::size_t>(width) + kLimbBits - 1) / kLimbBits;
}
}  // namespace

BitVector::BitVector(unsigned width, std::uint64_t value)
    : width_(width), limbs_(limbsFor(width), 0) {
  if (!limbs_.empty()) limbs_[0] = value;
  trim();
}

void BitVector::trim() {
  const unsigned rem = width_ % kLimbBits;
  if (rem != 0 && !limbs_.empty()) {
    limbs_.back() &= (~std::uint64_t{0}) >> (kLimbBits - rem);
  }
}

BitVector BitVector::fromBinary(const std::string& bits) {
  BitVector v(static_cast<unsigned>(bits.size()));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitVector::fromBinary: bad character");
    }
    // bits[0] is the MSB.
    v.setBit(static_cast<unsigned>(bits.size() - 1 - i), c == '1');
  }
  return v;
}

BitVector BitVector::fromHex(std::string_view hex, unsigned width) {
  BitVector v;
  v.assignHex(hex, width);
  return v;
}

void BitVector::assignHex(std::string_view hex, unsigned width) {
  const unsigned natural = static_cast<unsigned>(hex.size()) * 4;
  width_ = width == 0 ? natural : width;
  limbs_.assign(limbsFor(width_), 0);
  // pos is a multiple of 4, so a nibble never straddles two limbs.
  std::size_t pos = 0;  // bit position of the next nibble's LSB
  for (std::size_t i = hex.size(); i-- > 0; pos += 4) {
    const char c = hex[i];
    std::uint64_t nib = 0;
    if (c >= '0' && c <= '9') {
      nib = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nib = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw std::invalid_argument("BitVector::fromHex: bad character");
    }
    if (nib == 0) continue;
    if (pos >= width_ || (width_ - pos < 4 && (nib >> (width_ - pos)) != 0)) {
      throw std::invalid_argument(
          "BitVector::fromHex: value does not fit requested width");
    }
    limbs_[pos / kLimbBits] |= nib << (pos % kLimbBits);
  }
}

void BitVector::assignBytes(const std::uint8_t* bytes, unsigned width) {
  width_ = width;
  limbs_.assign(limbsFor(width_), 0);
  const unsigned nbytes = (width + 7) / 8;
  for (unsigned i = 0; i < nbytes; ++i) {
    limbs_[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  trim();
}

BitVector BitVector::ones(unsigned width) {
  BitVector v(width);
  std::fill(v.limbs_.begin(), v.limbs_.end(), ~std::uint64_t{0});
  v.trim();
  return v;
}

bool BitVector::bit(unsigned i) const {
  if (i >= width_) throw std::out_of_range("BitVector::bit: index out of range");
  return (limbs_[i / kLimbBits] >> (i % kLimbBits)) & 1u;
}

void BitVector::setBit(unsigned i, bool v) {
  if (i >= width_) {
    throw std::out_of_range("BitVector::setBit: index out of range");
  }
  const std::uint64_t mask = std::uint64_t{1} << (i % kLimbBits);
  if (v) {
    limbs_[i / kLimbBits] |= mask;
  } else {
    limbs_[i / kLimbBits] &= ~mask;
  }
}

std::uint64_t BitVector::toUint64() const {
  return limbs_.empty() ? 0 : limbs_[0];
}

bool BitVector::any() const {
  return std::any_of(limbs_.begin(), limbs_.end(),
                     [](std::uint64_t l) { return l != 0; });
}

unsigned BitVector::popcount() const {
  unsigned n = 0;
  for (const std::uint64_t l : limbs_) n += static_cast<unsigned>(std::popcount(l));
  return n;
}

unsigned BitVector::hammingDistance(const BitVector& a, const BitVector& b) {
  if (a.width_ != b.width_) {
    throw std::invalid_argument("BitVector::hammingDistance: width mismatch");
  }
  unsigned n = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    n += static_cast<unsigned>(std::popcount(a.limbs_[i] ^ b.limbs_[i]));
  }
  return n;
}

BitVector BitVector::slice(unsigned lo, unsigned len) const {
  if (static_cast<std::uint64_t>(lo) + len > width_) {
    throw std::out_of_range("BitVector::slice: range out of bounds");
  }
  BitVector out(len);
  for (unsigned i = 0; i < len; ++i) {
    const unsigned src = lo + i;
    if ((limbs_[src / kLimbBits] >> (src % kLimbBits)) & 1u) out.setBit(i, true);
  }
  return out;
}

BitVector BitVector::concat(const BitVector& hi, const BitVector& lo) {
  BitVector out(hi.width_ + lo.width_);
  for (unsigned i = 0; i < lo.width_; ++i) {
    if (lo.bit(i)) out.setBit(i, true);
  }
  for (unsigned i = 0; i < hi.width_; ++i) {
    if (hi.bit(i)) out.setBit(lo.width_ + i, true);
  }
  return out;
}

BitVector BitVector::resized(unsigned new_width) const {
  BitVector out(new_width);
  const std::size_t n = std::min(out.limbs_.size(), limbs_.size());
  std::copy_n(limbs_.begin(), n, out.limbs_.begin());
  out.trim();
  return out;
}

BitVector BitVector::operator&(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::&: width mismatch");
  BitVector out(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) out.limbs_[i] = limbs_[i] & rhs.limbs_[i];
  return out;
}

BitVector BitVector::operator|(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::|: width mismatch");
  BitVector out(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) out.limbs_[i] = limbs_[i] | rhs.limbs_[i];
  return out;
}

BitVector BitVector::operator^(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::^: width mismatch");
  BitVector out(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) out.limbs_[i] = limbs_[i] ^ rhs.limbs_[i];
  return out;
}

BitVector BitVector::operator~() const {
  BitVector out(width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) out.limbs_[i] = ~limbs_[i];
  out.trim();
  return out;
}

BitVector BitVector::operator+(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::+: width mismatch");
  BitVector out(width_);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t a = limbs_[i];
    const std::uint64_t b = rhs.limbs_[i];
    const std::uint64_t s = a + b;
    const std::uint64_t s2 = s + carry;
    carry = (s < a || s2 < s) ? 1 : 0;
    out.limbs_[i] = s2;
  }
  out.trim();
  return out;
}

BitVector BitVector::rotl(unsigned n) const {
  if (width_ == 0) return *this;
  n %= width_;
  if (n == 0) return *this;
  BitVector out(width_);
  for (unsigned i = 0; i < width_; ++i) {
    if (bit(i)) out.setBit((i + n) % width_, true);
  }
  return out;
}

BitVector BitVector::operator<<(unsigned n) const {
  BitVector out(width_);
  for (unsigned i = 0; i + n < width_; ++i) {
    if (bit(i)) out.setBit(i + n, true);
  }
  return out;
}

BitVector BitVector::operator>>(unsigned n) const {
  BitVector out(width_);
  for (unsigned i = n; i < width_; ++i) {
    if (bit(i)) out.setBit(i - n, true);
  }
  return out;
}

bool BitVector::operator==(const BitVector& rhs) const {
  return width_ == rhs.width_ && limbs_ == rhs.limbs_;
}

int BitVector::compare(const BitVector& a, const BitVector& b) {
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  for (std::size_t i = n; i-- > 0;) {
    const std::uint64_t la = a.limb(i);
    const std::uint64_t lb = b.limb(i);
    if (la != lb) return la < lb ? -1 : 1;
  }
  return 0;
}

std::string BitVector::toBinary() const {
  std::string s(width_, '0');
  for (unsigned i = 0; i < width_; ++i) {
    if (bit(i)) s[width_ - 1 - i] = '1';
  }
  return s;
}

std::string BitVector::toHex() const {
  if (width_ == 0) return "";
  const unsigned nibbles = (width_ + 3) / 4;
  std::string s(nibbles, '0');
  static constexpr char kDigits[] = "0123456789abcdef";
  for (unsigned n = 0; n < nibbles; ++n) {
    unsigned nib = 0;
    for (unsigned b = 0; b < 4; ++b) {
      const unsigned pos = n * 4 + b;
      if (pos < width_ && bit(pos)) nib |= 1u << b;
    }
    s[nibbles - 1 - n] = kDigits[nib];
  }
  return s;
}

std::size_t BitVector::hash() const {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(width_);
  for (const std::uint64_t l : limbs_) mix(l);
  return h;
}

}  // namespace psmgen::common

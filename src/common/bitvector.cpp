#include "common/bitvector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace psmgen::common {

void BitVector::grow(std::size_t n) {
  auto* grown = new std::uint64_t[n]();
  if (onHeap()) delete[] limbs_;
  limbs_ = grown;
  capacity_ = static_cast<unsigned>(n);
}

std::uint64_t BitVector::word(unsigned pos) const {
  const std::size_t i = pos / kLimbBits;
  const unsigned off = pos % kLimbBits;
  const std::size_t n = limbCount();
  if (i >= n) return 0;
  std::uint64_t w = limbs_[i] >> off;
  if (off != 0 && i + 1 < n) w |= limbs_[i + 1] << (kLimbBits - off);
  return w;
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

namespace {

/// Hex digit value per character; kNotHex (a bit above any nibble) for
/// every character that is not a hex digit.
constexpr std::uint8_t kNotHex = 0x10;
constexpr std::array<std::uint8_t, 256> kHexNibble = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kNotHex);
  for (int c = 0; c < 10; ++c) table['0' + c] = static_cast<std::uint8_t>(c);
  for (int c = 0; c < 6; ++c) {
    table['a' + c] = static_cast<std::uint8_t>(10 + c);
    table['A' + c] = static_cast<std::uint8_t>(10 + c);
  }
  return table;
}();

std::uint32_t nibbleOf(char c) {
  return kHexNibble[static_cast<unsigned char>(c)];
}

/// The reference decoder: one nibble at a time from the least significant
/// digit, throwing at the first bad character or the first non-zero nibble
/// above `width` it meets. `limbs` holds ceil(width/64) limbs.
void assignHexPerNibble(std::string_view hex, unsigned width,
                        std::uint64_t* limbs) {
  std::fill_n(limbs, (static_cast<std::size_t>(width) + 63) / 64, 0);
  // pos is a multiple of 4, so a nibble never straddles two limbs.
  std::size_t pos = 0;  // bit position of the next nibble's LSB
  for (std::size_t i = hex.size(); i-- > 0; pos += 4) {
    const std::uint64_t nib = nibbleOf(hex[i]);
    if (nib == kNotHex) {
      throw std::invalid_argument("BitVector::fromHex: bad character");
    }
    if (nib == 0) continue;
    if (pos >= width || (width - pos < 4 && (nib >> (width - pos)) != 0)) {
      throw std::invalid_argument(
          "BitVector::fromHex: value does not fit requested width");
    }
    limbs[pos / 64] |= nib << (pos % 64);
  }
}

}  // namespace

void BitVector::assignHex(std::string_view hex, unsigned width) {
  const unsigned natural = static_cast<unsigned>(hex.size()) * 4;
  setWidth(width == 0 ? natural : width);
  // One whole limb per run of 16 digits, least significant run first.
  // A bad character sets kNotHex in `bad` (its stray bit in the limb does
  // not matter: the value is then decoded again below); the width is
  // checked once, after the value is decoded.
  std::uint32_t bad = 0;
  std::size_t end = hex.size();  // digits [0, end) are not decoded yet
  const std::size_t n = limbCount();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t begin = end > 16 ? end - 16 : 0;
    std::uint64_t limb = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t nib = nibbleOf(hex[i]);
      bad |= nib;
      limb = (limb << 4) | nib;
    }
    limbs_[k] = limb;
    end = begin;
  }
  // Digits above the last limb must be zeros, and so must the top limb's
  // bits above the width.
  std::uint32_t spill = 0;
  for (std::size_t i = 0; i < end; ++i) spill |= nibbleOf(hex[i]);
  const unsigned rem = width_ % kLimbBits;
  const bool overflow =
      spill != 0 || (rem != 0 && (limbs_[n - 1] >> rem) != 0);
  // On a bad input, the per-nibble decoder throws the error it meets
  // first, so the message does not depend on this fast path.
  if ((bad & kNotHex) != 0 || overflow) assignHexPerNibble(hex, width_, limbs_);
}

void BitVector::assignBytes(const std::uint8_t* bytes, unsigned width) {
  static_assert(std::endian::native == std::endian::little,
                "limbs are filled from little-endian bytes by memcpy");
  setWidth(width);
  zero();
  std::memcpy(limbs_, bytes, (width + 7) / 8);
  trim();
}

BitVector BitVector::ones(unsigned width) {
  BitVector v(width);
  std::fill_n(v.limbs_, v.limbCount(), ~std::uint64_t{0});
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

void BitVector::setField(unsigned lo, unsigned len, std::uint64_t value) {
  if (len > kLimbBits || static_cast<std::uint64_t>(lo) + len > width_) {
    throw std::out_of_range("BitVector::setField: field out of bounds");
  }
  if (len == 0) return;
  const std::uint64_t mask = ~std::uint64_t{0} >> (kLimbBits - len);
  value &= mask;
  const std::size_t i = lo / kLimbBits;
  const unsigned off = lo % kLimbBits;
  limbs_[i] = (limbs_[i] & ~(mask << off)) | (value << off);
  if (off + len > kLimbBits) {
    // The field straddles into the next limb: its top len-(64-off) bits.
    const unsigned spill = kLimbBits - off;
    limbs_[i + 1] = (limbs_[i + 1] & ~(mask >> spill)) | (value >> spill);
  }
}

std::uint64_t BitVector::toUint64() const {
  return width_ == 0 ? 0 : limbs_[0];
}

bool BitVector::any() const {
  return std::any_of(limbs_, limbs_ + limbCount(),
                     [](std::uint64_t l) { return l != 0; });
}

void BitVector::throwHammingWidthMismatch() {
  throw std::invalid_argument("BitVector::hammingDistance: width mismatch");
}

BitVector BitVector::slice(unsigned lo, unsigned len) const {
  if (static_cast<std::uint64_t>(lo) + len > width_) {
    throw std::out_of_range("BitVector::slice: range out of bounds");
  }
  BitVector out(len);
  for (std::size_t i = 0; i < out.limbCount(); ++i) {
    out.limbs_[i] = word(lo + static_cast<unsigned>(i * kLimbBits));
  }
  out.trim();
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
  std::copy_n(limbs_, std::min(out.limbCount(), limbCount()), out.limbs_);
  out.trim();
  return out;
}

BitVector BitVector::operator&(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::&: width mismatch");
  BitVector out(width_);
  for (std::size_t i = 0; i < limbCount(); ++i) out.limbs_[i] = limbs_[i] & rhs.limbs_[i];
  return out;
}

BitVector BitVector::operator|(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::|: width mismatch");
  BitVector out(width_);
  for (std::size_t i = 0; i < limbCount(); ++i) out.limbs_[i] = limbs_[i] | rhs.limbs_[i];
  return out;
}

BitVector BitVector::operator^(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::^: width mismatch");
  BitVector out(width_);
  for (std::size_t i = 0; i < limbCount(); ++i) out.limbs_[i] = limbs_[i] ^ rhs.limbs_[i];
  return out;
}

BitVector BitVector::operator~() const {
  BitVector out(width_);
  for (std::size_t i = 0; i < limbCount(); ++i) out.limbs_[i] = ~limbs_[i];
  out.trim();
  return out;
}

BitVector BitVector::operator+(const BitVector& rhs) const {
  if (width_ != rhs.width_) throw std::invalid_argument("BitVector::+: width mismatch");
  BitVector out(width_);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < limbCount(); ++i) {
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
  return width_ == rhs.width_ &&
         std::equal(limbs_, limbs_ + limbCount(), rhs.limbs_);
}

int BitVector::compare(const BitVector& a, const BitVector& b) {
  const std::size_t n = std::max(a.limbCount(), b.limbCount());
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
  for (std::size_t i = 0; i < limbCount(); ++i) mix(limbs_[i]);
  return h;
}

}  // namespace psmgen::common

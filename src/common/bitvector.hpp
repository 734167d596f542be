#pragma once
// BitVector: an arbitrary-width, unsigned, two's-complement-free bit vector.
//
// IP ports in this project are up to a few hundred bits wide (AES/Camellia
// have 260/262-bit primary inputs), so plain integers do not suffice.
// BitVector provides the operations the methodology needs:
//   - exact equality / unsigned ordering (for mined relational propositions),
//   - bitwise logic and addition (for implementing the IP models),
//   - Hamming weight / Hamming distance (for the linear-regression power
//     refinement of data-dependent states, paper Sec. IV),
//   - slicing and concatenation (for packing/unpacking port buses).
//
// Values are stored little-endian in 64-bit limbs; bits above `width` are
// always kept zero (class invariant, restored by trim() after every
// mutating operation).
//
// Storage contract: up to kInlineLimbs (two) limbs, i.e. values of at most
// 128 bits, live inside the object and never touch the heap. Every port
// and every register of the four IPs fits, so a simulated cycle copies,
// slices and compares them without allocating. Wider values (RAM's
// 8192-bit `mem` array) own one heap buffer. Like a std::vector's capacity,
// that buffer is kept when the vector is reassigned a narrower value, so a
// wide -> narrow -> wide sequence of assignHex/assignBytes/copy-assignment
// allocates only once. A moved-from BitVector is empty (width 0).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace psmgen::common {

class BitVector {
 public:
  /// Limbs held inside the object; wider values live on the heap.
  static constexpr std::size_t kInlineLimbs = 2;

  /// Constructs a zero-width (empty) vector.
  BitVector() = default;

  /// Constructs a `width`-bit vector holding `value` (truncated to width).
  explicit BitVector(unsigned width, std::uint64_t value = 0) {
    setWidth(width);
    zero();
    if (width_ != 0) limbs_[0] = value;
    trim();
  }

  // Construction, copies and moves are inline: device models and traces
  // copy rows of values every cycle, and between inline values a copy is
  // kInlineLimbs limb stores.
  BitVector(const BitVector& other) { assign(other); }
  BitVector(BitVector&& other) noexcept { take(other); }
  BitVector& operator=(const BitVector& other) {
    if (this != &other) assign(other);
    return *this;
  }
  BitVector& operator=(BitVector&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }
  ~BitVector() {
    if (onHeap()) delete[] limbs_;
  }

  /// Parses a binary string, e.g. "1010" (MSB first). Width = string length.
  static BitVector fromBinary(const std::string& bits);

  /// Parses a hex string, e.g. "deadbeef" (MSB first); width = 4 * length
  /// unless an explicit width is given (which must be >= significant bits).
  static BitVector fromHex(std::string_view hex, unsigned width = 0);

  /// In-place fromHex: overwrites *this with the parsed value, reusing the
  /// existing limb storage (no allocation once the vector has held a value
  /// of at least this many limbs). Throws the same std::invalid_argument
  /// as fromHex for the same input; *this is unspecified after a throw.
  void assignHex(std::string_view hex, unsigned width = 0);

  /// Overwrites *this with a `width`-bit value packed little-endian in
  /// ceil(width/8) bytes (bit i is bit i%8 of byte i/8), reusing the limb
  /// storage. Bits of the last byte above `width` are ignored.
  void assignBytes(const std::uint8_t* bytes, unsigned width);

  /// All-ones vector of the given width.
  static BitVector ones(unsigned width);

  unsigned width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// Number of 64-bit limbs backing the value: ceil(width / 64).
  std::size_t limbCount() const { return limbsFor(width_); }
  std::uint64_t limb(std::size_t i) const {
    return i < limbCount() ? limbs_[i] : 0;
  }

  bool bit(unsigned i) const;
  void setBit(unsigned i, bool v);

  /// Overwrites bits [lo, lo+len) with the low `len` bits of `value`
  /// (len <= 64), in place. Throws std::out_of_range if the field does not
  /// fit the width or len > 64.
  void setField(unsigned lo, unsigned len, std::uint64_t value);

  /// Clears every bit in place, keeping the width and the storage.
  void zero() { std::fill_n(limbs_, limbCount(), 0); }

  /// Least-significant 64 bits (the whole value if width <= 64).
  std::uint64_t toUint64() const;

  /// True if any bit is set.
  bool any() const;
  /// True if all bits within width are zero.
  bool isZero() const { return !any(); }

  /// Number of set bits.
  unsigned popcount() const {
    unsigned n = 0;
    for (std::size_t i = 0; i < limbCount(); ++i) n += popcount64(limbs_[i]);
    return n;
  }

  /// Hamming distance between two vectors of the same width.
  /// Throws std::invalid_argument on width mismatch.
  static unsigned hammingDistance(const BitVector& a, const BitVector& b) {
    if (a.width_ != b.width_) throwHammingWidthMismatch();
    unsigned n = 0;
    for (std::size_t i = 0; i < a.limbCount(); ++i) {
      n += popcount64(a.limbs_[i] ^ b.limbs_[i]);
    }
    return n;
  }

  /// Extracts bits [lo, lo+len) as a new vector of width len (read a whole
  /// limb at a time).
  BitVector slice(unsigned lo, unsigned len) const;

  /// Returns {hi ++ lo}: `hi` occupies the most-significant positions.
  static BitVector concat(const BitVector& hi, const BitVector& lo);

  /// Zero-extends or truncates to the new width.
  BitVector resized(unsigned new_width) const;

  // Bitwise logic (operands must have equal widths).
  BitVector operator&(const BitVector& rhs) const;
  BitVector operator|(const BitVector& rhs) const;
  BitVector operator^(const BitVector& rhs) const;
  BitVector operator~() const;

  /// Modular addition within the common width.
  BitVector operator+(const BitVector& rhs) const;

  /// Left rotation by n bit positions.
  BitVector rotl(unsigned n) const;
  /// Logical shifts within the width.
  BitVector operator<<(unsigned n) const;
  BitVector operator>>(unsigned n) const;

  bool operator==(const BitVector& rhs) const;
  bool operator!=(const BitVector& rhs) const { return !(*this == rhs); }

  /// Unsigned magnitude comparison. Widths may differ; values are compared
  /// as unbounded non-negative integers.
  static int compare(const BitVector& a, const BitVector& b);
  bool operator<(const BitVector& rhs) const { return compare(*this, rhs) < 0; }
  bool operator<=(const BitVector& rhs) const { return compare(*this, rhs) <= 0; }
  bool operator>(const BitVector& rhs) const { return compare(*this, rhs) > 0; }
  bool operator>=(const BitVector& rhs) const { return compare(*this, rhs) >= 0; }

  /// MSB-first binary rendering, exactly `width` characters.
  std::string toBinary() const;
  /// MSB-first hex rendering, ceil(width/4) characters.
  std::string toHex() const;

  /// FNV-1a hash of (width, limbs) for use in hash maps.
  std::size_t hash() const;

 private:
  static constexpr unsigned kLimbBits = 64;
  /// Set bits of one limb in a few ALU operations. The build targets
  /// baseline x86-64 (no -mpopcnt), where std::popcount is a libgcc call
  /// per limb.
  static unsigned popcount64(std::uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
  }
  [[noreturn]] static void throwHammingWidthMismatch();
  static std::size_t limbsFor(unsigned width) {
    return (static_cast<std::size_t>(width) + kLimbBits - 1) / kLimbBits;
  }
  bool onHeap() const { return limbs_ != inline_; }
  /// Sets the width and makes room for its limbs, reusing the current
  /// storage when it is large enough. Limb contents are unspecified.
  void setWidth(unsigned width) {
    const std::size_t n = limbsFor(width);
    if (n > capacity_) grow(n);
    width_ = width;
  }
  /// Replaces the storage with a zeroed heap buffer of n > capacity_ limbs.
  void grow(std::size_t n);
  void assign(const BitVector& other) {
    setWidth(other.width_);
    if (limbCount() <= kInlineLimbs) {
      // Both storages hold at least kInlineLimbs initialized limbs.
      for (std::size_t i = 0; i < kInlineLimbs; ++i) limbs_[i] = other.limbs_[i];
    } else {
      std::copy_n(other.limbs_, limbCount(), limbs_);
    }
  }
  /// Moves other's value into *this and leaves other empty: a heap buffer
  /// changes hands, an inline value is copied into this vector's storage.
  void take(BitVector& other) noexcept {
    if (other.onHeap()) {
      if (onHeap()) delete[] limbs_;
      limbs_ = other.limbs_;
      capacity_ = other.capacity_;
    } else {
      for (std::size_t i = 0; i < kInlineLimbs; ++i) limbs_[i] = other.inline_[i];
    }
    width_ = other.width_;
    other.limbs_ = other.inline_;
    other.width_ = 0;
    other.capacity_ = kInlineLimbs;
  }
  /// 64 bits starting at bit `pos` (zero beyond the stored limbs).
  std::uint64_t word(unsigned pos) const;
  void trim() {
    const unsigned rem = width_ % kLimbBits;
    if (rem != 0) {
      limbs_[limbCount() - 1] &= ~std::uint64_t{0} >> (kLimbBits - rem);
    }
  }

  /// The value's limbs: inline_, or a heap buffer once a value wider than
  /// the inline limbs has been held (kept until destruction or a move).
  std::uint64_t* limbs_ = inline_;
  unsigned width_ = 0;
  /// Limbs the storage holds: kInlineLimbs, or the heap buffer's size.
  unsigned capacity_ = kInlineLimbs;
  std::uint64_t inline_[kInlineLimbs] = {0, 0};
};

static_assert(sizeof(BitVector) <= 32, "BitVector must stay compact");

struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const { return v.hash(); }
};

}  // namespace psmgen::common

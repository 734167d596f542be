// Unit and property tests for common::BitVector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "reference_parsers.hpp"

namespace psmgen::common {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.width(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.isZero());
}

TEST(BitVector, ConstructTruncatesToWidth) {
  BitVector v(4, 0xFF);
  EXPECT_EQ(v.toUint64(), 0xFu);
  EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVector, BitAccess) {
  BitVector v(70);
  v.setBit(0, true);
  v.setBit(69, true);
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(69));
  v.setBit(69, false);
  EXPECT_FALSE(v.bit(69));
  EXPECT_THROW(v.bit(70), std::out_of_range);
  EXPECT_THROW(v.setBit(70, true), std::out_of_range);
}

TEST(BitVector, BinaryRoundTrip) {
  const std::string bits = "1011001110001";
  BitVector v = BitVector::fromBinary(bits);
  EXPECT_EQ(v.width(), bits.size());
  EXPECT_EQ(v.toBinary(), bits);
  EXPECT_THROW(BitVector::fromBinary("10x"), std::invalid_argument);
}

TEST(BitVector, HexRoundTrip) {
  BitVector v = BitVector::fromHex("deadbeefcafe1234");
  EXPECT_EQ(v.width(), 64u);
  EXPECT_EQ(v.toHex(), "deadbeefcafe1234");
  EXPECT_EQ(v.toUint64(), 0xdeadbeefcafe1234ull);
  // Width-specified parse.
  BitVector w = BitVector::fromHex("1f", 8);
  EXPECT_EQ(w.width(), 8u);
  EXPECT_EQ(w.toUint64(), 0x1fu);
  EXPECT_THROW(BitVector::fromHex("100", 8), std::invalid_argument);
  EXPECT_THROW(BitVector::fromHex("zz"), std::invalid_argument);
}

/// The message fromHex/assignHex throws for `hex`, or "" if it parses.
template <typename Parse>
std::string parseError(Parse parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BitVector, AssignHexMatchesFromHexOnRandomWidths) {
  Rng rng(0x5eed);
  BitVector reused = BitVector::ones(300);
  for (int i = 0; i < 500; ++i) {
    const unsigned w = 1 + static_cast<unsigned>(rng.uniform(300));
    const BitVector v = rng.bits(w);
    const std::string hex = v.toHex();
    reused.assignHex(hex, w);
    EXPECT_EQ(reused, BitVector::fromHex(hex, w)) << "w=" << w;
    EXPECT_EQ(reused, v) << "w=" << w;
    reused.assignHex(hex);
    EXPECT_EQ(reused, BitVector::fromHex(hex)) << "w=" << w;

    // Invalid inputs: a nibble above the width, a top nibble that spills
    // over a non-nibble width, a bad character somewhere in the string.
    std::vector<std::string> bad = {"1" + hex};
    if (w % 4 != 0) bad.push_back("f" + hex.substr(1));
    std::string typo = hex;
    typo[rng.uniform(typo.size())] = "g -x"[rng.uniform(4)];
    bad.push_back(typo);
    for (const std::string& b : bad) {
      const std::string want =
          parseError([&] { (void)BitVector::fromHex(b, w); });
      ASSERT_FALSE(want.empty()) << b << " w=" << w;
      EXPECT_EQ(parseError([&] { reused.assignHex(b, w); }), want)
          << b << " w=" << w;
    }
  }
}

/// assignHex must agree with a per-nibble reference decoder that shares
/// no code with it, on the value and on the exact message: widths 1..300
/// and 8192, upper- and lower-case digits, leading zeros past the width,
/// digit runs that are not a multiple of 16, and inputs holding both a
/// bad character and an out-of-width nibble in either order (the error
/// nearer the least significant digit wins).
TEST(BitVector, AssignHexMatchesPerNibbleReference) {
  Rng rng(0xd1ff);
  BitVector reused;
  const auto check = [&](const std::string& hex, unsigned w) {
    const testing::HexResult want = testing::referenceHex(hex, w);
    const std::string got = parseError([&] { reused.assignHex(hex, w); });
    ASSERT_EQ(got, want.error) << hex << " w=" << w;
    if (want.error.empty()) {
      ASSERT_EQ(reused, want.value) << hex << " w=" << w;
    }
  };
  for (int i = 0; i < 600; ++i) {
    const unsigned w =
        i % 50 == 0 ? 8192 : 1 + static_cast<unsigned>(rng.uniform(300));
    std::string hex = rng.bits(w).toHex();
    // Mixed case, leading zeros past the width, and a digit count that
    // is rarely a multiple of 16.
    for (char& c : hex) {
      if (rng.uniform(2) == 0) c = static_cast<char>(std::toupper(c));
    }
    hex = std::string(rng.uniform(40), '0') + hex;
    check(hex, w);
    check(hex, 0);
    check(hex.substr(rng.uniform(hex.size())), w);  // fewer digits

    std::string bads = "g -x\x7f";
    bads += '\x80';
    bads += '\0';
    const char bad = bads[rng.uniform(bads.size())];
    const std::string over = "1" + hex;  // a set bit above every digit
    check(over, w);
    if (w % 4 != 0) {  // the top digit spills over a non-nibble width
      std::string top = hex;
      top[hex.size() - (w + 3) / 4] = 'F';
      check(top, w);
    }
    std::string typo = hex;
    typo[rng.uniform(hex.size())] = bad;
    check(typo, w);
    // Both errors in one input: the one nearer the last digit is thrown.
    std::string bad_below = over;
    bad_below[1 + rng.uniform(hex.size())] = bad;
    EXPECT_EQ(testing::referenceHex(bad_below, w).error,
              "BitVector::fromHex: bad character");
    check(bad_below, w);
    const std::string bad_above = std::string(1, bad) + over;
    EXPECT_EQ(testing::referenceHex(bad_above, w).error,
              "BitVector::fromHex: value does not fit requested width");
    check(bad_above, w);
  }
}

TEST(BitVector, AssignHexReuseFromWideToNarrowClearsHighBits) {
  BitVector v = BitVector::ones(262);
  v.assignHex("5", 3);
  EXPECT_EQ(v, BitVector(3, 5));
  EXPECT_EQ(v.limbCount(), 1u);
  EXPECT_EQ(v.limb(0), 5u);
  EXPECT_EQ(v.hash(), BitVector(3, 5).hash());
  v.assignHex("0", 200);
  EXPECT_TRUE(v.isZero());
  EXPECT_EQ(v, BitVector(200));
}

TEST(BitVector, AssignBytesIsLittleEndianAndTrims) {
  BitVector v = BitVector::ones(130);
  const std::uint8_t bytes[] = {0x34, 0x12, 0xff};
  v.assignBytes(bytes, 17);  // bits above 17 in the last byte are dropped
  EXPECT_EQ(v, BitVector(17, 0x11234));
  v.assignBytes(bytes, 16);
  EXPECT_EQ(v, BitVector(16, 0x1234));
}

TEST(BitVector, HexOfNonNibbleWidth) {
  BitVector v(13, 0x1abc & 0x1fff);
  EXPECT_EQ(v.toHex().size(), 4u);  // ceil(13/4)
  EXPECT_EQ(BitVector::fromHex(v.toHex(), 13), v);
}

TEST(BitVector, OnesAndComplement) {
  BitVector v = BitVector::ones(67);
  EXPECT_EQ(v.popcount(), 67u);
  EXPECT_TRUE((~v).isZero());
}

TEST(BitVector, BitwiseOps) {
  BitVector a = BitVector::fromHex("f0f0");
  BitVector b = BitVector::fromHex("ff00");
  EXPECT_EQ((a & b).toHex(), "f000");
  EXPECT_EQ((a | b).toHex(), "fff0");
  EXPECT_EQ((a ^ b).toHex(), "0ff0");
  EXPECT_THROW(a & BitVector(8), std::invalid_argument);
}

TEST(BitVector, AdditionWithCarryAcrossLimbs) {
  BitVector a = BitVector::ones(128);
  BitVector one(128, 1);
  EXPECT_TRUE((a + one).isZero());  // modular wrap
  BitVector b(128, ~0ull);          // low limb all ones
  BitVector c = b + one;
  EXPECT_FALSE(c.bit(0));
  EXPECT_TRUE(c.bit(64));
}

TEST(BitVector, CompareUnsignedAcrossWidths) {
  EXPECT_EQ(BitVector::compare(BitVector(8, 5), BitVector(32, 5)), 0);
  EXPECT_LT(BitVector::compare(BitVector(8, 5), BitVector(32, 600)), 0);
  EXPECT_GT(BitVector::compare(BitVector(128, 7), BitVector(8, 6)), 0);
}

TEST(BitVector, SliceAndConcat) {
  BitVector v = BitVector::fromHex("abcd1234");
  EXPECT_EQ(v.slice(0, 16).toHex(), "1234");
  EXPECT_EQ(v.slice(16, 16).toHex(), "abcd");
  EXPECT_EQ(BitVector::concat(v.slice(16, 16), v.slice(0, 16)), v);
  EXPECT_THROW(v.slice(20, 16), std::out_of_range);
}

TEST(BitVector, Resize) {
  BitVector v = BitVector::fromHex("ff");
  EXPECT_EQ(v.resized(4).toHex(), "f");
  EXPECT_EQ(v.resized(16).toHex(), "00ff");
}

TEST(BitVector, HammingDistance) {
  BitVector a = BitVector::fromHex("00ff");
  BitVector b = BitVector::fromHex("0f0f");
  EXPECT_EQ(BitVector::hammingDistance(a, b), 8u);
  EXPECT_EQ(BitVector::hammingDistance(a, a), 0u);
  EXPECT_THROW(BitVector::hammingDistance(a, BitVector(8)), std::invalid_argument);
}

TEST(BitVector, RotlAndShifts) {
  BitVector v = BitVector::fromBinary("0011");
  EXPECT_EQ(v.rotl(1).toBinary(), "0110");
  EXPECT_EQ(v.rotl(4), v);
  EXPECT_EQ((v << 2).toBinary(), "1100");
  EXPECT_EQ((v >> 1).toBinary(), "0001");
}

TEST(BitVector, HashDistinguishesWidthAndValue) {
  EXPECT_NE(BitVector(8, 1).hash(), BitVector(9, 1).hash());
  EXPECT_NE(BitVector(8, 1).hash(), BitVector(8, 2).hash());
  EXPECT_EQ(BitVector(8, 1).hash(), BitVector(8, 1).hash());
}

// ---------------------------------------------------------------------
// Storage: inline limbs up to 128 bits, one heap buffer above.
// ---------------------------------------------------------------------

/// A random value built one bit at a time (independent of the word-level
/// paths under test).
BitVector perBitRandom(Rng& rng, unsigned w) {
  BitVector v(w);
  std::uint64_t r = 0;
  for (unsigned i = 0; i < w; ++i) {
    if (i % 64 == 0) r = rng.next();
    v.setBit(i, (r >> (i % 64)) & 1u);
  }
  return v;
}

TEST(BitVectorStorage, SizeBound) {
  static_assert(sizeof(BitVector) <= 32);
  EXPECT_EQ(BitVector::kInlineLimbs, 2u);
}

class BitVectorStorage : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorStorage, CopyMoveAndSelfAssignKeepTheValue) {
  const unsigned w = GetParam();
  Rng rng(w * 101 + 9);
  const BitVector original = perBitRandom(rng, w);

  BitVector copy(original);
  EXPECT_EQ(copy, original);
  EXPECT_EQ(copy.hash(), original.hash());
  copy.setBit(w - 1, !copy.bit(w - 1));  // a deep copy: original unchanged
  EXPECT_NE(copy, original);

  BitVector assigned(3, 5);
  assigned = original;
  EXPECT_EQ(assigned, original);
  BitVector& alias = assigned;
  assigned = alias;  // self copy-assignment
  EXPECT_EQ(assigned, original);
  assigned = std::move(alias);  // self move-assignment keeps the value
  EXPECT_EQ(assigned, original);

  BitVector moved(std::move(assigned));
  EXPECT_EQ(moved, original);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is tested
  EXPECT_EQ(assigned.width(), 0u);
  EXPECT_TRUE(assigned.empty());
  EXPECT_EQ(assigned, BitVector());

  // A moved-from vector is reusable at any width.
  assigned = original;
  EXPECT_EQ(assigned, original);
  BitVector target = BitVector::ones(8192);
  target = std::move(moved);
  EXPECT_EQ(target, original);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is tested
  EXPECT_TRUE(moved.empty());
  moved = BitVector(17, 3);
  EXPECT_EQ(moved, BitVector(17, 3));

  // Across widths in both directions.
  for (const unsigned other : {1u, 64u, 128u, 129u, 8192u}) {
    BitVector v = perBitRandom(rng, other);
    const BitVector want = v;
    v = original;
    EXPECT_EQ(v, original) << other << " <- " << w;
    v = want;
    EXPECT_EQ(v, want) << w << " <- " << other;
    BitVector m = original;
    m = std::move(v);
    EXPECT_EQ(m, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorStorage,
                         ::testing::Values(1u, 64u, 128u, 129u, 8192u));

TEST(BitVectorStorage, AssignHexWideNarrowWideReuse) {
  Rng rng(0xC0FFEE);
  BitVector v;
  for (const unsigned w : {8192u, 5u, 300u, 64u, 129u, 1u, 8192u, 128u}) {
    const BitVector want = perBitRandom(rng, w);
    v.assignHex(want.toHex(), w);
    EXPECT_EQ(v, want) << w;
    EXPECT_EQ(v.limbCount(), (w + 63) / 64) << w;
    EXPECT_EQ(v.hash(), want.hash()) << w;
    EXPECT_EQ(BitVector::compare(v, want), 0) << w;
    EXPECT_EQ(v.toHex(), want.toHex()) << w;
  }
}

TEST(BitVectorStorage, SliceMatchesPerBitReference) {
  Rng rng(0x511CE);
  for (int iter = 0; iter < 2000; ++iter) {
    const unsigned w = 1 + static_cast<unsigned>(rng.uniform(300));
    const BitVector v = perBitRandom(rng, w);
    // Half of the fields start within 3 bits of a limb boundary.
    unsigned lo = static_cast<unsigned>(rng.uniform(w));
    if (rng.chance(0.5) && w > 64) {
      const unsigned boundary = 64 * (1 + static_cast<unsigned>(
                                              rng.uniform((w - 1) / 64)));
      lo = std::min(w - 1, boundary - std::min(boundary, 3u) +
                               static_cast<unsigned>(rng.uniform(7)));
    }
    const unsigned len = static_cast<unsigned>(rng.uniform(w - lo + 1));
    const BitVector s = v.slice(lo, len);
    ASSERT_EQ(s.width(), len);
    for (unsigned i = 0; i < len; ++i) {
      ASSERT_EQ(s.bit(i), v.bit(lo + i)) << "w=" << w << " lo=" << lo
                                         << " len=" << len << " i=" << i;
    }
    EXPECT_EQ(s, BitVector::fromHex(s.toHex(), len));  // high bits trimmed
  }
  EXPECT_THROW(BitVector(100).slice(90, 11), std::out_of_range);
}

TEST(BitVectorStorage, SetFieldMatchesPerBitReference) {
  Rng rng(0xF1E1D);
  for (int iter = 0; iter < 2000; ++iter) {
    const unsigned w = 1 + static_cast<unsigned>(rng.uniform(300));
    BitVector v = perBitRandom(rng, w);
    BitVector ref = v;
    unsigned lo = static_cast<unsigned>(rng.uniform(w));
    if (rng.chance(0.5) && w > 64) {
      const unsigned boundary = 64 * (1 + static_cast<unsigned>(
                                              rng.uniform((w - 1) / 64)));
      lo = std::min(w - 1, boundary - std::min(boundary, 3u) +
                               static_cast<unsigned>(rng.uniform(7)));
    }
    const unsigned len = static_cast<unsigned>(
        rng.uniform(std::min(64u, w - lo) + 1));
    const std::uint64_t bits = rng.next();  // bits above len are ignored
    v.setField(lo, len, bits);
    for (unsigned i = 0; i < len; ++i) ref.setBit(lo + i, (bits >> i) & 1u);
    ASSERT_EQ(v, ref) << "w=" << w << " lo=" << lo << " len=" << len;
  }
  BitVector v(100);
  EXPECT_THROW(v.setField(90, 11, 0), std::out_of_range);
  EXPECT_THROW(v.setField(0, 65, 0), std::out_of_range);
  v.setField(100, 0, ~0ull);  // an empty field at the end is a no-op
  EXPECT_TRUE(v.isZero());
}

TEST(BitVectorStorage, ZeroKeepsWidth) {
  BitVector v = BitVector::ones(8192);
  v.zero();
  EXPECT_EQ(v, BitVector(8192));
  BitVector n = BitVector::ones(70);
  n.zero();
  EXPECT_EQ(n, BitVector(70));
}

// ---------------------------------------------------------------------
// Property-style sweeps over widths.
// ---------------------------------------------------------------------

class BitVectorWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorWidths, XorSelfIsZero) {
  Rng rng(GetParam());
  const BitVector v = rng.bits(GetParam());
  EXPECT_TRUE((v ^ v).isZero());
}

TEST_P(BitVectorWidths, RotlInverts) {
  Rng rng(GetParam() * 31);
  const unsigned w = GetParam();
  const BitVector v = rng.bits(w);
  for (unsigned n : {1u, w / 2, w - 1}) {
    EXPECT_EQ(v.rotl(n).rotl(w - n), v) << "w=" << w << " n=" << n;
  }
}

TEST_P(BitVectorWidths, HammingTriangleInequality) {
  const unsigned w = GetParam();
  Rng rng(w * 7 + 1);
  const BitVector a = rng.bits(w);
  const BitVector b = rng.bits(w);
  const BitVector c = rng.bits(w);
  EXPECT_LE(BitVector::hammingDistance(a, c),
            BitVector::hammingDistance(a, b) + BitVector::hammingDistance(b, c));
}

TEST_P(BitVectorWidths, HexRoundTripRandom) {
  const unsigned w = GetParam();
  Rng rng(w * 13 + 5);
  const BitVector v = rng.bits(w);
  EXPECT_EQ(BitVector::fromHex(v.toHex(), w), v);
}

TEST_P(BitVectorWidths, SliceConcatIdentity) {
  const unsigned w = GetParam();
  if (w < 2) return;
  Rng rng(w * 17 + 3);
  const BitVector v = rng.bits(w);
  const unsigned cut = w / 2;
  EXPECT_EQ(BitVector::concat(v.slice(cut, w - cut), v.slice(0, cut)), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidths,
                         ::testing::Values(1u, 7u, 8u, 31u, 32u, 63u, 64u,
                                           65u, 127u, 128u, 262u, 8192u));

}  // namespace
}  // namespace psmgen::common

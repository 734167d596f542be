#include "ip/aes.hpp"

#include <stdexcept>

namespace psmgen::ip {
namespace aes {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

}  // namespace

void subBytes(Block& s) {
  for (auto& b : s) b = kSbox[b];
}

void invSubBytes(Block& s) {
  for (auto& b : s) b = kInvSbox[b];
}

// State layout: s[r + 4*c] (column-major, FIPS-197).
void shiftRows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[r + 4 * c] = t[r + 4 * ((c + r) % 4)];
    }
  }
}

void invShiftRows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[r + 4 * ((c + r) % 4)] = t[r + 4 * c];
    }
  }
}

void mixColumns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    const std::uint8_t a0 = s[4 * c], a1 = s[4 * c + 1], a2 = s[4 * c + 2],
                       a3 = s[4 * c + 3];
    s[4 * c + 0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    s[4 * c + 1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    s[4 * c + 2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    s[4 * c + 3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void invMixColumns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    const std::uint8_t a0 = s[4 * c], a1 = s[4 * c + 1], a2 = s[4 * c + 2],
                       a3 = s[4 * c + 3];
    s[4 * c + 0] = static_cast<std::uint8_t>(gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^
                                             gmul(a2, 0x0d) ^ gmul(a3, 0x09));
    s[4 * c + 1] = static_cast<std::uint8_t>(gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^
                                             gmul(a2, 0x0b) ^ gmul(a3, 0x0d));
    s[4 * c + 2] = static_cast<std::uint8_t>(gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^
                                             gmul(a2, 0x0e) ^ gmul(a3, 0x0b));
    s[4 * c + 3] = static_cast<std::uint8_t>(gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^
                                             gmul(a2, 0x09) ^ gmul(a3, 0x0e));
  }
}

void addRoundKey(Block& s, const Block& rk) {
  for (int i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(s[i] ^ rk[i]);
}

Block nextRoundKey(const Block& rk, int round) {
  Block out{};
  // temp = SubWord(RotWord(w3)) ^ rcon
  std::uint8_t t0 = static_cast<std::uint8_t>(kSbox[rk[13]] ^ kRcon[round]);
  std::uint8_t t1 = kSbox[rk[14]];
  std::uint8_t t2 = kSbox[rk[15]];
  std::uint8_t t3 = kSbox[rk[12]];
  out[0] = static_cast<std::uint8_t>(rk[0] ^ t0);
  out[1] = static_cast<std::uint8_t>(rk[1] ^ t1);
  out[2] = static_cast<std::uint8_t>(rk[2] ^ t2);
  out[3] = static_cast<std::uint8_t>(rk[3] ^ t3);
  for (int i = 4; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>(rk[i] ^ out[i - 4]);
  }
  return out;
}

Block prevRoundKey(const Block& rk, int round) {
  Block out{};
  for (int i = 15; i >= 4; --i) {
    out[i] = static_cast<std::uint8_t>(rk[i] ^ rk[i - 4]);
  }
  // out[12..15] is the previous w3; undo the g transformation for w0.
  std::uint8_t t0 = static_cast<std::uint8_t>(kSbox[out[13]] ^ kRcon[round]);
  std::uint8_t t1 = kSbox[out[14]];
  std::uint8_t t2 = kSbox[out[15]];
  std::uint8_t t3 = kSbox[out[12]];
  out[0] = static_cast<std::uint8_t>(rk[0] ^ t0);
  out[1] = static_cast<std::uint8_t>(rk[1] ^ t1);
  out[2] = static_cast<std::uint8_t>(rk[2] ^ t2);
  out[3] = static_cast<std::uint8_t>(rk[3] ^ t3);
  return out;
}

Block finalRoundKey(const Block& key) {
  Block rk = key;
  for (int round = 1; round <= 10; ++round) rk = nextRoundKey(rk, round);
  return rk;
}

Block encryptBlock(const Block& plaintext, const Block& key) {
  Block s = plaintext;
  Block rk = key;
  addRoundKey(s, rk);
  for (int round = 1; round <= 9; ++round) {
    rk = nextRoundKey(rk, round);
    subBytes(s);
    shiftRows(s);
    mixColumns(s);
    addRoundKey(s, rk);
  }
  rk = nextRoundKey(rk, 10);
  subBytes(s);
  shiftRows(s);
  addRoundKey(s, rk);
  return s;
}

Block decryptBlock(const Block& ciphertext, const Block& key) {
  Block s = ciphertext;
  Block rk = finalRoundKey(key);
  addRoundKey(s, rk);
  for (int round = 10; round >= 2; --round) {
    rk = prevRoundKey(rk, round);
    invShiftRows(s);
    invSubBytes(s);
    addRoundKey(s, rk);
    invMixColumns(s);
  }
  rk = prevRoundKey(rk, 1);
  invShiftRows(s);
  invSubBytes(s);
  addRoundKey(s, rk);
  return s;
}

// Byte i of a block is bits [(15-i)*8, (15-i)*8+8) of the 128-bit value:
// block byte 0 is the most significant.
Block toBlock(const common::BitVector& v) {
  if (v.width() < 128) {
    throw std::out_of_range("aes::toBlock: value narrower than 128 bits");
  }
  Block b{};
  for (int i = 0; i < 16; ++i) {
    const unsigned j = static_cast<unsigned>(15 - i);
    b[i] = static_cast<std::uint8_t>(v.limb(j / 8) >> (8 * (j % 8)));
  }
  return b;
}

common::BitVector fromBlock(const Block& b) {
  std::uint64_t limbs[2] = {0, 0};
  for (int i = 0; i < 16; ++i) {
    const unsigned j = static_cast<unsigned>(15 - i);
    limbs[j / 8] |= static_cast<std::uint64_t>(b[i]) << (8 * (j % 8));
  }
  common::BitVector v(128, limbs[0]);
  v.setField(64, 64, limbs[1]);
  return v;
}

}  // namespace aes

AesIP::AesIP()
    : rtl::DeviceBase("AES"),
      state_(addRegister("state", 128)),
      round_key_(addRegister("rk", 128)),
      out_reg_(addRegister("out_reg", 128)),
      round_ctr_(addRegister("round", 5)),
      busy_(addRegister("busy", 1)),
      done_(addRegister("done", 1)),
      dec_(addRegister("dec", 1)) {
  addInput("rst", 1);
  addInput("en", 1);
  addInput("start", 1);
  addInput("decrypt", 1);
  addInput("key", 128);
  addInput("data", 128);
  addOutput("done", 1);
  addOutput("result", 128);
}

void AesIP::reset() {
  state_.clear();
  round_key_.clear();
  out_reg_.clear();
  round_ctr_.clear();
  busy_.clear();
  done_.clear();
  dec_.clear();
}

void AesIP::evaluate(const rtl::PortValues& in, rtl::PortValues& out) {
  if (in[kRst].bit(0)) {
    reset();
    out[kResult] = out_reg_.value();
    return;
  }
  // Flattened RTL evaluates its combinational cone every cycle regardless
  // of the FSM state (HIFSuite-style SystemC models do the same): the
  // round function below is computed unconditionally and the registers
  // only latch its result when the FSM says so.
  {
    aes::Block comb = aes::toBlock(state_.value());
    aes::Block comb_rk = aes::toBlock(round_key_.value());
    comb_rk = aes::nextRoundKey(comb_rk, 1);
    aes::subBytes(comb);
    aes::shiftRows(comb);
    aes::mixColumns(comb);
    aes::addRoundKey(comb, comb_rk);
    comb_sink_ = comb[0];
  }
  if (in[kEn].bit(0)) {
    done_.set(common::BitVector(1, 0));
    if (busy_.value().bit(0)) {
      const unsigned round = static_cast<unsigned>(round_ctr_.value().toUint64());
      aes::Block s = aes::toBlock(state_.value());
      aes::Block rk = aes::toBlock(round_key_.value());
      if (!dec_.value().bit(0)) {
        rk = aes::nextRoundKey(rk, static_cast<int>(round));
        aes::subBytes(s);
        aes::shiftRows(s);
        if (round < 10) aes::mixColumns(s);
        aes::addRoundKey(s, rk);
      } else {
        // InvCipher round with on-the-fly reverse key schedule: the
        // round key walks 10 -> 0, consumed in descending order.
        rk = aes::prevRoundKey(rk, static_cast<int>(11 - round));
        aes::invShiftRows(s);
        aes::invSubBytes(s);
        aes::addRoundKey(s, rk);
        if (round < 10) aes::invMixColumns(s);
      }
      state_.set(aes::fromBlock(s));
      round_key_.set(aes::fromBlock(rk));
      if (round == 10) {
        out_reg_.set(aes::fromBlock(s));
        busy_.set(common::BitVector(1, 0));
        done_.set(common::BitVector(1, 1));
        round_ctr_.clear();
      } else {
        round_ctr_.set(common::BitVector(5, round + 1));
      }
    } else if (in[kStart].bit(0)) {
      aes::Block data = aes::toBlock(in[kData]);
      aes::Block key = aes::toBlock(in[kKey]);
      const bool dec = in[kDecrypt].bit(0);
      const aes::Block rk0 = dec ? aes::finalRoundKey(key) : key;
      aes::addRoundKey(data, rk0);
      state_.set(aes::fromBlock(data));
      round_key_.set(aes::fromBlock(rk0));
      dec_.set(common::BitVector(1, dec));
      busy_.set(common::BitVector(1, 1));
      round_ctr_.set(common::BitVector(5, 1));
    }
  }
  out[kDone] = done_.value();
  out[kResult] = out_reg_.value();
}

}  // namespace psmgen::ip

#include "ip/camellia.hpp"

namespace psmgen::ip {
namespace camellia {

namespace {

constexpr std::uint8_t kSbox1[256] = {
    112, 130, 44,  236, 179, 39,  192, 229, 228, 133, 87,  53,  234, 12,
    174, 65,  35,  239, 107, 147, 69,  25,  165, 33,  237, 14,  79,  78,
    29,  101, 146, 189, 134, 184, 175, 143, 124, 235, 31,  206, 62,  48,
    220, 95,  94,  197, 11,  26,  166, 225, 57,  202, 213, 71,  93,  61,
    217, 1,   90,  214, 81,  86,  108, 77,  139, 13,  154, 102, 251, 204,
    176, 45,  116, 18,  43,  32,  240, 177, 132, 153, 223, 76,  203, 194,
    52,  126, 118, 5,   109, 183, 169, 49,  209, 23,  4,   215, 20,  88,
    58,  97,  222, 27,  17,  28,  50,  15,  156, 22,  83,  24,  242, 34,
    254, 68,  207, 178, 195, 181, 122, 145, 36,  8,   232, 168, 96,  252,
    105, 80,  170, 208, 160, 125, 161, 137, 98,  151, 84,  91,  30,  149,
    224, 255, 100, 210, 16,  196, 0,   72,  163, 247, 117, 219, 138, 3,
    230, 218, 9,   63,  221, 148, 135, 92,  131, 2,   205, 74,  144, 51,
    115, 103, 246, 243, 157, 127, 191, 226, 82,  155, 216, 38,  200, 55,
    198, 59,  129, 150, 111, 75,  19,  190, 99,  46,  233, 121, 167, 140,
    159, 110, 188, 142, 41,  245, 249, 182, 47,  253, 180, 89,  120, 152,
    6,   106, 231, 70,  113, 186, 212, 37,  171, 66,  136, 162, 141, 250,
    114, 7,   185, 85,  248, 238, 172, 10,  54,  73,  42,  104, 60,  56,
    241, 164, 64,  40,  211, 123, 187, 201, 67,  193, 21,  227, 173, 244,
    119, 199, 128, 158};

std::uint8_t rotl8(std::uint8_t x, int n) {
  return static_cast<std::uint8_t>((x << n) | (x >> (8 - n)));
}

std::uint8_t s1(std::uint8_t x) { return kSbox1[x]; }
std::uint8_t s2(std::uint8_t x) { return rotl8(kSbox1[x], 1); }
std::uint8_t s3(std::uint8_t x) { return rotl8(kSbox1[x], 7); }
std::uint8_t s4(std::uint8_t x) { return kSbox1[rotl8(x, 1)]; }

std::uint32_t rotl32(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

// 128-bit rotation of (hi, lo) by n bits.
void rotl128(std::uint64_t hi, std::uint64_t lo, int n, std::uint64_t& out_hi,
             std::uint64_t& out_lo) {
  n %= 128;
  if (n == 0) {
    out_hi = hi;
    out_lo = lo;
    return;
  }
  if (n >= 64) {
    std::swap(hi, lo);
    n -= 64;
  }
  if (n == 0) {
    out_hi = hi;
    out_lo = lo;
    return;
  }
  out_hi = (hi << n) | (lo >> (64 - n));
  out_lo = (lo << n) | (hi >> (64 - n));
}

constexpr std::uint64_t kSigma[6] = {
    0xA09E667F3BCC908Bull, 0xB67AE8584CAA73B2ull, 0xC6EF372FE94F82BEull,
    0x54FF53A5F1D36F1Cull, 0x10E527FADE682D1Dull, 0xB05688C2B3E6C1FDull};

}  // namespace

std::uint64_t F(std::uint64_t x, std::uint64_t k) {
  const std::uint64_t t = x ^ k;
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::uint8_t>(t >> (56 - 8 * i));
  }
  b[0] = s1(b[0]);
  b[1] = s2(b[1]);
  b[2] = s3(b[2]);
  b[3] = s4(b[3]);
  b[4] = s2(b[4]);
  b[5] = s3(b[5]);
  b[6] = s4(b[6]);
  b[7] = s1(b[7]);
  std::uint8_t y[8];
  y[0] = static_cast<std::uint8_t>(b[0] ^ b[2] ^ b[3] ^ b[5] ^ b[6] ^ b[7]);
  y[1] = static_cast<std::uint8_t>(b[0] ^ b[1] ^ b[3] ^ b[4] ^ b[6] ^ b[7]);
  y[2] = static_cast<std::uint8_t>(b[0] ^ b[1] ^ b[2] ^ b[4] ^ b[5] ^ b[7]);
  y[3] = static_cast<std::uint8_t>(b[1] ^ b[2] ^ b[3] ^ b[4] ^ b[5] ^ b[6]);
  y[4] = static_cast<std::uint8_t>(b[0] ^ b[1] ^ b[5] ^ b[6] ^ b[7]);
  y[5] = static_cast<std::uint8_t>(b[1] ^ b[2] ^ b[4] ^ b[6] ^ b[7]);
  y[6] = static_cast<std::uint8_t>(b[2] ^ b[3] ^ b[4] ^ b[5] ^ b[7]);
  y[7] = static_cast<std::uint8_t>(b[0] ^ b[3] ^ b[4] ^ b[5] ^ b[6]);
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | y[i];
  }
  return out;
}

std::uint64_t FL(std::uint64_t x, std::uint64_t k) {
  std::uint32_t xl = static_cast<std::uint32_t>(x >> 32);
  std::uint32_t xr = static_cast<std::uint32_t>(x);
  const std::uint32_t kl = static_cast<std::uint32_t>(k >> 32);
  const std::uint32_t kr = static_cast<std::uint32_t>(k);
  xr ^= rotl32(xl & kl, 1);
  xl ^= (xr | kr);
  return (static_cast<std::uint64_t>(xl) << 32) | xr;
}

std::uint64_t FLinv(std::uint64_t y, std::uint64_t k) {
  std::uint32_t yl = static_cast<std::uint32_t>(y >> 32);
  std::uint32_t yr = static_cast<std::uint32_t>(y);
  const std::uint32_t kl = static_cast<std::uint32_t>(k >> 32);
  const std::uint32_t kr = static_cast<std::uint32_t>(k);
  yl ^= (yr | kr);
  yr ^= rotl32(yl & kl, 1);
  return (static_cast<std::uint64_t>(yl) << 32) | yr;
}

KeySchedule expandKey(std::uint64_t kl_hi, std::uint64_t kl_lo) {
  // Derive KA (RFC 3713 Sec. 2.2; KR = 0 for 128-bit keys).
  std::uint64_t d1 = kl_hi;
  std::uint64_t d2 = kl_lo;
  d2 ^= F(d1, kSigma[0]);
  d1 ^= F(d2, kSigma[1]);
  d1 ^= kl_hi;
  d2 ^= kl_lo;
  d2 ^= F(d1, kSigma[2]);
  d1 ^= F(d2, kSigma[3]);
  const std::uint64_t ka_hi = d1;
  const std::uint64_t ka_lo = d2;

  auto rotKL = [&](int n, std::uint64_t& hi, std::uint64_t& lo) {
    rotl128(kl_hi, kl_lo, n, hi, lo);
  };
  auto rotKA = [&](int n, std::uint64_t& hi, std::uint64_t& lo) {
    rotl128(ka_hi, ka_lo, n, hi, lo);
  };

  KeySchedule ks{};
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  rotKL(0, hi, lo);
  ks.kw[0] = hi;
  ks.kw[1] = lo;
  rotKA(0, hi, lo);
  ks.k[0] = hi;
  ks.k[1] = lo;
  rotKL(15, hi, lo);
  ks.k[2] = hi;
  ks.k[3] = lo;
  rotKA(15, hi, lo);
  ks.k[4] = hi;
  ks.k[5] = lo;
  rotKA(30, hi, lo);
  ks.ke[0] = hi;
  ks.ke[1] = lo;
  rotKL(45, hi, lo);
  ks.k[6] = hi;
  ks.k[7] = lo;
  rotKA(45, hi, lo);
  ks.k[8] = hi;
  rotKL(60, hi, lo);
  ks.k[9] = lo;
  rotKA(60, hi, lo);
  ks.k[10] = hi;
  ks.k[11] = lo;
  rotKL(77, hi, lo);
  ks.ke[2] = hi;
  ks.ke[3] = lo;
  rotKL(94, hi, lo);
  ks.k[12] = hi;
  ks.k[13] = lo;
  rotKA(94, hi, lo);
  ks.k[14] = hi;
  ks.k[15] = lo;
  rotKL(111, hi, lo);
  ks.k[16] = hi;
  ks.k[17] = lo;
  rotKA(111, hi, lo);
  ks.kw[2] = hi;
  ks.kw[3] = lo;
  return ks;
}

namespace {
void cryptBlock(const std::uint64_t in[2], std::uint64_t out[2],
                const KeySchedule& ks, bool decrypt) {
  // Subkey orders for decryption are the encryption orders reversed.
  const std::uint64_t kw_pre_hi = decrypt ? ks.kw[2] : ks.kw[0];
  const std::uint64_t kw_pre_lo = decrypt ? ks.kw[3] : ks.kw[1];
  const std::uint64_t kw_post_hi = decrypt ? ks.kw[0] : ks.kw[2];
  const std::uint64_t kw_post_lo = decrypt ? ks.kw[1] : ks.kw[3];

  std::uint64_t d1 = in[0] ^ kw_pre_hi;
  std::uint64_t d2 = in[1] ^ kw_pre_lo;

  for (int round = 1; round <= 18; ++round) {
    const std::uint64_t k = decrypt ? ks.k[18 - round] : ks.k[round - 1];
    if (round % 2 == 1) {
      d2 ^= F(d1, k);
    } else {
      d1 ^= F(d2, k);
    }
    if (round == 6) {
      d1 = FL(d1, decrypt ? ks.ke[3] : ks.ke[0]);
      d2 = FLinv(d2, decrypt ? ks.ke[2] : ks.ke[1]);
    } else if (round == 12) {
      d1 = FL(d1, decrypt ? ks.ke[1] : ks.ke[2]);
      d2 = FLinv(d2, decrypt ? ks.ke[0] : ks.ke[3]);
    }
  }
  out[0] = d2 ^ kw_post_hi;
  out[1] = d1 ^ kw_post_lo;
}
}  // namespace

void encryptBlock(std::uint64_t in[2], std::uint64_t out[2],
                  const KeySchedule& ks) {
  cryptBlock(in, out, ks, false);
}

void decryptBlock(std::uint64_t in[2], std::uint64_t out[2],
                  const KeySchedule& ks) {
  cryptBlock(in, out, ks, true);
}

}  // namespace camellia

namespace {
std::uint64_t hi64(const common::BitVector& v) { return v.limb(1); }
std::uint64_t lo64(const common::BitVector& v) { return v.limb(0); }
}  // namespace

CamelliaIP::CamelliaIP()
    : rtl::DeviceBase("Camellia"),
      d1_(addRegister("d1", 64)),
      d2_(addRegister("d2", 64)),
      kl_(addRegister("ks_kl", 128)),
      ka_(addRegister("ks_ka", 128)),
      subkey_(addRegister("ks_subkey", 64)),
      fl_unit_(addRegister("fl_unit", 64)),
      out_reg_(addRegister("out_reg", 128)),
      round_ctr_(addRegister("round", 5)),
      busy_(addRegister("busy", 1)),
      done_(addRegister("done", 1)),
      dec_(addRegister("dec", 1)),
      key_valid_(addRegister("key_valid", 1)) {
  addInput("rst", 1);
  addInput("en", 1);
  addInput("krdy", 1);
  addInput("drdy", 1);
  addInput("decrypt", 1);
  addInput("flush", 1);
  addInput("kin", 128);
  addInput("din", 128);
  addOutput("done", 1);
  addOutput("dout", 128);
}

void CamelliaIP::reset() {
  d1_.clear();
  d2_.clear();
  kl_.clear();
  ka_.clear();
  subkey_.clear();
  fl_unit_.clear();
  out_reg_.clear();
  round_ctr_.clear();
  busy_.clear();
  done_.clear();
  dec_.clear();
  key_valid_.clear();
  ks_ = camellia::KeySchedule{};
}

common::BitVector CamelliaIP::pack128(std::uint64_t hi, std::uint64_t lo) const {
  common::BitVector v(128, lo);
  v.setField(64, 64, hi);
  return v;
}

void CamelliaIP::evaluate(const rtl::PortValues& in, rtl::PortValues& out) {
  if (in[kRst].bit(0)) {
    reset();
    out[kDout] = out_reg_.value();
    return;
  }
  // Flattened RTL evaluates its combinational cone every cycle regardless
  // of the FSM state: both Feistel parities, the FL/FL~ layers and the
  // 26-way subkey selection mux are computed unconditionally; registers
  // only latch the selected result. This mirrors the evaluation cost of a
  // HIFSuite-converted SystemC model of the full netlist.
  {
    std::uint64_t io[2] = {d1_.value().toUint64(), d2_.value().toUint64()};
    std::uint64_t enc[2];
    std::uint64_t dec[2];
    camellia::encryptBlock(io, enc, ks_);
    camellia::decryptBlock(io, dec, ks_);
    // Bit-granular recombination of the cone outputs (netlist-level nets).
    const common::BitVector nets =
        pack128(enc[0] ^ dec[0], enc[1] ^ dec[1]) ^ in[kKin] ^ in[kDin];
    comb_sink_ = nets.popcount();
  }
  if (in[kEn].bit(0)) {
    done_.set(common::BitVector(1, 0));
    if (in[kFlush].bit(0)) {
      d1_.clear();
      d2_.clear();
      subkey_.clear();
      fl_unit_.clear();
      busy_.clear();
      round_ctr_.clear();
    } else if (in[kKrdy].bit(0) && !busy_.value().bit(0)) {
      const std::uint64_t khi = hi64(in[kKin]);
      const std::uint64_t klo = lo64(in[kKin]);
      ks_ = camellia::expandKey(khi, klo);
      kl_.set(in[kKin]);
      // KA is reconstructible from the schedule's first round keys.
      ka_.set(pack128(ks_.k[0], ks_.k[1]));
      key_valid_.set(common::BitVector(1, 1));
    } else if (busy_.value().bit(0)) {
      const unsigned c = static_cast<unsigned>(round_ctr_.value().toUint64());
      const bool dec = dec_.value().bit(0);
      std::uint64_t d1 = d1_.value().toUint64();
      std::uint64_t d2 = d2_.value().toUint64();
      // Cycle map: 1..6 rounds 1-6, 7 FL layer, 8..13 rounds 7-12,
      // 14 FL layer, 15..20 rounds 13-18, 21 output whitening.
      if (c == 7 || c == 14) {
        const bool first_layer = (c == 7);
        std::uint64_t ke_l = 0;
        std::uint64_t ke_r = 0;
        if (first_layer) {
          ke_l = dec ? ks_.ke[3] : ks_.ke[0];
          ke_r = dec ? ks_.ke[2] : ks_.ke[1];
        } else {
          ke_l = dec ? ks_.ke[1] : ks_.ke[2];
          ke_r = dec ? ks_.ke[0] : ks_.ke[3];
        }
        d1 = camellia::FL(d1, ke_l);
        d2 = camellia::FLinv(d2, ke_r);
        fl_unit_.set(common::BitVector(64, d1 ^ d2));
        subkey_.set(common::BitVector(64, ke_l));
      } else if (c <= 20) {
        const unsigned round = c <= 6 ? c : (c <= 13 ? c - 1 : c - 2);
        const std::uint64_t k = dec ? ks_.k[18 - round] : ks_.k[round - 1];
        if (round % 2 == 1) {
          d2 ^= camellia::F(d1, k);
        } else {
          d1 ^= camellia::F(d2, k);
        }
        subkey_.set(common::BitVector(64, k));
      } else {
        const std::uint64_t kw_post_hi = dec ? ks_.kw[0] : ks_.kw[2];
        const std::uint64_t kw_post_lo = dec ? ks_.kw[1] : ks_.kw[3];
        out_reg_.set(pack128(d2 ^ kw_post_hi, d1 ^ kw_post_lo));
        busy_.set(common::BitVector(1, 0));
        done_.set(common::BitVector(1, 1));
        round_ctr_.clear();
        d1_.set(common::BitVector(64, d1));
        d2_.set(common::BitVector(64, d2));
        out[kDone] = done_.value();
        out[kDout] = out_reg_.value();
        return;
      }
      d1_.set(common::BitVector(64, d1));
      d2_.set(common::BitVector(64, d2));
      round_ctr_.set(common::BitVector(5, c + 1));
    } else if (in[kDrdy].bit(0) && key_valid_.value().bit(0)) {
      const bool dec = in[kDecrypt].bit(0);
      const std::uint64_t kw_pre_hi = dec ? ks_.kw[2] : ks_.kw[0];
      const std::uint64_t kw_pre_lo = dec ? ks_.kw[3] : ks_.kw[1];
      d1_.set(common::BitVector(64, hi64(in[kDin]) ^ kw_pre_hi));
      d2_.set(common::BitVector(64, lo64(in[kDin]) ^ kw_pre_lo));
      dec_.set(common::BitVector(1, dec));
      busy_.set(common::BitVector(1, 1));
      round_ctr_.set(common::BitVector(5, 1));
      subkey_.set(common::BitVector(64, kw_pre_hi));
    }
  }
  out[kDone] = done_.value();
  out[kDout] = out_reg_.value();
}

}  // namespace psmgen::ip

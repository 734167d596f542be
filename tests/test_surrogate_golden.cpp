// Behaviour pin for the gate-level power surrogate: per IP, a fixed-seed
// long-TS run of GateLevelEstimator::run and, for Camellia, of
// runPartitioned must reproduce the recorded FNV-1a digests of the
// functional trace's values and of the f64 bits of every power sample.
// Any host-side optimisation of the device models, the BitVector storage
// or the switching-activity tracker must leave these digests unchanged:
// a simulator-only speed-up leaves every simulated statistic identical.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "ip/ip_factory.hpp"
#include "power/gate_estimator.hpp"

namespace psmgen {
namespace {

constexpr std::size_t kCycles = 20000;
constexpr std::uint64_t kSeed = 0x5EED2016;

class Fnv1a {
 public:
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t functionalDigest(const trace::FunctionalTrace& t) {
  Fnv1a h;
  for (std::size_t i = 0; i < t.length(); ++i) {
    for (const common::BitVector& v : t.step(i)) {
      h.u64(v.width());
      for (std::size_t l = 0; l < v.limbCount(); ++l) h.u64(v.limb(l));
    }
  }
  return h.value();
}

std::uint64_t powerDigest(const trace::PowerTrace& p) {
  Fnv1a h;
  for (const double w : p.samples()) h.u64(std::bit_cast<std::uint64_t>(w));
  return h.value();
}

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

struct Golden {
  ip::IpKind kind;
  std::uint64_t functional;
  std::uint64_t power;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << ip::ipName(g.kind); }

// Recorded before the allocation-free rewrite of the surrogate.
constexpr Golden kGolden[] = {
    {ip::IpKind::Ram, 0xd4617a2bf7434914ull, 0xfbd7a37bd741020aull},
    {ip::IpKind::MultSum, 0x32468fe42f72d8c5ull, 0x1e0b7c563ae46eaaull},
    {ip::IpKind::Aes, 0x4b51965981eec0a6ull, 0x4845d13d6a1fd4d8ull},
    {ip::IpKind::Camellia, 0xe77c1047009ea892ull, 0x198bbe6ea7badbc0ull},
};

class SurrogateGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(SurrogateGolden, LongTsRunIsBitIdentical) {
  const Golden& g = GetParam();
  auto device = ip::makeDevice(g.kind);
  power::GateLevelEstimator est(*device, ip::powerConfig(g.kind));
  auto tb = ip::makeTestbench(g.kind, ip::TestsetMode::Long, kSeed);
  const auto result = est.run(*tb, kCycles);
  ASSERT_EQ(result.functional.length(), kCycles);
  ASSERT_EQ(result.power.length(), kCycles);
  EXPECT_EQ(hex(functionalDigest(result.functional)), hex(g.functional));
  EXPECT_EQ(hex(powerDigest(result.power)), hex(g.power));
}

INSTANTIATE_TEST_SUITE_P(
    AllIps, SurrogateGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& param) {
      return ip::ipName(param.param.kind);
    });

TEST(SurrogateGolden, CamelliaPartitionedRunIsBitIdentical) {
  auto device = ip::makeDevice(ip::IpKind::Camellia);
  power::GateLevelEstimator est(*device,
                                ip::powerConfig(ip::IpKind::Camellia));
  const std::vector<power::GateLevelEstimator::Partition> partitions = {
      {"feistel", {"d1", "d2"}}, {"ks", {"ks_"}}, {"fl", {"fl_unit"}}};
  auto tb = ip::makeTestbench(ip::IpKind::Camellia, ip::TestsetMode::Long,
                              kSeed);
  const auto result = est.runPartitioned(*tb, kCycles, partitions);
  ASSERT_EQ(result.power.size(), partitions.size() + 1);
  // The functional trace is the same as run()'s.
  EXPECT_EQ(hex(functionalDigest(result.functional)),
            hex(0xe77c1047009ea892ull));
  const std::uint64_t expected[] = {0xeacab1f66670b814ull,
                                    0x5eafe451d68b41b1ull,
                                    0x187864ad1d6ccfabull,
                                    0xbe9cc44947e3e79cull};
  for (std::size_t p = 0; p < result.power.size(); ++p) {
    ASSERT_EQ(result.power[p].length(), kCycles);
    EXPECT_EQ(hex(powerDigest(result.power[p])), hex(expected[p]))
        << result.names[p];
  }
}

}  // namespace
}  // namespace psmgen

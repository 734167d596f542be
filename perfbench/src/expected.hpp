#pragma once
// Outputs pinned at the default seed (bench.hpp kDefaultSeed), one entry
// per IP in ip::kAllIps order (RAM, MultSum, AES, Camellia). A run at the
// default seed compares against these; any other seed checks that two
// independent paths agree instead. Regenerate with
//   python3 perfbench/run.py --workload W --seed 1 --seconds 1 --print-digests
// after a change that is meant to alter the model or its estimates, and
// say so in the change.

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct CharacterizeExpect {
  std::uint64_t artifact_fnv1a;  ///< FNV-1a of the saved .psm bytes
  std::size_t states;
  std::size_t transitions;
};

struct PredictExpect {
  std::uint64_t estimates_fnv1a;  ///< FNV-1a of the f64 estimate stream
  std::size_t rows;
  std::size_t predictions;
  std::size_t wrong_predictions;
  std::size_t unexpected_behaviours;
  std::size_t lost_instants;
  std::size_t resyncs;
};

inline constexpr CharacterizeExpect kCharacterizeExpected[4] = {
    {0xe53308b0f194da24ULL, 3, 8},
    {0x4006f0063a24ed22ULL, 3, 5},
    {0xfef8206f31675697ULL, 23, 36},
    {0x697f9ffc99265e57ULL, 24, 40},
};

/// serve checks its AES reference stream against the AES entry.
inline constexpr PredictExpect kPredictExpected[4] = {
    {0x8c3cc6ebb838ccd8ULL, 60000, 0, 0, 0, 0, 0},
    {0x47ea1d91d25f5dd2ULL, 60000, 0, 0, 0, 0, 0},
    {0x96810dc3411e8362ULL, 60000, 0, 0, 1, 0, 0},
    {0x88f12d0aeed86ea4ULL, 60000, 0, 0, 1, 0, 0},
};

}  // namespace perfbench

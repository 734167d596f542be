#pragma once
// Set-up shared by predict_stream and serve: train a model per IP the way
// `psmgen train` does, save and reload it as `psmgen predict|serve` would,
// and generate a held-out long-testbench evaluation trace with its
// reference power and the batch simulator's estimates.

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/psm_simulator.hpp"
#include "serialize/psm_artifact.hpp"
#include "trace/functional_trace.hpp"

namespace perfbench {

/// Training instants per IP (four traces) and evaluation rows per IP.
inline constexpr std::size_t kModelTrainInstants = 60000;
inline constexpr std::size_t kEvalRows = 60000;

struct PreparedIp {
  psmgen::ip::IpKind kind = psmgen::ip::IpKind::Ram;
  std::string model_path;
  std::string csv_path;  ///< held-out functional trace, CSV
  std::optional<psmgen::serialize::PsmModel> model;
  psmgen::trace::FunctionalTrace eval;
  std::vector<double> reference_power;
  /// PsmSimulator::simulate over `eval`: the batch path's answer.
  psmgen::core::SimResult expected;
  std::uint64_t model_digest = 0;
  LayerCounts counts;
};

struct Preparation {
  std::vector<PreparedIp> ips;
  double surrogate_s = 0.0;  ///< gate-level surrogate (training + eval)
  double save_s = 0.0;
  double load_ms = 0.0;      ///< loadPsmModel, all IPs
};

/// One set-up pass over `kinds`, writing into `workdir`.
Preparation prepareModels(const std::vector<psmgen::ip::IpKind>& kinds,
                          std::uint64_t seed, const std::string& workdir,
                          bool write_csv);

/// Runs prepareModels `repeats` times (the last one is kept), checks that
/// every repeat produced the same artifacts, and reports the median wall
/// time of a pass in `setup_s`.
Preparation prepareRepeated(const std::vector<psmgen::ip::IpKind>& kinds,
                            std::uint64_t seed, const std::string& workdir,
                            bool write_csv, int repeats, double& setup_s,
                            Result& result);

/// Sets the per-layer metrics a set-up pass measures (surrogate, save,
/// load and the build counts).
void reportSetupLayers(const Preparation& prep, Result& result);

}  // namespace perfbench

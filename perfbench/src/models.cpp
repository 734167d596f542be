#include "models.hpp"

#include "core/flow.hpp"
#include "power/gate_estimator.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

using namespace psmgen;

Preparation prepareModels(const std::vector<ip::IpKind>& kinds,
                          std::uint64_t seed, const std::string& workdir,
                          bool write_csv) {
  Preparation prep;
  for (const ip::IpKind kind : kinds) {
    PreparedIp p;
    p.kind = kind;
    p.model_path = workdir + "/" + ip::ipName(kind) + ".psm";
    p.csv_path = workdir + "/" + ip::ipName(kind) + "_eval.csv";

    core::FlowConfig config;
    config.num_threads = 0;  // `psmgen train`'s default
    core::CharacterizationFlow flow(config);
    auto device = ip::makeDevice(kind);
    power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
    auto t0 = Clock::now();
    for (const ip::TraceSpec& spec :
         trainingPlan(kind, seed, kModelTrainInstants)) {
      auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, spec.seed);
      auto pair = estimator.run(*tb, spec.cycles);
      p.counts.training_rows += pair.functional.length();
      flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
    }
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long,
                                evalSeed(kind, seed));
    auto eval = estimator.run(*tb, kEvalRows);
    prep.surrogate_s += secondsSince(t0);
    p.eval = std::move(eval.functional);
    p.reference_power = eval.power.samples();

    const core::BuildReport report = flow.build();
    p.counts.atoms = report.atoms;
    p.counts.propositions = report.propositions;
    p.counts.raw_states = report.raw_states;
    p.counts.states = report.states;
    p.counts.transitions = report.transitions;
    p.counts.simplified_pairs = report.simplified_pairs;
    p.counts.refined_states = report.refined_states;

    t0 = Clock::now();
    serialize::savePsmModel(p.model_path, flow.psm(), flow.domain());
    prep.save_s += secondsSince(t0);
    t0 = Clock::now();
    p.model = serialize::loadPsmModel(p.model_path);
    prep.load_ms += secondsSince(t0) * 1e3;
    p.model_digest = fileDigest(p.model_path);

    if (write_csv) trace::saveFunctionalTrace(p.csv_path, p.eval);
    p.expected = core::PsmSimulator(p.model->psm, p.model->domain)
                     .simulate(p.eval);
    prep.ips.push_back(std::move(p));
  }
  return prep;
}

Preparation prepareRepeated(const std::vector<ip::IpKind>& kinds,
                            std::uint64_t seed, const std::string& workdir,
                            bool write_csv, int repeats, double& setup_s,
                            Result& result) {
  std::vector<double> seconds;
  Preparation prep;
  std::vector<std::uint64_t> digests;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    prep = prepareModels(kinds, seed, workdir, write_csv);
    seconds.push_back(secondsSince(t0));
    for (std::size_t i = 0; i < prep.ips.size(); ++i) {
      if (r == 0) {
        digests.push_back(prep.ips[i].model_digest);
      } else if (digests[i] != prep.ips[i].model_digest) {
        result.fail(ip::ipName(prep.ips[i].kind) +
                    ": repeated training produced a different artifact");
      }
    }
  }
  setup_s = median(seconds);
  return prep;
}

void reportSetupLayers(const Preparation& prep, Result& result) {
  LayerCounts counts;
  for (const PreparedIp& p : prep.ips) counts += p.counts;
  reportCounts(counts, result);
  result.set("power.surrogate_s", prep.surrogate_s, "s");
  result.set("serialize.save_s", prep.save_s, "s");
  result.set("serialize.load_ms", prep.load_ms, "ms");
}

}  // namespace perfbench

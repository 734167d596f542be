// characterize: the Table II path. Per IP, a long-TS randomized testbench
// drives the gate-level surrogate to produce reference traces, then
// CharacterizationFlow::build() mines the PSM and savePsmModel() writes
// the artifact. One operation is one IP model.
//
// The traced run repeats the computation through the layers' public
// functions in build()'s order (AssertionMiner::buildDomain,
// PropositionDomain::evalRow/intern, PsmGenerator::generate, simplify,
// join, refineDataDependentStates, PsmSimulator) with a span around each
// call, and checks that the result equals build()'s.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/flow.hpp"
#include "core/generator.hpp"
#include "expected.hpp"
#include "obs/obs.hpp"
#include "power/gate_estimator.hpp"
#include "rtl/simulator.hpp"
#include "serialize/psm_artifact.hpp"

namespace perfbench {

namespace {

using namespace psmgen;

struct IpModel {
  std::uint64_t digest = 0;
  std::size_t states = 0;
  std::size_t transitions = 0;
  double seconds = 0.0;
};

/// The untraced operation: surrogate + build() + save, as `psmgen train`
/// does it with its default thread count.
IpModel characterizeIp(ip::IpKind kind,
                       const std::vector<ip::TraceSpec>& plan,
                       const std::string& path,
                       std::unique_ptr<core::CharacterizationFlow>* keep) {
  const auto t0 = Clock::now();
  core::FlowConfig config;
  config.num_threads = 0;  // all hardware threads, `psmgen train`'s default
  auto flow = std::make_unique<core::CharacterizationFlow>(config);
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
  for (const ip::TraceSpec& spec : plan) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, spec.seed);
    auto pair = estimator.run(*tb, spec.cycles);
    flow->addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  const core::BuildReport report = flow->build();
  serialize::savePsmModel(path, flow->psm(), flow->domain());
  IpModel out;
  out.seconds = secondsSince(t0);
  out.states = report.states;
  out.transitions = report.transitions;
  out.digest = fileDigest(path);
  if (keep != nullptr) *keep = std::move(flow);
  return out;
}

/// Self-evaluation MRE of a built flow over its training traces, weighted
/// by trace length (Table II's accuracy column), in percent.
double trainingMrePercent(const core::CharacterizationFlow& flow) {
  double weighted = 0.0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < flow.trainingFunctional().size(); ++i) {
    const auto& f = flow.trainingFunctional()[i];
    weighted += flow.evaluateMre(f, flow.trainingPower()[i]) *
                static_cast<double>(f.length());
    total += f.length();
  }
  return total == 0 ? 0.0 : 100.0 * weighted / static_cast<double>(total);
}

struct TracedModel {
  core::Psm psm;
  std::unique_ptr<core::PropositionDomain> domain;
  LayerCounts counts;
  std::uint64_t digest = 0;
  /// Wall time of the operation without the device-only replay.
  double seconds = 0.0;
};

/// The traced operation: the same computation as characterizeIp(), one
/// span per layer call, in CharacterizationFlow::build()'s order and with
/// its parallelism (the pool goes to buildDomain, the signature chunks,
/// the per-trace XU walk and simplify, and join).
TracedModel tracedCharacterizeIp(Tracer& tracer, std::uint64_t root,
                                 ip::IpKind kind,
                                 const std::vector<ip::TraceSpec>& plan,
                                 const std::string& path) {
  const auto t0 = Clock::now();
  const std::uint64_t op = tracer.newOp();
  Tracer::Span ip_span(tracer, "bench.ip_model", root, op);
  const std::uint64_t parent = ip_span.id();
  const core::FlowConfig config;
  const unsigned num_threads = 0;
  TracedModel out;

  auto device = ip::makeDevice(kind);
  double replay_s = 0.0;
  {
    // Device-only replay of the same stimuli: the surrogate's own cost
    // is power.surrogate minus this. Extra work the untraced path skips.
    const auto r0 = Clock::now();
    Tracer::Span span(tracer, "rtl.device", parent, op);
    rtl::Simulator sim(*device);
    for (const ip::TraceSpec& spec : plan) {
      auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, spec.seed);
      out.counts.training_rows += sim.run(*tb, spec.cycles).length();
    }
    replay_s = secondsSince(r0);
  }
  std::vector<trace::FunctionalTrace> functional;
  std::vector<trace::PowerTrace> power;
  {
    Tracer::Span span(tracer, "power.surrogate", parent, op);
    power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
    for (const ip::TraceSpec& spec : plan) {
      auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, spec.seed);
      auto pair = estimator.run(*tb, spec.cycles);
      functional.push_back(std::move(pair.functional));
      power.push_back(std::move(pair.power));
    }
  }

  std::unique_ptr<common::ThreadPool> pool_storage;
  common::ThreadPool* pool = nullptr;
  if (common::ThreadPool::resolveThreads(num_threads) > 1) {
    pool_storage = std::make_unique<common::ThreadPool>(num_threads);
    pool = pool_storage.get();
  }
  const bool parallel = pool != nullptr;

  {
    Tracer::Span span(tracer, "core.mine", parent, op, parallel);
    core::MinerConfig miner_config = config.miner;
    miner_config.num_threads = num_threads;
    core::AssertionMiner miner(miner_config);
    std::vector<const trace::FunctionalTrace*> views;
    for (const auto& f : functional) views.push_back(&f);
    out.domain = std::make_unique<core::PropositionDomain>(
        miner.buildDomain(views, pool));
  }
  out.counts.atoms = out.domain->atoms().size();

  const std::size_t trace_count = functional.size();
  std::vector<std::vector<core::Signature>> signatures(trace_count);
  {
    Tracer::Span span(tracer, "core.signatures", parent, op, parallel);
    struct RowChunk {
      std::size_t trace;
      std::size_t begin;
      std::size_t end;
    };
    constexpr std::size_t kRowChunk = 2048;  // as in build()
    std::vector<RowChunk> chunks;
    for (std::size_t i = 0; i < trace_count; ++i) {
      const std::size_t len = functional[i].length();
      signatures[i].resize(len);
      for (std::size_t b = 0; b < len; b += kRowChunk) {
        chunks.push_back({i, b, std::min(len, b + kRowChunk)});
      }
    }
    const core::PropositionDomain& domain = *out.domain;
    common::parallel_for(pool, chunks.size(), [&](std::size_t c) {
      const RowChunk& chunk = chunks[c];
      for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
        signatures[chunk.trace][t] =
            domain.evalRow(functional[chunk.trace].step(t));
      }
    });
  }
  std::vector<core::PropositionTrace> gammas(trace_count);
  {
    Tracer::Span span(tracer, "core.intern", parent, op);
    for (std::size_t i = 0; i < trace_count; ++i) {
      gammas[i].ids.reserve(signatures[i].size());
      for (const core::Signature& sig : signatures[i]) {
        gammas[i].ids.push_back(out.domain->intern(sig));
      }
      signatures[i] = {};
    }
  }
  out.counts.propositions = out.domain->size();

  std::vector<core::Psm> raw(trace_count);
  {
    Tracer::Span span(tracer, "core.xu", parent, op, parallel);
    common::parallel_for(pool, trace_count, [&](std::size_t i) {
      raw[i] = core::PsmGenerator::generate(gammas[i], power[i],
                                            static_cast<int>(i));
    });
  }
  for (const core::Psm& p : raw) out.counts.raw_states += p.stateCount();

  std::vector<core::Psm> simplified = raw;
  {
    Tracer::Span span(tracer, "core.simplify", parent, op, parallel);
    std::vector<std::size_t> fused(trace_count, 0);
    common::parallel_for(pool, trace_count, [&](std::size_t i) {
      fused[i] = core::simplify(simplified[i], config.merge);
    });
    for (const std::size_t f : fused) out.counts.simplified_pairs += f;
  }
  {
    Tracer::Span span(tracer, "core.join", parent, op, parallel);
    out.psm = core::join(simplified, config.merge, pool);
  }
  {
    Tracer::Span span(tracer, "core.refine", parent, op);
    out.counts.refined_states =
        core::refineDataDependentStates(out.psm, functional, power,
                                        config.refine)
            .refined;
  }
  {
    Tracer::Span span(tracer, "core.hmm", parent, op);
    const core::PsmSimulator simulator(out.psm, *out.domain, config.sim);
    (void)simulator;
  }
  out.counts.states = out.psm.stateCount();
  out.counts.transitions = out.psm.transitionCount();
  {
    Tracer::Span span(tracer, "serialize.save", parent, op);
    serialize::savePsmModel(path, out.psm, *out.domain);
  }
  ip_span.end();
  out.seconds = secondsSince(t0) - replay_s;
  out.digest = fileDigest(path);
  return out;
}

// Problem sizes: instants of training per IP (four traces each), and the
// warm-up round run as set-up.
constexpr std::size_t kInstantsPerIp = 60000;
constexpr std::size_t kWarmupInstantsPerIp = kInstantsPerIp / 4;
constexpr int kSetupRepeats = 5;

}  // namespace

Result runCharacterize(const Options& options) {
  Result result;
  obs::Options obs_options;
  obs_options.log_level = obs::LogLevel::Error;
  obs::configure(obs_options);

  const auto& ips = ip::kAllIps;
  std::vector<std::vector<ip::TraceSpec>> plans;
  std::vector<std::vector<ip::TraceSpec>> warmup_plans;
  std::vector<std::string> paths;
  for (const ip::IpKind kind : ips) {
    plans.push_back(trainingPlan(kind, options.seed, kInstantsPerIp));
    warmup_plans.push_back(
        trainingPlan(kind, options.seed, kWarmupInstantsPerIp));
    paths.push_back(options.workdir + "/" + ip::ipName(kind) + ".psm");
  }

  // Set-up: warm-up rounds at a quarter of the size (page in the code,
  // size the allocator's pools). Reported as the median of the repeats.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < std::size(ips); ++i) {
      characterizeIp(ips[i], warmup_plans[i], paths[i], nullptr);
    }
    setup_s.push_back(secondsSince(t0));
  }

  // References: pinned at the default seed, otherwise the first round's
  // outputs (every later round must reproduce them bit for bit).
  const bool pinned = options.seed == kDefaultSeed;
  std::vector<CharacterizeExpect> refs(std::size(ips));
  if (pinned) {
    refs.assign(std::begin(kCharacterizeExpected),
                std::end(kCharacterizeExpected));
    for (CharacterizeExpect& r : refs) {
      if (options.corrupt_expected) r.artifact_fnv1a ^= 1;
    }
  }

  // Per IP, the seconds of every model built; the throughput divides the
  // instants of one round by the sum of the per-IP medians. With --trace 1
  // the rounds alternate untraced / traced, so the overhead compares
  // rounds run under the same machine conditions.
  const std::size_t n_ips = std::size(ips);
  std::vector<std::vector<double>> ip_seconds(n_ips);
  std::vector<std::vector<double>> traced_ip_seconds(n_ips);
  std::vector<double> op_us;
  double mre_sum = 0.0;
  std::vector<core::Psm> built_psms(n_ips);
  std::vector<std::optional<core::PropositionDomain>> built_domains(n_ips);
  Tracer tracer;
  std::vector<LayerCounts> traced_counts;
  const auto t_start = Clock::now();
  const int min_rounds = options.trace ? 2 : 1;
  for (int round = 0;
       round < min_rounds || secondsSince(t_start) < options.seconds;
       ++round) {
    if (options.trace && round % 2 == 1) {
      Tracer::Span root(tracer, "phase.characterize", 0, 0);
      LayerCounts counts;
      for (std::size_t i = 0; i < n_ips; ++i) {
        ++result.attempted;
        const TracedModel m = tracedCharacterizeIp(tracer, root.id(), ips[i],
                                                   plans[i], paths[i]);
        traced_ip_seconds[i].push_back(m.seconds);
        counts += m.counts;
        if (!(m.psm == built_psms[i]) || !(*m.domain == *built_domains[i])) {
          result.fail(ip::ipName(ips[i]) +
                      ": layer-by-layer PSM differs from build()'s");
        } else if (m.digest != refs[i].artifact_fnv1a) {
          result.fail(ip::ipName(ips[i]) +
                      ": layer-by-layer artifact bytes differ");
        }
      }
      traced_counts.push_back(counts);
      continue;
    }
    for (std::size_t i = 0; i < n_ips; ++i) {
      std::unique_ptr<core::CharacterizationFlow> flow;
      const IpModel m = characterizeIp(ips[i], plans[i], paths[i],
                                       round == 0 ? &flow : nullptr);
      ++result.attempted;
      ip_seconds[i].push_back(m.seconds);
      op_us.push_back(m.seconds * 1e6);
      if (options.print_digests && round == 0) {
        std::fprintf(stderr, "characterize %s: {0x%016llxULL, %zu, %zu},\n",
                     ip::ipName(ips[i]).c_str(),
                     static_cast<unsigned long long>(m.digest), m.states,
                     m.transitions);
      }
      if (round == 0) {
        // Cross-path: the artifact decodes to the model build() made.
        const serialize::PsmModel loaded = serialize::loadPsmModel(paths[i]);
        if (!(loaded.psm == flow->psm()) ||
            !(loaded.domain == flow->domain())) {
          result.fail(ip::ipName(ips[i]) + ": artifact does not reload to "
                                           "the built model");
        }
        mre_sum += trainingMrePercent(*flow);
        built_psms[i] = flow->psm();
        built_domains[i] = flow->domain();
        if (!pinned) {
          refs[i] = {m.digest, m.states, m.transitions};
          if (options.corrupt_expected) refs[i].artifact_fnv1a ^= 1;
        }
      }
      if (m.digest != refs[i].artifact_fnv1a || m.states != refs[i].states ||
          m.transitions != refs[i].transitions) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: artifact fnv1a %016llx states %zu transitions "
                      "%zu, expected %016llx %zu %zu",
                      ip::ipName(ips[i]).c_str(),
                      static_cast<unsigned long long>(m.digest), m.states,
                      m.transitions,
                      static_cast<unsigned long long>(refs[i].artifact_fnv1a),
                      refs[i].states, refs[i].transitions);
        result.fail(buf);
      }
    }
  }
  double round_seconds = 0.0;
  for (const auto& s : ip_seconds) round_seconds += median(s);
  const double mre_percent = mre_sum / static_cast<double>(n_ips);

  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("rows_per_s",
               static_cast<double>(kInstantsPerIp * n_ips) / round_seconds,
               "rows/s");
    result.set("op_p50_us", percentile(op_us, 0.50), "us");
    // ~30 rounds of four models per run: p90 is the highest percentile
    // with ten samples beyond it.
    result.set("op_tail_us", percentile(op_us, 0.90), "us");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    std::fprintf(stderr,
                 "characterize: %zu IP models (op latency samples), "
                 "training MRE %.3f%%\n",
                 op_us.size(), mre_percent);
    return result;
  }

  for (const LayerCounts& c : traced_counts) {
    if (!(c == traced_counts.front())) {
      result.fail("layer counts differ between rounds");
    }
  }
  const double rounds = static_cast<double>(traced_counts.size());
  for (const auto& [name, unit] : perLayerMetrics()) result.set(name, 0, unit);
  const char* stages[][2] = {
      {"rtl.device", "rtl.device_s"},
      {"power.surrogate", "power.surrogate_s"},
      {"core.mine", "core.mine_s"},
      {"core.signatures", "core.signatures_s"},
      {"core.intern", "core.intern_s"},
      {"core.xu", "core.xu_s"},
      {"core.simplify", "core.simplify_s"},
      {"core.join", "core.join_s"},
      {"core.refine", "core.refine_s"},
      {"core.hmm", "core.hmm_s"},
      {"serialize.save", "serialize.save_s"},
  };
  for (const auto& stage : stages) {
    result.set(stage[1], tracer.totalSeconds(stage[0]) / rounds, "s");
  }
  reportCounts(traced_counts.front(), result);
  result.set("model.mre_percent", mre_percent, "%");
  result.set("trace.coverage_percent",
             tracer.coveragePercent("phase.characterize"), "%");
  double traced_round = 0.0;
  for (const auto& s : traced_ip_seconds) traced_round += median(s);
  result.set("trace.overhead_percent",
             100.0 * (traced_round / round_seconds - 1.0), "%");
  tracer.writeJson(options.spans_out.empty()
                       ? options.workdir + "/spans.json"
                       : options.spans_out);
  return result;
}

}  // namespace perfbench

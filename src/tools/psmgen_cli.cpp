// psmgen — command-line front end for the characterization flow.
//
// Usage:
//   psmgen train    --func F.csv --power F.pw [...] --out model.psm [--lint]
//   psmgen predict  --psm model.psm --eval E.csv [--ref E.pw] [--chunk N]
//   psmgen lint     --psm model.psm [--json] [--werror] [--suppress ID]
//   psmgen generate --func F.csv --power F.pw [...]
//                   [--dot out.dot] [--systemc out.cpp] [--plain]
//   psmgen estimate --func train.csv --power train.pw [...]
//                   --eval eval.csv [--ref eval.pw]
//   psmgen demo <ram|multsum|aes|camellia>
//
// `train` runs the characterization once and writes a versioned PSM model
// artifact; `predict` loads the artifact and streams an evaluation trace
// through the online predictor in bounded memory — together they split
// the fused `estimate` into a train-once / serve-many workflow with
// identical per-instant estimates. `lint` statically analyzes a model
// artifact (or, via `train --lint`, the freshly mined model in-process)
// against the semantic check registry in src/analysis and exits 0/1/2 so
// CI can gate on it. `generate` and `estimate` keep the single-shot
// behaviour; `demo` characterizes one of the paper's benchmark IPs end
// to end.
//
// Output contract: stdout carries pure results only (the instant,power_w
// CSV of predict/estimate) and is byte-identical across --log-level /
// --metrics-out / --trace-out settings; every diagnostic goes through
// the structured logger on stderr (obs/log.hpp).

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/build_info.hpp"
#include "core/codegen.hpp"
#include "core/dot_export.hpp"
#include "core/flow.hpp"
#include "ip/ip_factory.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "power/gate_estimator.hpp"
#include "runtime/online_predictor.hpp"
#include "runtime/quality_monitor.hpp"
#include "runtime/streaming_reader.hpp"
#include "serialize/psm_artifact.hpp"
#include "serve/debug_http.hpp"
#include "serve/server.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace psmgen;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  psmgen train    --func F.csv --power F.pw [...] --out model.psm "
      "[--dot out.dot] [--systemc out.cpp] [--plain] [--threads N]\n"
      "  psmgen predict  --psm model.psm --eval E.csv [--ref E.pw] "
      "[--chunk N]\n"
      "  psmgen lint     --psm model.psm [--json] [--werror] "
      "[--suppress ID[,ID...]] [--epsilon E]\n"
      "  psmgen serve    --psm model.psm [--serve-port N] "
      "[--serve-port-file F] [--max-sessions N]\n"
      "                  [--rate ROWS_PER_S] [--idle-timeout-ms N] "
      "[--port N] [--port-file F]\n"
      "                  [--window N] [--drift-wsp PCT] [--drift-z Z]\n"
      "  psmgen serve    --stdio --psm model.psm [--eval E.csv] [--ref E.pw] "
      "[--port N] [--port-file F]\n"
      "                  [--window N] [--drift-wsp PCT] [--drift-z Z] "
      "[--linger-ms N] [--chunk N]\n"
      "  psmgen generate --func F.csv --power F.pw [...] "
      "[--dot out.dot] [--systemc out.cpp] [--plain] [--threads N]\n"
      "  psmgen estimate --func F.csv --power F.pw [...] "
      "--eval E.csv [--ref E.pw] [--threads N]\n"
      "  psmgen demo <ram|multsum|aes|camellia> [--threads N]\n"
      "  psmgen --version\n"
      "\n"
      "lint (static analysis of a model artifact; exit 0 = clean, "
      "1 = findings gated,\n2 = usage error; train also accepts --lint "
      "to vet the freshly mined model in-process):\n"
      "  --json             machine-readable psmgen.lint.v1 report on "
      "stdout instead of text\n"
      "  --werror           warnings also trip the gate (exit 1)\n"
      "  --suppress IDs     drop findings by check id "
      "(repeatable or comma-separated)\n"
      "  --epsilon E        tolerance for probability-sum checks "
      "(default 1e-9)\n"
      "\n"
      "  --threads N        characterization threads "
      "(0 = all hardware threads [default], 1 = sequential)\n"
      "  --chunk N          rows buffered by the streaming predictor "
      "(default 4096)\n"
      "\n"
      "serve (default: multi-client TCP prediction server speaking the "
      "psmgen.serve.v1 framed\nprotocol on 127.0.0.1, one predictor "
      "session per connection, graceful drain on\nSIGINT/SIGTERM; "
      "--stdio restores the single-stream mode: rows from --eval or "
      "stdin,\nestimates on stdout byte-identical to predict. Both "
      "modes serve GET /metrics /healthz\n/readyz /buildinfo on a "
      "second port):\n"
      "  --stdio            single-stream stdin/stdout mode "
      "(byte-identical to predict)\n"
      "  --serve-port N     prediction protocol port "
      "(default 9465; 0 = ephemeral)\n"
      "  --serve-port-file F  write the bound prediction port to F\n"
      "  --max-sessions N   live-session cap; over-cap connects get "
      "Error{busy} (default 256)\n"
      "  --rate R           per-session row rate limit in rows/s "
      "(0 = unlimited [default])\n"
      "  --idle-timeout-ms N  drop sessions idle this long "
      "(default 30000)\n"
      "  --port N           HTTP port (default 9464; 0 = ephemeral)\n"
      "  --port-file F      write the bound port to F (for --port 0)\n"
      "  --window N         drift-detection sliding window rows "
      "(default 2048)\n"
      "  --drift-wsp PCT    windowed WSP %% that flips /readyz to 503 "
      "(default 35; degraded at half)\n"
      "  --drift-z Z        power-residual EWMA z-score that flips "
      "/readyz to 503 (default 6; degraded at half)\n"
      "  --linger-ms N      keep serving N ms after the input stream "
      "ends (default 0)\n"
      "  --flight-events N  flight-recorder ring capacity per thread "
      "(default 1024; 0 disables)\n"
      "  --flight-dump-dir D  write automatic flight dumps (protocol "
      "error, drift, fatal signal)\n"
      "                  into D as psmgen-flight-<reason>-<seq>.json "
      "(default: no automatic dumps)\n"
      "\n"
      "observability (stderr/file only; stdout stays pure results):\n"
      "  --log-level LVL    trace|debug|info|warn|error|off "
      "(default info)\n"
      "  --log-json         one JSON object per log line instead of "
      "key=value\n"
      "  --quiet            only errors on stderr (same as "
      "--log-level error)\n"
      "  --metrics-out F    write the metrics registry as JSON to F\n"
      "  --trace-out F      write Chrome trace_event JSON to F "
      "(chrome://tracing, Perfetto)\n"
      "  --profile-out F    sample the whole run with the SIGPROF CPU\n"
      "                     profiler and write psmgen.profile.v1 JSON "
      "to F\n"
      "                     (render: scripts/flamegraph.py)\n"
      "  --profile-hz N     profiler sampling rate in Hz, 1..1000 "
      "(default 97)\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> func;
  std::vector<std::string> power;
  std::string eval;
  std::string ref;
  std::string dot;
  std::string systemc;
  std::string out;
  std::string psm;
  bool plain = false;
  unsigned threads = 0;
  std::size_t chunk = 4096;
  // serve endpoint surface.
  int port = 9464;
  std::string port_file;
  bool stdio = false;
  int serve_port = 9465;
  std::string serve_port_file;
  std::size_t max_sessions = 256;
  double rate = 0.0;
  long idle_timeout_ms = 30000;
  std::size_t window = 2048;
  double drift_wsp = 35.0;
  double drift_z = 6.0;
  long linger_ms = 0;
  /// Flight-recorder ring capacity per thread; 0 disables the recorder.
  std::size_t flight_events = 1024;
  /// Directory for automatic flight dumps (protocol error, drift, fatal
  /// signal); empty disables automatic dumps (on-demand routes still work).
  std::string flight_dump_dir;
  // lint surface (`psmgen lint` and `train --lint`).
  bool lint_json = false;
  bool lint_werror = false;
  bool lint_after_train = false;
  double lint_epsilon = 1e-9;
  std::vector<std::string> lint_suppress;
  // Observability surface (satellite of the obs layer): never changes
  // what lands on stdout, only stderr verbosity and the two dump files.
  std::string log_level;
  std::string metrics_out;
  std::string trace_out;
  /// Whole-run CPU profile dump path; empty disables sampling.
  std::string profile_out;
  double profile_hz = 97.0;
  bool log_json = false;
  bool quiet = false;
};

/// Parses everything after the subcommand. Exactly one pass: every flag
/// is handled here, and an unknown flag is a hard error (exit non-zero
/// via usage()), never silently ignored.
bool parse(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto value = [&](std::string& into) {
      const char* v = next();
      if (!v) {
        obs::error("cli.flag_needs_value", {{"flag", flag}});
        return false;
      }
      into = v;
      return true;
    };
    if (flag == "--func") {
      std::string v;
      if (!value(v)) return false;
      args.func.push_back(v);
    } else if (flag == "--power") {
      std::string v;
      if (!value(v)) return false;
      args.power.push_back(v);
    } else if (flag == "--eval") {
      if (!value(args.eval)) return false;
    } else if (flag == "--ref") {
      if (!value(args.ref)) return false;
    } else if (flag == "--dot") {
      if (!value(args.dot)) return false;
    } else if (flag == "--systemc") {
      if (!value(args.systemc)) return false;
    } else if (flag == "--out") {
      if (!value(args.out)) return false;
    } else if (flag == "--psm") {
      if (!value(args.psm)) return false;
    } else if (flag == "--plain") {
      args.plain = true;
    } else if (flag == "--threads") {
      std::string v;
      if (!value(v)) return false;
      args.threads = static_cast<unsigned>(std::atoi(v.c_str()));
    } else if (flag == "--chunk") {
      std::string v;
      if (!value(v)) return false;
      const long n = std::atol(v.c_str());
      if (n <= 0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a positive row count"}});
        return false;
      }
      args.chunk = static_cast<std::size_t>(n);
    } else if (flag == "--port") {
      std::string v;
      if (!value(v)) return false;
      const long n = std::atol(v.c_str());
      if (n < 0 || n > 65535) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a port in [0, 65535]"}});
        return false;
      }
      args.port = static_cast<int>(n);
    } else if (flag == "--port-file") {
      if (!value(args.port_file)) return false;
    } else if (flag == "--stdio") {
      args.stdio = true;
    } else if (flag == "--serve-port") {
      std::string v;
      if (!value(v)) return false;
      const long n = std::atol(v.c_str());
      if (n < 0 || n > 65535) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a port in [0, 65535]"}});
        return false;
      }
      args.serve_port = static_cast<int>(n);
    } else if (flag == "--serve-port-file") {
      if (!value(args.serve_port_file)) return false;
    } else if (flag == "--max-sessions") {
      std::string v;
      if (!value(v)) return false;
      const long n = std::atol(v.c_str());
      if (n <= 0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a positive count"}});
        return false;
      }
      args.max_sessions = static_cast<std::size_t>(n);
    } else if (flag == "--rate") {
      std::string v;
      if (!value(v)) return false;
      args.rate = std::atof(v.c_str());
      if (args.rate < 0.0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects rows/s >= 0"}});
        return false;
      }
    } else if (flag == "--idle-timeout-ms") {
      std::string v;
      if (!value(v)) return false;
      args.idle_timeout_ms = std::atol(v.c_str());
      if (args.idle_timeout_ms <= 0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects milliseconds > 0"}});
        return false;
      }
    } else if (flag == "--window") {
      std::string v;
      if (!value(v)) return false;
      const long n = std::atol(v.c_str());
      if (n <= 0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a positive row count"}});
        return false;
      }
      args.window = static_cast<std::size_t>(n);
    } else if (flag == "--drift-wsp") {
      std::string v;
      if (!value(v)) return false;
      args.drift_wsp = std::atof(v.c_str());
      if (args.drift_wsp <= 0.0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a positive percentage"}});
        return false;
      }
    } else if (flag == "--drift-z") {
      std::string v;
      if (!value(v)) return false;
      args.drift_z = std::atof(v.c_str());
      if (args.drift_z <= 0.0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a positive z-score"}});
        return false;
      }
    } else if (flag == "--linger-ms") {
      std::string v;
      if (!value(v)) return false;
      args.linger_ms = std::atol(v.c_str());
      if (args.linger_ms < 0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects milliseconds >= 0"}});
        return false;
      }
    } else if (flag == "--flight-events") {
      std::string v;
      if (!value(v)) return false;
      const long n = std::atol(v.c_str());
      if (n < 0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag},
                    {"why", "expects an event count >= 0 (0 disables)"}});
        return false;
      }
      args.flight_events = static_cast<std::size_t>(n);
    } else if (flag == "--flight-dump-dir") {
      if (!value(args.flight_dump_dir)) return false;
    } else if (flag == "--json") {
      args.lint_json = true;
    } else if (flag == "--werror") {
      args.lint_werror = true;
    } else if (flag == "--lint") {
      args.lint_after_train = true;
    } else if (flag == "--epsilon") {
      std::string v;
      if (!value(v)) return false;
      args.lint_epsilon = std::atof(v.c_str());
      if (args.lint_epsilon < 0.0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a tolerance >= 0"}});
        return false;
      }
    } else if (flag == "--suppress") {
      std::string v;
      if (!value(v)) return false;
      // Accept both repeated flags and one comma-separated list.
      std::size_t start = 0;
      while (start <= v.size()) {
        const std::size_t comma = v.find(',', start);
        const std::string id =
            v.substr(start, comma == std::string::npos ? comma : comma - start);
        if (!id.empty()) args.lint_suppress.push_back(id);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag == "--log-level") {
      if (!value(args.log_level)) return false;
    } else if (flag == "--metrics-out") {
      if (!value(args.metrics_out)) return false;
    } else if (flag == "--trace-out") {
      if (!value(args.trace_out)) return false;
    } else if (flag == "--profile-out") {
      if (!value(args.profile_out)) return false;
    } else if (flag == "--profile-hz") {
      std::string v;
      if (!value(v)) return false;
      args.profile_hz = std::atof(v.c_str());
      if (args.profile_hz < 1.0 || args.profile_hz > 1000.0) {
        obs::error("cli.bad_flag",
                   {{"flag", flag}, {"why", "expects a rate in [1, 1000]"}});
        return false;
      }
    } else if (flag == "--log-json") {
      args.log_json = true;
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else if (!flag.empty() && flag.front() == '-') {
      obs::error("cli.unknown_flag", {{"flag", flag}});
      return false;
    } else {
      args.positional.push_back(flag);
    }
  }
  return true;
}

/// Builds the obs configuration from the CLI flags. The CLI default is
/// info (the historical summaries keep appearing); --quiet drops to
/// error; --log-level wins over both. Returns false on a bad level name.
bool configureObservability(const Args& args) {
  obs::Options opts;
  opts.log_level = args.quiet ? obs::LogLevel::Error : obs::LogLevel::Info;
  if (!args.log_level.empty()) {
    const auto parsed = obs::parseLogLevel(args.log_level);
    if (!parsed) {
      obs::error("cli.bad_log_level", {{"value", args.log_level}});
      return false;
    }
    opts.log_level = *parsed;
  }
  if (args.log_json) opts.log_format = obs::Logger::Format::Json;
  opts.metrics_out = args.metrics_out;
  opts.trace_out = args.trace_out;
  obs::configure(opts);
  return true;
}

bool requireTrainingPairs(const Args& args) {
  if (args.func.empty() || args.func.size() != args.power.size()) {
    obs::error("cli.bad_training_pairs",
               {{"func", args.func.size()}, {"power", args.power.size()},
                {"why", "need at least one --func/--power pair"}});
    return false;
  }
  return true;
}

void summarize(const core::CharacterizationFlow& flow,
               const core::BuildReport& report) {
  obs::info("flow.summary",
            {{"atoms", report.atoms},
             {"propositions", report.propositions},
             {"raw_states", report.raw_states},
             {"states", report.states},
             {"transitions", report.transitions},
             {"refined", report.refined_states},
             {"seconds", report.generation_seconds}});
  if (!obs::logger().enabled(obs::LogLevel::Info)) return;
  for (const auto& s : flow.psm().states()) {
    obs::info("flow.state",
              {{"id", s.id},
               {"mu_w", s.power.mean},
               {"sigma", s.power.stddev},
               {"n", s.power.n},
               {"regression", s.regression.has_value()}});
  }
}

void writeArtifacts(const core::CharacterizationFlow& flow, const Args& args) {
  if (!args.dot.empty()) {
    std::ofstream os(args.dot);
    core::writeDot(os, flow.psm(), flow.domain());
    obs::info("cli.wrote", {{"kind", "dot"}, {"path", args.dot}});
  }
  if (!args.systemc.empty()) {
    core::CodegenOptions opt;
    opt.style = args.plain ? core::CodegenStyle::Plain
                           : core::CodegenStyle::SystemC;
    std::ofstream os(args.systemc);
    os << core::generateModel(flow.psm(), flow.domain(), opt);
    obs::info("cli.wrote", {{"kind", "systemc"}, {"path", args.systemc}});
  }
}

core::CharacterizationFlow trainFlow(const Args& args) {
  core::FlowConfig config;
  config.num_threads = args.threads;
  core::CharacterizationFlow flow(config);
  for (std::size_t i = 0; i < args.func.size(); ++i) {
    flow.addTrainingTrace(trace::loadFunctionalTrace(args.func[i]),
                          trace::loadPowerTrace(args.power[i]));
  }
  return flow;
}

int runGenerate(const Args& args, bool estimate) {
  core::CharacterizationFlow flow = trainFlow(args);
  const core::BuildReport report = flow.build();
  summarize(flow, report);
  writeArtifacts(flow, args);
  if (!estimate) return 0;

  const trace::FunctionalTrace eval = trace::loadFunctionalTrace(args.eval);
  const core::SimResult sim = flow.estimate(eval);
  std::printf("instant,power_w\n");
  for (std::size_t t = 0; t < sim.estimate.size(); ++t) {
    std::printf("%zu,%.9e\n", t, sim.estimate[t]);
  }
  obs::info("estimate.summary",
            {{"instants", sim.estimate.size()},
             {"wsp_percent", sim.wspPercent()},
             {"unexpected", sim.unexpected_behaviours},
             {"lost", sim.lost_instants}});
  if (!args.ref.empty()) {
    const trace::PowerTrace ref = trace::loadPowerTrace(args.ref);
    std::vector<double> r(ref.samples().begin(),
                          ref.samples().begin() +
                              static_cast<std::ptrdiff_t>(sim.estimate.size()));
    obs::info("estimate.mre",
              {{"mre_percent",
                100.0 * trace::meanRelativeError(sim.estimate, r)}});
  }
  return 0;
}

/// Builds the analyzer options from the CLI surface, rejecting check ids
/// that are not in the registry so a typo in --suppress cannot silently
/// disable nothing. Returns false on an unknown id (usage error).
bool lintOptionsFromArgs(const Args& args, analysis::LintOptions& options) {
  options.epsilon = args.lint_epsilon;
  options.werror = args.lint_werror;
  for (const std::string& id : args.lint_suppress) {
    if (!analysis::findCheck(id)) {
      obs::error("lint.unknown_check_id", {{"id", id}});
      return false;
    }
    options.suppress.push_back(id);
  }
  return true;
}

/// Shared tail of `lint` and `train --lint`: render the report on stdout
/// (text or JSON — lint reports are the command's pure result) and fold
/// the findings into the exit code.
int reportLint(const analysis::LintReport& report, const std::string& subject,
               const Args& args, const analysis::LintOptions& options) {
  const std::string rendered = args.lint_json
                                   ? analysis::renderJson(report, subject)
                                   : analysis::renderText(report, subject);
  std::fputs(rendered.c_str(), stdout);
  const int rc = analysis::gateExitCode(report, options);
  obs::info("lint.summary",
            {{"subject", subject},
             {"errors", report.errors},
             {"warnings", report.warnings},
             {"infos", report.infos},
             {"gate", rc == 0 ? "pass" : "fail"}});
  return rc;
}

int runLint(const Args& args) {
  analysis::LintOptions options;
  if (!lintOptionsFromArgs(args, options)) return usage();
  const analysis::LintReport report = analysis::lintArtifact(args.psm, options);
  return reportLint(report, args.psm, args, options);
}

int runTrain(const Args& args) {
  core::CharacterizationFlow flow = trainFlow(args);
  const core::BuildReport report = flow.build();
  summarize(flow, report);
  writeArtifacts(flow, args);
  serialize::savePsmModel(args.out, flow.psm(), flow.domain());
  obs::info("train.wrote_model",
            {{"path", args.out},
             {"states", flow.psm().stateCount()},
             {"transitions", flow.psm().transitionCount()},
             {"propositions", flow.domain().size()}});
  if (args.lint_after_train) {
    // After-train hook: vet the freshly mined model in-process (no
    // artifact round-trip) so a bad model fails the training job itself.
    analysis::LintOptions options;
    if (!lintOptionsFromArgs(args, options)) return usage();
    const analysis::LintReport lint =
        analysis::lintModel(flow.psm(), flow.domain(), options);
    return reportLint(lint, args.out, args, options);
  }
  return 0;
}

int runPredict(const Args& args) {
  // Cold-load latency (artifact -> servable model) is a first-class
  // serving metric: it bounds predictor restart time.
  const auto load0 = std::chrono::steady_clock::now();
  const serialize::PsmModel model = serialize::loadPsmModel(args.psm);
  const double cold_load_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - load0)
          .count();
  obs::metrics().gauge("predict.cold_load_ms").set(cold_load_ms);
  obs::info("predict.loaded_model",
            {{"path", args.psm},
             {"states", model.psm.stateCount()},
             {"transitions", model.psm.transitionCount()},
             {"propositions", model.domain.size()},
             {"cold_load_ms", cold_load_ms}});

  // Reference samples are compared online so nothing scales with the
  // evaluation trace: the estimate is printed and folded into the MRE
  // accumulator as each row leaves the streaming reader.
  std::vector<double> ref;
  if (!args.ref.empty()) {
    ref = trace::loadPowerTrace(args.ref).samples();
  }
  double mre_sum = 0.0;
  std::size_t mre_n = 0;

  // The quality monitor rides along read-only: the estimate CSV on
  // stdout is byte-identical with or without it, and the windowed drift
  // gauges land in --metrics-out for free.
  runtime::StreamingTraceReader reader(args.eval, {args.chunk});
  runtime::OnlinePredictor predictor(model);
  runtime::QualityMonitor monitor(predictor, model.psm);
  std::printf("instant,power_w\n");
  const runtime::PredictorStats stats = monitor.predictStream(
      reader, [&](std::size_t t, double estimate) {
        std::printf("%zu,%.9e\n", t, estimate);
        if (t < ref.size() && ref[t] != 0.0) {
          mre_sum += std::abs(estimate - ref[t]) / ref[t];
          ++mre_n;
        }
      });
  obs::info("predict.summary",
            {{"instants", stats.rows},
             {"wsp_percent", stats.wspPercent()},
             {"unexpected", stats.unexpected_behaviours},
             {"lost", stats.lost_instants},
             {"resyncs", stats.resyncs},
             {"rows_per_second", stats.rowsPerSecond()},
             {"chunk_rows", args.chunk},
             {"peak_buffered_rows", reader.peakBufferedRows()},
             {"quality_status",
              runtime::driftStatusName(monitor.status())}});
  if (!args.ref.empty() && mre_n > 0) {
    obs::info("predict.mre",
              {{"mre_percent", 100.0 * mre_sum / static_cast<double>(mre_n)}});
  }
  return 0;
}

void appendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

/// The /buildinfo payload: build identity plus the loaded artifact's
/// format version and shape, so a scrape can tell *which* model a
/// drifting instance is serving.
std::string buildInfoJson(const std::string& model_path,
                          const serialize::PsmModel& model) {
  std::string out = "{\"name\": \"psmgen\", \"version\": ";
  appendJsonString(out, common::kVersion);
  out += ", \"git_sha\": ";
  appendJsonString(out, common::kGitSha);
  out += ", \"build_type\": ";
  appendJsonString(out, common::kBuildType);
  out += ", \"psm_format_version\": " +
         std::to_string(serialize::kFormatVersion);
  out += ", \"model\": {\"path\": ";
  appendJsonString(out, model_path);
  out += ", \"states\": " + std::to_string(model.psm.stateCount());
  out += ", \"transitions\": " + std::to_string(model.psm.transitionCount());
  out += ", \"propositions\": " + std::to_string(model.domain.size());
  out += "}}\n";
  return out;
}

int printVersion() {
  std::printf("psmgen %s (git %s, %s, psm-format v%u)\n", common::kVersion,
              common::kGitSha, common::kBuildType, serialize::kFormatVersion);
  return 0;
}

// SIGINT/SIGTERM flip this; the serve loops poll it to begin a graceful
// drain. std::atomic<bool> is async-signal-safe when lock-free, which it
// is on every platform psmgen targets. This is the *only* state the
// shutdown handler may touch: scripts/signal_safety_gate.py walks the
// handler's transitive call graph and fails the build if anything
// async-signal-unsafe (allocation, stdio, blocking locks) ever creeps
// in, so keep handleShutdownSignal a bare atomic store.
std::atomic<bool> g_shutdown{false};

extern "C" void handleShutdownSignal(int) {
  g_shutdown.store(true, std::memory_order_relaxed);
}

/// sigaction (not signal()) and deliberately no SA_RESTART, so a
/// blocking read on stdin wakes with EINTR instead of resuming and
/// ignoring the shutdown request until the next row arrives.
void installServeSignalHandlers() {
  struct sigaction sa {};
  sa.sa_handler = handleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// Writes `port` to `path` with an explicit flush check. A readiness
/// script polls this file; if it can never materialise the process must
/// exit non-zero instead of serving a port nobody can discover.
bool writePortFile(const std::string& path, std::uint16_t port) {
  std::ofstream os(path);
  os << port << '\n';
  os.flush();
  if (!os) {
    obs::error("serve.port_file_failed", {{"path", path}});
    return false;
  }
  return true;
}

/// The legacy single-stream mode (`--stdio`): rows from --eval/stdin,
/// estimates on stdout — byte-identical to `psmgen predict` (asserted by
/// test and the CI smoke job) while the HTTP thread answers scrapes.
int runServeStdio(const Args& args, const serialize::PsmModel& model,
                  const runtime::QualityMonitorConfig& qconfig,
                  obs::HttpServer& server, const std::string& buildinfo) {
  std::vector<double> ref;
  if (!args.ref.empty()) {
    ref = trace::loadPowerTrace(args.ref).samples();
  }

  std::unique_ptr<runtime::StreamingTraceReader> reader;
  if (!args.eval.empty()) {
    reader = std::make_unique<runtime::StreamingTraceReader>(
        args.eval, runtime::StreamingTraceReader::Options{args.chunk});
  } else {
    reader = std::make_unique<runtime::StreamingTraceReader>(
        std::cin, runtime::StreamingTraceReader::Options{args.chunk});
  }

  runtime::OnlinePredictor predictor(model);
  runtime::QualityMonitor monitor(predictor, model.psm, qconfig);
  server.handle("/readyz", [&monitor](const obs::HttpServer::Request&) {
    return runtime::readyzResponse(monitor);
  });
  // Stdio mode has no session registry; /debug/sessions explains that
  // while /debug/events and /debug/build work as in TCP mode.
  serve::registerDebugRoutes(server, nullptr, buildinfo);
  if (!server.listen(static_cast<std::uint16_t>(args.port))) return 1;
  server.start();
  if (!args.port_file.empty() &&
      !writePortFile(args.port_file, server.port())) {
    return 1;
  }

  // Feed thread (this one): rows in, estimates out — the same stdout
  // contract as predict, while the server thread answers scrapes.
  std::printf("instant,power_w\n");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<common::BitVector> row;
  std::size_t t = 0;
  while (!g_shutdown.load(std::memory_order_relaxed) && reader->next(row)) {
    const double estimate = t < ref.size()
                                ? monitor.predictRow(row, ref[t])
                                : monitor.predictRow(row);
    std::printf("%zu,%.9e\n", t, estimate);
    ++t;
  }
  predictor.addSeconds(runtime::secondsSince(t0));
  const runtime::PredictorStats& stats = predictor.stats();
  obs::metrics().gauge("predict.wsp_percent").set(stats.wspPercent());
  obs::metrics().gauge("predict.rows_per_second").set(stats.rowsPerSecond());
  obs::info("serve.summary",
            {{"instants", stats.rows},
             {"wsp_percent", stats.wspPercent()},
             {"resyncs", stats.resyncs},
             {"lost", stats.lost_instants},
             {"rows_per_second", stats.rowsPerSecond()},
             {"quality_status", runtime::driftStatusName(monitor.status())},
             {"port", server.port()}});
  // A shutdown signal skips the linger: the operator asked us to leave.
  if (args.linger_ms > 0 && !g_shutdown.load(std::memory_order_relaxed)) {
    std::fflush(stdout);
    obs::info("serve.linger", {{"ms", args.linger_ms}});
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(args.linger_ms);
    while (!g_shutdown.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  server.stop();
  return 0;
}

/// The default mode: a multi-client TCP prediction server speaking the
/// psmgen.serve.v1 framed protocol, one OnlinePredictor per session over
/// the shared model. Runs until SIGINT/SIGTERM, then drains gracefully.
int runServeTcp(const Args& args, const serialize::PsmModel& model,
                const runtime::QualityMonitorConfig& qconfig,
                obs::HttpServer& server, const std::string& buildinfo) {
  serve::ServerConfig config;
  config.port = static_cast<std::uint16_t>(args.serve_port);
  config.max_sessions = args.max_sessions;
  config.rows_per_second = args.rate;
  config.idle_timeout_ms = static_cast<int>(args.idle_timeout_ms);
  config.model_id = args.psm;
  config.quality = qconfig;
  serve::PredictionServer prediction(model, config);

  // /readyz flips to 503 as soon as the drain starts so a load balancer
  // stops routing to an instance that refuses new sessions.
  server.handle("/readyz", [&prediction](const obs::HttpServer::Request&) {
    if (prediction.draining()) {
      return obs::HttpServer::Response{503, "text/plain; charset=utf-8",
                                       "draining\n"};
    }
    return obs::HttpServer::Response{200, "text/plain; charset=utf-8",
                                     "ok\n"};
  });
  serve::registerDebugRoutes(server, &prediction, buildinfo);
  if (!server.listen(static_cast<std::uint16_t>(args.port))) return 1;
  server.start();
  if (!prediction.listen()) return 1;
  prediction.start();
  if (!args.port_file.empty() &&
      !writePortFile(args.port_file, server.port())) {
    return 1;
  }
  if (!args.serve_port_file.empty() &&
      !writePortFile(args.serve_port_file, prediction.port())) {
    return 1;
  }
  obs::info("serve.listening",
            {{"serve_port", prediction.port()},
             {"http_port", server.port()},
             {"max_sessions", args.max_sessions},
             {"rows_per_second", args.rate},
             {"idle_timeout_ms", args.idle_timeout_ms}});

  while (!g_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  obs::info("serve.shutdown_signal", {{"draining", true}});
  prediction.beginDrain();
  prediction.stop();
  obs::info("serve.summary",
            {{"sessions_total", prediction.totalSessions()},
             {"port", prediction.port()}});
  server.stop();
  return 0;
}

int runServe(const Args& args) {
  installServeSignalHandlers();
  const auto load0 = std::chrono::steady_clock::now();
  const serialize::PsmModel model = serialize::loadPsmModel(args.psm);
  const double cold_load_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - load0)
          .count();
  // /metrics is the point of serve: the registry runs enabled regardless
  // of --metrics-out (results on stdout stay byte-identical either way).
  obs::metrics().setEnabled(true);
  obs::metrics().gauge("predict.cold_load_ms").set(cold_load_ms);

  // The flight recorder runs whenever serving does: per-thread rings of
  // the last --flight-events wide events, dumped automatically on
  // protocol errors, drift transitions and fatal signals when a dump
  // directory is configured.
  obs::flightRecorder().configure(args.flight_events);
  obs::flightRecorder().setEnabled(args.flight_events > 0);
  if (!args.flight_dump_dir.empty()) {
    obs::flightRecorder().setDumpDir(args.flight_dump_dir);
    obs::installFatalSignalDump();
  }
  obs::info("serve.loaded_model",
            {{"path", args.psm},
             {"states", model.psm.stateCount()},
             {"transitions", model.psm.transitionCount()},
             {"propositions", model.domain.size()},
             {"cold_load_ms", cold_load_ms}});

  runtime::QualityMonitorConfig qconfig;
  qconfig.window_rows = args.window;
  qconfig.min_rows = std::min(qconfig.min_rows, args.window);
  qconfig.wsp_drifted_percent = args.drift_wsp;
  qconfig.wsp_degraded_percent = args.drift_wsp / 2.0;
  qconfig.residual_drifted_z = args.drift_z;
  qconfig.residual_degraded_z = args.drift_z / 2.0;

  obs::HttpServer server;
  const std::string model_label = args.psm;
  server.handle(
      "/metrics", [model_label](const obs::HttpServer::Request& request) {
        obs::PrometheusOptions options;
        options.const_labels = {{"model", model_label}};
        // Exemplars are OpenMetrics-only syntax, so the classic 0.0.4
        // exposition stays exemplar-free; a scraper that negotiates
        // OpenMetrics via Accept gets them (plus `# EOF`).
        options.openmetrics =
            obs::acceptsOpenMetrics(request.header("accept"));
        return obs::HttpServer::Response{
            200,
            options.openmetrics ? obs::kOpenMetricsContentType
                                : obs::kPrometheusContentType,
            obs::renderPrometheus(obs::metrics(), options)};
      });
  server.handle("/healthz", [](const obs::HttpServer::Request&) {
    return obs::HttpServer::Response{200, "text/plain; charset=utf-8",
                                     "ok\n"};
  });
  const std::string buildinfo = buildInfoJson(args.psm, model);
  server.handle("/buildinfo", [buildinfo](const obs::HttpServer::Request&) {
    return obs::HttpServer::Response{200, "application/json", buildinfo};
  });

  if (args.stdio) return runServeStdio(args, model, qconfig, server, buildinfo);
  return runServeTcp(args, model, qconfig, server, buildinfo);
}

int runDemo(const std::string& name, unsigned threads) {
  ip::IpKind kind;
  if (name == "ram") {
    kind = ip::IpKind::Ram;
  } else if (name == "multsum") {
    kind = ip::IpKind::MultSum;
  } else if (name == "aes") {
    kind = ip::IpKind::Aes;
  } else if (name == "camellia") {
    kind = ip::IpKind::Camellia;
  } else {
    obs::error("cli.unknown_demo_ip", {{"name", name}});
    return usage();
  }
  auto device = ip::makeDevice(kind);
  power::GateLevelEstimator estimator(*device, ip::powerConfig(kind));
  core::FlowConfig config;
  config.num_threads = threads;
  core::CharacterizationFlow flow(config);
  for (const ip::TraceSpec& spec : ip::shortTSPlan(kind)) {
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Short, spec.seed);
    auto pair = estimator.run(*tb, spec.cycles);
    flow.addTrainingTrace(std::move(pair.functional), std::move(pair.power));
  }
  const core::BuildReport report = flow.build();
  summarize(flow, report);
  auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0xC11);
  auto eval = estimator.run(*tb, 20000);
  const core::SimResult sim = flow.estimate(eval.functional);
  obs::info("demo.mre",
            {{"ip", name},
             {"mre_percent",
              100.0 * trace::meanRelativeError(sim.estimate,
                                               eval.power.samples())}});
  return 0;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "demo") {
    if (args.positional.size() != 1) return usage();
    return runDemo(args.positional.front(), args.threads);
  }
  if (!args.positional.empty()) {
    obs::error("cli.unexpected_argument", {{"arg", args.positional.front()}});
    return usage();
  }
  if (cmd == "generate") {
    if (!requireTrainingPairs(args)) return usage();
    return runGenerate(args, /*estimate=*/false);
  }
  if (cmd == "estimate") {
    if (!requireTrainingPairs(args) || args.eval.empty()) return usage();
    return runGenerate(args, /*estimate=*/true);
  }
  if (cmd == "train") {
    if (!requireTrainingPairs(args) || args.out.empty()) return usage();
    return runTrain(args);
  }
  if (cmd == "predict") {
    if (args.psm.empty() || args.eval.empty()) return usage();
    return runPredict(args);
  }
  if (cmd == "lint") {
    if (args.psm.empty()) return usage();
    return runLint(args);
  }
  if (cmd == "serve") {
    if (args.psm.empty()) return usage();
    return runServe(args);
  }
  obs::error("cli.unknown_command", {{"command", cmd}});
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") return printVersion();
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (!configureObservability(args)) return usage();
  // Whole-run profile: armed around dispatch so the capture covers the
  // subcommand's real work (estimate/train/predict/serve), not flag
  // parsing; the dump is atomic tmp+rename like --metrics-out.
  const bool profiling = !args.profile_out.empty();
  if (profiling) {
    obs::ProfilerConfig config;
    config.hz = args.profile_hz;
    if (!obs::profiler().start(config)) return 1;
  }
  int rc = 0;
  try {
    rc = dispatch(cmd, args);
  } catch (const std::exception& e) {
    obs::error("cli.error", {{"what", e.what()}});
    rc = 1;
  }
  if (profiling) {
    // Dump even on failure — where a failed run burned its cycles is
    // exactly what one debugs with.
    const obs::ProfileReport report = obs::profiler().stop();
    if (!obs::writeProfile(args.profile_out, report) && rc == 0) rc = 1;
  }
  // Flush the metrics/trace dumps even on failure — a failed run's
  // partial metrics are exactly what one debugs with.
  if (!obs::flushOutputs() && rc == 0) rc = 1;
  return rc;
}

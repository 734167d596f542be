// psmbench: the repository benchmark.
//
//   psmbench --workload characterize|predict_stream|serve --seed N
//            --seconds S --trace 0|1 --workdir DIR
//            [--spans-out FILE] [--corrupt-expected] [--print-digests]
//
// Runs one workload for about S seconds of measurement after its set-up
// and prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {NAME:
//    {"value": X, "unit": U}, ...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of the traced run. Exit status: 0 when every check
// passed, 1 when one failed, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: psmbench --workload characterize|predict_stream|serve "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--spans-out FILE] [--corrupt-expected] [--print-digests]\n");
}

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      options.corrupt_expected = true;
      continue;
    }
    if (flag == "--print-digests") {
      options.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && !options.workdir.empty();
}

void printResult(const perfbench::Result& result) {
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    finite = finite && std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const bool correct = result.correct && result.failed == 0 && finite &&
                       result.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  perfbench::Result result;
  try {
    if (options.workload == "characterize") {
      result = perfbench::runCharacterize(options);
    } else if (options.workload == "predict_stream") {
      result = perfbench::runPredictStream(options);
    } else if (options.workload == "serve") {
      result = perfbench::runServe(options);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psmbench: %s\n", e.what());
    return 1;
  }
  printResult(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}

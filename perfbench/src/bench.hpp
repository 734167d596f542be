#pragma once
// Shared support for psmbench: options, the result record, seeded input
// plans, sample statistics, an incremental FNV-1a digest and the span
// recorder of the traced run.
//
// Every workload is a function Result(const Options&) in its own file
// (characterize.cpp, predict_stream.cpp, serve.cpp); main.cpp parses the
// command line, runs one and prints the result as the last stdout line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "ip/ip_factory.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seed whose outputs are pinned by digest (expected.hpp).
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Seed reserved for confirming gain claims; never used while tuning.
inline constexpr std::uint64_t kHeldOutSeed = 20160314;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Private per-run directory for models and CSVs (owned by the caller).
  std::string workdir;
  /// Where the traced run writes its spans; empty = <workdir>/spans.json.
  std::string spans_out;
  /// Flip one bit of every expected value, to prove the checks fail.
  bool corrupt_expected = false;
  /// Print this seed's digests to stderr in expected.hpp's format.
  bool print_digests = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any check failed (a failed check also counts in failed).
  bool correct = true;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed check: logs `what` to stderr and counts `ops` failed.
  void fail(const std::string& what, std::uint64_t ops = 1);
};

double secondsSince(Clock::time_point t0);
double microsSince(Clock::time_point t0);

// ---- Seeded inputs ------------------------------------------------------

/// SplitMix64 mix of the workload seed with two salts; every testbench
/// seed the benchmark uses is derived this way, so one --seed value fixes
/// all inputs.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// Long-TS (constrained-random) training plan: `instants` cycles split
/// over four independent traces with seeds derived from `seed`.
std::vector<psmgen::ip::TraceSpec> trainingPlan(psmgen::ip::IpKind kind,
                                                std::uint64_t seed,
                                                std::size_t instants);

/// Testbench seed of the held-out evaluation trace of `kind`.
std::uint64_t evalSeed(psmgen::ip::IpKind kind, std::uint64_t seed);

/// Index of `kind` in ip::kAllIps.
std::size_t ipIndex(psmgen::ip::IpKind kind);

// ---- Statistics ---------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);
/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// Incremental FNV-1a (64-bit), byte-compatible with serialize::fnv1a.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t size);
  void addDoubles(const std::vector<double>& values);
};

std::uint64_t fileDigest(const std::string& path);

/// Model-building counts, summed over the IPs of one round.
struct LayerCounts {
  std::size_t atoms = 0;
  std::size_t propositions = 0;
  std::size_t raw_states = 0;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t simplified_pairs = 0;
  std::size_t refined_states = 0;
  std::size_t training_rows = 0;

  bool operator==(const LayerCounts&) const = default;
  LayerCounts& operator+=(const LayerCounts& other);
};

/// Keeps a probe's result observable so the call cannot be optimized out.
void keepAlive(std::size_t value);

// ---- Tracing ------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent
  std::uint64_t op = 0;      ///< operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  /// The stage fans out over the thread pool (false = runs sequentially).
  bool parallel = false;
};

/// In-memory span store of the traced run. Spans are appended when they
/// end and written out once, at the end of the run.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t parent,
         std::uint64_t op, bool parallel = false);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    std::uint64_t id() const { return record_.id; }
    /// Ends the span now (the destructor then records nothing) and
    /// returns its duration in seconds (0 when already ended).
    double end();

   private:
    Tracer& tracer_;
    SpanRecord record_;
    bool open_ = true;
  };

  std::uint64_t newOp();

  /// Total duration of every span called `name`, in seconds.
  double totalSeconds(const char* name) const;
  /// Share of the duration of spans called `root` covered by the union
  /// of layer spans (any name outside the "bench." / "phase." namespaces)
  /// beneath them, in percent.
  double coveragePercent(const char* root) const;

  bool writeJson(const std::string& path) const;

 private:
  std::uint64_t nextId();
  void add(const SpanRecord& record);

  mutable psmgen::common::Mutex mutex_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mutex_);
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  std::uint64_t next_op_ GUARDED_BY(mutex_) = 1;
};

std::int64_t nowNs();

// ---- Workloads ----------------------------------------------------------

/// Every per-layer metric, in BENCHMARK.json order, with its unit; a
/// traced run reports each one (0 for a layer its workload leaves idle).
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/// Sets the core.* and trace.training_rows per-layer metrics.
void reportCounts(const LayerCounts& counts, Result& result);

Result runCharacterize(const Options& options);
Result runPredictStream(const Options& options);
Result runServe(const Options& options);

}  // namespace perfbench

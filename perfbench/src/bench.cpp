#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace perfbench {

namespace {

std::uint32_t threadNumber() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

const Clock::time_point kEpoch = Clock::now();

bool isLayerSpan(const char* name) {
  const std::string n(name);
  return n.rfind("bench.", 0) != 0 && n.rfind("phase.", 0) != 0;
}

}  // namespace

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& what, std::uint64_t ops) {
  std::fprintf(stderr, "psmbench: check failed: %s\n", what.c_str());
  failed += ops;
  correct = false;
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double microsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
                    b * 0x94D049BB133111EBULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t ipIndex(psmgen::ip::IpKind kind) {
  return static_cast<std::size_t>(kind);
}

std::vector<psmgen::ip::TraceSpec> trainingPlan(psmgen::ip::IpKind kind,
                                                std::uint64_t seed,
                                                std::size_t instants) {
  constexpr std::size_t kTraces = 4;
  std::vector<psmgen::ip::TraceSpec> plan;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < kTraces; ++i) {
    const std::size_t cycles =
        i + 1 == kTraces ? instants - assigned : instants / kTraces;
    plan.push_back({mixSeed(seed, ipIndex(kind) + 1, i + 1), cycles});
    assigned += cycles;
  }
  return plan;
}

std::uint64_t evalSeed(psmgen::ip::IpKind kind, std::uint64_t seed) {
  return mixSeed(seed, ipIndex(kind) + 1, 1000);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size());
  // Nearest rank: the smallest value with at least p of the samples at or
  // below it.
  const auto k = static_cast<std::size_t>(std::ceil(rank));
  return values[std::min(values.size(), std::max<std::size_t>(k, 1)) - 1];
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Fnv1a::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
}

void Fnv1a::addDoubles(const std::vector<double>& values) {
  add(values.data(), values.size() * sizeof(double));
}

std::uint64_t fileDigest(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  Fnv1a fnv;
  fnv.add(bytes.data(), bytes.size());
  return fnv.hash;
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& other) {
  atoms += other.atoms;
  propositions += other.propositions;
  raw_states += other.raw_states;
  states += other.states;
  transitions += other.transitions;
  simplified_pairs += other.simplified_pairs;
  refined_states += other.refined_states;
  training_rows += other.training_rows;
  return *this;
}

void keepAlive(std::size_t value) {
  static volatile std::size_t sink = 0;
  sink = sink + value;
}

// ---- Tracer -------------------------------------------------------------

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t parent,
                   std::uint64_t op, bool parallel)
    : tracer_(tracer) {
  record_.name = name;
  record_.id = tracer.nextId();
  record_.parent = parent;
  record_.op = op;
  record_.thread = threadNumber();
  record_.parallel = parallel;
  record_.start_ns = nowNs();
}

double Tracer::Span::end() {
  if (!open_) return 0.0;
  open_ = false;
  record_.end_ns = nowNs();
  tracer_.add(record_);
  return static_cast<double>(record_.end_ns - record_.start_ns) * 1e-9;
}

Tracer::Span::~Span() { end(); }

std::uint64_t Tracer::nextId() {
  psmgen::common::MutexLock lock(mutex_);
  return next_id_++;
}

std::uint64_t Tracer::newOp() {
  psmgen::common::MutexLock lock(mutex_);
  return next_op_++;
}

void Tracer::add(const SpanRecord& record) {
  psmgen::common::MutexLock lock(mutex_);
  spans_.push_back(record);
}

double Tracer::totalSeconds(const char* name) const {
  psmgen::common::MutexLock lock(mutex_);
  const std::string n(name);
  std::int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (n == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::coveragePercent(const char* root) const {
  psmgen::common::MutexLock lock(mutex_);
  const std::string r(root);
  std::int64_t total = 0;
  std::int64_t covered = 0;
  for (const SpanRecord& rs : spans_) {
    if (r != rs.name) continue;
    total += rs.end_ns - rs.start_ns;
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    for (const SpanRecord& s : spans_) {
      if (!isLayerSpan(s.name)) continue;
      const std::int64_t b = std::max(s.start_ns, rs.start_ns);
      const std::int64_t e = std::min(s.end_ns, rs.end_ns);
      if (b < e) intervals.emplace_back(b, e);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t reach = rs.start_ns;
    for (const auto& [b, e] : intervals) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
  }
  return total > 0 ? 100.0 * static_cast<double>(covered) /
                         static_cast<double>(total)
                   : 0.0;
}

bool Tracer::writeJson(const std::string& path) const {
  psmgen::common::MutexLock lock(mutex_);
  std::ofstream os(path);
  os << "{\"schema\": \"psmbench.spans.v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"op\": " << s.op
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"thread\": " << s.thread
       << ", \"parallel\": " << (s.parallel ? "true" : "false") << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

// ---- Per-layer metric catalogue -----------------------------------------

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // characterize (seconds per round of four IP models)
      {"rtl.device_s", "s"},
      {"power.surrogate_s", "s"},
      {"core.mine_s", "s"},
      {"core.signatures_s", "s"},
      {"core.intern_s", "s"},
      {"core.xu_s", "s"},
      {"core.simplify_s", "s"},
      {"core.join_s", "s"},
      {"core.refine_s", "s"},
      {"core.hmm_s", "s"},
      {"serialize.save_s", "s"},
      {"core.atoms", "count"},
      {"core.propositions", "count"},
      {"core.raw_states", "count"},
      {"core.states", "count"},
      {"core.transitions", "count"},
      {"core.simplified_pairs", "count"},
      {"core.refined_states", "count"},
      {"trace.training_rows", "count"},
      // predict_stream (per row, or per model load)
      {"trace.reader_ns_per_row", "ns"},
      {"core.find_row_ns", "ns"},
      {"core.step_ns", "ns"},
      {"runtime.predict_row_ns", "ns"},
      {"serialize.load_ms", "ms"},
      {"predict.rows", "count"},
      {"predict.predictions", "count"},
      {"predict.wrong", "count"},
      {"predict.unexpected", "count"},
      {"predict.lost", "count"},
      {"predict.resyncs", "count"},
      {"reader.refills", "count"},
      // serve (per 32-row frame, or per row)
      {"serve.encode_rows_us", "us"},
      {"serve.consume_us", "us"},
      {"serve.decode_rows_us", "us"},
      {"runtime.quality_row_ns", "ns"},
      {"serve.encode_est_us", "us"},
      {"serve.socket_us", "us"},
      {"serve.frames", "count"},
      {"serve.rows", "count"},
      {"serve.registry_frames", "count"},
      {"serve.registry_rows", "count"},
      {"serve.registry_sessions", "count"},
      // output quality (training-fit MRE for characterize, held-out MRE
      // for predict_stream and serve) and the traced run itself
      {"model.mre_percent", "%"},
      {"trace.coverage_percent", "%"},
      {"trace.overhead_percent", "%"},
  };
  return kMetrics;
}

void reportCounts(const LayerCounts& c, Result& result) {
  result.set("core.atoms", static_cast<double>(c.atoms), "count");
  result.set("core.propositions", static_cast<double>(c.propositions),
             "count");
  result.set("core.raw_states", static_cast<double>(c.raw_states), "count");
  result.set("core.states", static_cast<double>(c.states), "count");
  result.set("core.transitions", static_cast<double>(c.transitions), "count");
  result.set("core.simplified_pairs", static_cast<double>(c.simplified_pairs),
             "count");
  result.set("core.refined_states", static_cast<double>(c.refined_states),
             "count");
  result.set("trace.training_rows", static_cast<double>(c.training_rows),
             "count");
}

}  // namespace perfbench

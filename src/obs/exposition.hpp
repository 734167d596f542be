#pragma once
// Prometheus exposition of the metrics registry.
//
// Renders a Registry snapshot in the Prometheus text exposition format
// (version 0.0.4, the format every Prometheus server scrapes), or —
// when PrometheusOptions::openmetrics is set — in OpenMetrics 1.0,
// which additionally carries histogram exemplars and the `# EOF`
// terminator. The two differ at the syntax level (a 0.0.4 parser
// rejects exemplar suffixes outright), so endpoints must pick per
// scraper via Accept-header negotiation (acceptsOpenMetrics()), never
// serve OpenMetrics syntax under the 0.0.4 content type. Shared shape:
//   - counters become `<prefix><name>_total` with `# TYPE ... counter`,
//   - gauges become `<prefix><name>` with `# TYPE ... gauge`,
//   - histograms become the `_bucket{le="..."}` / `_sum` / `_count`
//     triple over the registry's fixed ladder (kHistogramBounds); the
//     cumulative counts come from one copy of the bucket counts, so they
//     are monotone in `le` and `le="+Inf"` equals `_count` in every
//     scrape. OpenMetrics bucket lines carry that bucket's newest
//     exemplar.
//
// Registry names are dotted (`predict.resync_latency_rows`); Prometheus
// names must match [a-zA-Z_:][a-zA-Z0-9_:]*, so every invalid character
// is mapped to '_' and a leading digit gets a '_' prefix. The original
// dotted name is preserved in the `# HELP` line. Label values are escaped
// per the spec (backslash, double quote, newline).
//
// The renderer works on any Registry (tests use private instances); the
// serving endpoints scrape the process-global obs::metrics().

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace psmgen::obs {

struct PrometheusOptions {
  /// Prepended to every metric name (after sanitization of the name).
  std::string prefix = "psmgen_";
  /// Labels attached to every sample, e.g. {{"model", "ram.psm"}}.
  /// Names are sanitized, values escaped.
  std::vector<std::pair<std::string, std::string>> const_labels;
  /// Renders the OpenMetrics 1.0 exposition instead of text format
  /// 0.0.4: counter TYPE/HELP lines name the family without the
  /// `_total` suffix (samples keep it), the document ends with the
  /// mandatory `# EOF` terminator, and each histogram bucket line
  /// carries the newest exemplar recorded into that bucket, if any,
  /// linking it to its flight-recorder event window. Serve it as
  /// kOpenMetricsContentType — and only to scrapers that negotiated it
  /// via Accept (see acceptsOpenMetrics()): the classic 0.0.4 parser
  /// rejects both exemplars and `# EOF`.
  bool openmetrics = false;
};

/// Content-Type values for the two supported expositions.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";
inline constexpr const char* kOpenMetricsContentType =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// True when an HTTP Accept header value asks for the OpenMetrics
/// exposition: the client must name `application/openmetrics-text`
/// exactly, with a q-value above zero and at least as high as any media
/// range the classic 0.0.4 text format satisfies (`text/plain`,
/// `text/*`, `*/*`, `application/*`). Wildcards alone never select
/// OpenMetrics — `Accept: */*` stays classic, and
/// `application/openmetrics-text;q=0, text/plain` is an explicit
/// opt-out. Unparsable q parameters fall back to the RFC default of 1.
bool acceptsOpenMetrics(std::string_view accept_header);

/// Maps a registry name onto the Prometheus name charset:
/// [a-zA-Z0-9_:] with a non-digit first character.
std::string sanitizeMetricName(std::string_view name);

/// Escapes a label value per the text format: \ -> \\, " -> \", and
/// newline -> \n.
std::string escapeLabelValue(std::string_view value);

/// Renders `registry` in Prometheus text format. An empty registry
/// renders to an empty document (valid: zero metric families).
void writePrometheus(std::ostream& os, const Registry& registry,
                     const PrometheusOptions& options = {});
std::string renderPrometheus(const Registry& registry,
                             const PrometheusOptions& options = {});

}  // namespace psmgen::obs

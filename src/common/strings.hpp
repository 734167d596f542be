#pragma once
// Small string helpers shared by trace I/O, reporting, and code generation.

#include <string>
#include <string_view>
#include <vector>

namespace psmgen::common {

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strips leading/trailing ASCII whitespace.
std::string trim(const std::string& s);
/// trim() without the copy: a view into `s`.
std::string_view trimView(std::string_view s);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` starts with `prefix`.
bool startsWith(const std::string& s, const std::string& prefix);

/// Fixed-precision decimal rendering (printf "%.*f").
std::string formatDouble(double v, int precision);

/// Left-pads with spaces to at least `width` characters.
std::string padLeft(const std::string& s, std::size_t width);
/// Right-pads with spaces to at least `width` characters.
std::string padRight(const std::string& s, std::size_t width);

/// Thread-safe strerror: the message for `errnum` via strerror_r into
/// a local buffer. std::strerror returns a pointer into static storage
/// that a concurrent call may rewrite mid-read (clang-tidy
/// concurrency-mt-unsafe), and psmgen reports socket errors from the
/// accept, session and scrape threads at once — use this everywhere.
std::string errnoMessage(int errnum);

}  // namespace psmgen::common

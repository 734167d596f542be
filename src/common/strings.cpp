#include "common/strings.hpp"

#include <string.h>  // strerror_r: POSIX, not in <cstring>'s std::

#include <cctype>
#include <cstdio>

namespace psmgen::common {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(const std::string& s) { return std::string(trimView(s)); }

std::string_view trimView(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string formatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string padLeft(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string padRight(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

namespace {

// glibc with _GNU_SOURCE ships the char*-returning strerror_r; POSIX
// ships the int-returning one. Overload resolution picks the adapter
// matching the libc actually in use, so the same code compiles against
// either ABI (if constexpr would type-check both branches here).
[[maybe_unused]] const char* strerrorResult(char* result,
                                            const char* /*buf*/) {
  return result;
}
[[maybe_unused]] const char* strerrorResult(int result, const char* buf) {
  return result == 0 ? buf : nullptr;
}

}  // namespace

std::string errnoMessage(int errnum) {
  char buf[256];
  buf[0] = '\0';
  const char* msg = strerrorResult(strerror_r(errnum, buf, sizeof(buf)), buf);
  if (msg == nullptr || *msg == '\0') {
    std::snprintf(buf, sizeof(buf), "errno %d", errnum);
    return buf;
  }
  return msg;
}

}  // namespace psmgen::common

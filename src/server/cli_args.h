// Strict number parsing for the server, load-generator and bench command
// lines: an argument is accepted only if all of it is one number in range, so
// "abc", "12x" and "-1" are usage errors rather than 0 or a wrapped value.
#ifndef SRC_SERVER_CLI_ARGS_H_
#define SRC_SERVER_CLI_ARGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace s3fifo {

// A decimal integer in [min, max].
inline bool ParseUintArg(const char* s, uint64_t min, uint64_t max,
                         uint64_t* out) {
  if (*s < '0' || *s > '9') {
    return false;  // strtoull would accept whitespace and a sign
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno != 0 || v < min || v > max) {
    return false;
  }
  *out = v;
  return true;
}

// A finite, non-negative real number.
inline bool ParseRealArg(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace s3fifo

#endif  // SRC_SERVER_CLI_ARGS_H_

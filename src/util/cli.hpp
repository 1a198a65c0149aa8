// Strict numeric command-line flags for the example and bench binaries.
//
// A flag's value is accepted only when the whole token is a number inside
// the flag's range. Anything else — junk, a trailing suffix, a sign on an
// unsigned flag, an overflow, NaN — prints one line naming the program,
// the flag and the value, and exits with status 2. strtol/atof would
// instead stop at junk, wrap a leading '-' to a huge value, or read "abc"
// as 0 and run on silently.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace phftl::util {

class FlagParser {
 public:
  /// `program` prefixes every rejection line; it must outlive the parser.
  explicit FlagParser(const char* program) : program_(program) {}

  /// Rejects a flag's value: one line on stderr naming both, then exit 2.
  [[noreturn]] void bad_value(const std::string& flag,
                              const std::string& value,
                              const std::string& why) const {
    std::fprintf(stderr, "%s: invalid value '%s' for %s: %s\n", program_,
                 value.c_str(), flag.c_str(), why.c_str());
    std::exit(2);
  }

  /// The whole token as an unsigned integer in [lo, hi], else bad_value().
  std::uint64_t parse_uint(
      const std::string& flag, const char* text, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) const {
    const char* end = text + std::strlen(text);
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
      bad_value(flag, text,
                hi == std::numeric_limits<std::uint64_t>::max()
                    ? "expected an integer >= " + std::to_string(lo)
                    : "expected an integer in [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + "]");
    return v;
  }

  /// The whole token as a real number in [lo, hi], else bad_value().
  double parse_real(const std::string& flag, const char* text, double lo,
                    double hi) const {
    const char* end = text + std::strlen(text);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) {
      char why[96];
      std::snprintf(why, sizeof(why), "expected a number in [%g, %g]", lo,
                    hi);
      bad_value(flag, text, why);
    }
    return v;
  }

 private:
  const char* program_;
};

}  // namespace phftl::util

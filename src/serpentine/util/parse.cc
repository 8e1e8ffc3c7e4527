#include "serpentine/util/parse.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace serpentine {

bool ParseInt64(std::string_view text, int64_t min, int64_t max,
                int64_t* out) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseFiniteDouble(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

}  // namespace serpentine

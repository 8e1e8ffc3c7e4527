// Strict number parsing for command lines and key=value files. The whole
// text must be one number of the wanted type: "12abc", "abc", " 12" and ""
// are errors, never the 12 or 0 that atoi-style parsing returns.
#ifndef SERPENTINE_UTIL_PARSE_H_
#define SERPENTINE_UTIL_PARSE_H_

#include <cstdint>
#include <string_view>

namespace serpentine {

/// Parses `text` as a base-10 integer in [min, max]. On failure returns
/// false and leaves `*out` untouched.
bool ParseInt64(std::string_view text, int64_t min, int64_t max,
                int64_t* out);

/// Parses `text` as a finite decimal floating-point number. On failure
/// (including overflow, "inf" and "nan") returns false and leaves `*out`
/// untouched.
bool ParseFiniteDouble(std::string_view text, double* out);

}  // namespace serpentine

#endif  // SERPENTINE_UTIL_PARSE_H_

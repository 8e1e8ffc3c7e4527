// Retry-with-backoff policy shared by every recovery path (the recovering
// schedule executor, tape-library mount retries). The policy only *describes*
// the schedule; callers decide what a retry means and charge the backoff to
// their own clock (in simulation, backoff is virtual drive-idle time).
#ifndef SERPENTINE_UTIL_RETRY_H_
#define SERPENTINE_UTIL_RETRY_H_

#include "serpentine/util/status.h"

namespace serpentine {

/// Bounded exponential backoff: attempt 0 is the initial try; each retry r
/// (r = 0 for the first retry) waits
///   min(initial_backoff_seconds * backoff_multiplier^r, max_backoff_seconds)
/// before trying again, up to max_attempts total attempts.
struct RetryPolicy {
  /// Total attempts including the first (so max_attempts - 1 retries).
  /// Must be >= 1; 1 means "never retry".
  int max_attempts = 4;
  double initial_backoff_seconds = 0.5;
  double backoff_multiplier = 2.0;
  /// Ceiling on a single backoff interval.
  double max_backoff_seconds = 30.0;
};

/// Rejects NaN/negative/inconsistent policies with a descriptive status:
/// max_attempts >= 1, finite non-negative backoffs, multiplier >= 1.
Status ValidateRetryPolicy(const RetryPolicy& policy);

/// Seconds to wait before retry number `retry_index` (0-based: the wait
/// between the failed first attempt and the second attempt has index 0).
/// Negative indices and degenerate policies clamp to zero. The exponential
/// is guarded against double overflow: once
/// initial * multiplier^r exceeds (or overflows past) the ceiling, the
/// ceiling is returned — never inf or NaN, for any retry_index.
double BackoffSeconds(const RetryPolicy& policy, int retry_index);

/// Coarse classification of a failure for the retry decision: retrying a
/// permanent error wastes the whole backoff schedule, so recovery paths ask
/// first.
enum class ErrorClass {
  kRetryable,  ///< transient: worth another attempt (re-read, re-locate)
  kPermanent,  ///< sticky: report and move on (bad media, dead robot)
};

}  // namespace serpentine

#endif  // SERPENTINE_UTIL_RETRY_H_

#include "serpentine/util/retry.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace serpentine {

Status ValidateRetryPolicy(const RetryPolicy& policy) {
  if (policy.max_attempts < 1) {
    return InvalidArgumentError("RetryPolicy: max_attempts must be >= 1, got " +
                                std::to_string(policy.max_attempts));
  }
  if (!std::isfinite(policy.initial_backoff_seconds) ||
      policy.initial_backoff_seconds < 0.0) {
    return InvalidArgumentError(
        "RetryPolicy: initial_backoff_seconds must be finite and >= 0, got " +
        std::to_string(policy.initial_backoff_seconds));
  }
  if (!std::isfinite(policy.backoff_multiplier) ||
      policy.backoff_multiplier < 1.0) {
    return InvalidArgumentError(
        "RetryPolicy: backoff_multiplier must be finite and >= 1, got " +
        std::to_string(policy.backoff_multiplier));
  }
  if (std::isnan(policy.max_backoff_seconds) ||
      policy.max_backoff_seconds < 0.0) {
    return InvalidArgumentError(
        "RetryPolicy: max_backoff_seconds must be >= 0 and not NaN, got " +
        std::to_string(policy.max_backoff_seconds));
  }
  if (policy.max_backoff_seconds < policy.initial_backoff_seconds) {
    return InvalidArgumentError(
        "RetryPolicy: max_backoff_seconds (" +
        std::to_string(policy.max_backoff_seconds) +
        ") must be >= initial_backoff_seconds (" +
        std::to_string(policy.initial_backoff_seconds) + ")");
  }
  return OkStatus();
}

double BackoffSeconds(const RetryPolicy& policy, int retry_index) {
  if (retry_index < 0) return 0.0;
  if (policy.initial_backoff_seconds <= 0.0) return 0.0;
  // Guard the exponential against double overflow: pow can reach inf after
  // a few thousand attempts (and 0 * inf is NaN); computing in log space
  // decides "past the ceiling" exactly without ever forming the overflowing
  // product.
  double ceiling = std::max(policy.max_backoff_seconds, 0.0);
  double multiplier = std::max(policy.backoff_multiplier, 1.0);
  if (multiplier > 1.0) {
    double log_backoff = std::log(policy.initial_backoff_seconds) +
                         static_cast<double>(retry_index) *
                             std::log(multiplier);
    if (log_backoff >= std::log(std::max(ceiling, 1e-300))) return ceiling;
  }
  double backoff = policy.initial_backoff_seconds *
                   std::pow(multiplier, static_cast<double>(retry_index));
  if (!std::isfinite(backoff)) return ceiling;
  backoff = std::min(backoff, ceiling);
  return std::max(backoff, 0.0);
}

}  // namespace serpentine

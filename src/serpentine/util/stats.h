// Streaming statistics used by the simulation experiments: the paper reports
// mean and standard deviation of schedule execution times per configuration.
#ifndef SERPENTINE_UTIL_STATS_H_
#define SERPENTINE_UTIL_STATS_H_

#include <cstdint>
#include <limits>

namespace serpentine {

/// Welford-style streaming accumulator: mean, variance, extrema over a
/// sequence of doubles without storing them.
class Accumulator {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator's observations into this one.
  void Merge(const Accumulator& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two observations.
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace serpentine

#endif  // SERPENTINE_UTIL_STATS_H_

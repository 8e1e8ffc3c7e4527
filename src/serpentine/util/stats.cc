#include "serpentine/util/stats.h"

#include <algorithm>
#include <cmath>

namespace serpentine {

void Accumulator::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Accumulator::Merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  int64_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.count_) /
           static_cast<double>(total);
  count_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

}  // namespace serpentine

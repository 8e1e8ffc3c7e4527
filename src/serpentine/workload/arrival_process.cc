#include "serpentine/workload/arrival_process.h"

#include <cmath>

#include "serpentine/util/check.h"

namespace serpentine::workload {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// One exponential draw with the given mean, rand48-exact: the same
/// -log(1 - U) transform sim::GenerateOnlineArrivals uses, so a
/// PoissonProcess at the same rate draws gaps from the same law.
double ExpDraw(Lrand48& rng, double mean_seconds) {
  return -std::log(1.0 - rng.NextDouble()) * mean_seconds;
}

}  // namespace

PoissonProcess::PoissonProcess(double rate_per_hour, int32_t seed)
    : rate_per_hour_(rate_per_hour), rng_(seed) {
  SERPENTINE_CHECK(std::isfinite(rate_per_hour) && rate_per_hour > 0.0);
}

double PoissonProcess::NextSeconds() {
  t_ += ExpDraw(rng_, 3600.0 / rate_per_hour_);
  return t_;
}

DiurnalProcess::DiurnalProcess(double base_rate_per_hour, double amplitude,
                               double period_seconds, int32_t seed)
    : base_rate_per_hour_(base_rate_per_hour),
      amplitude_(amplitude),
      period_seconds_(period_seconds),
      rng_(seed) {
  SERPENTINE_CHECK(std::isfinite(base_rate_per_hour) &&
                   base_rate_per_hour > 0.0);
  SERPENTINE_CHECK(amplitude >= 0.0 && amplitude < 1.0);
  SERPENTINE_CHECK(std::isfinite(period_seconds) && period_seconds > 0.0);
}

double DiurnalProcess::NextSeconds() {
  // Ogata thinning: propose at the peak rate, accept with λ(t)/λ_peak.
  // Every rejected proposal consumes exactly two draws (gap, accept), so
  // the sequence is deterministic per seed.
  double peak = base_rate_per_hour_ * (1.0 + amplitude_);
  double mean_gap = 3600.0 / peak;
  for (;;) {
    t_ += ExpDraw(rng_, mean_gap);
    double lambda = base_rate_per_hour_ *
                    (1.0 + amplitude_ * std::sin(2.0 * kPi * t_ /
                                                 period_seconds_));
    if (rng_.NextDouble() * peak <= lambda) return t_;
  }
}

BurstyProcess::BurstyProcess(double on_rate_per_hour, double mean_on_seconds,
                             double mean_off_seconds, int32_t seed)
    : on_rate_per_hour_(on_rate_per_hour),
      mean_on_seconds_(mean_on_seconds),
      mean_off_seconds_(mean_off_seconds),
      rng_(seed) {
  SERPENTINE_CHECK(std::isfinite(on_rate_per_hour) && on_rate_per_hour > 0.0);
  SERPENTINE_CHECK(std::isfinite(mean_on_seconds) && mean_on_seconds > 0.0);
  SERPENTINE_CHECK(std::isfinite(mean_off_seconds) && mean_off_seconds > 0.0);
  phase_end_ = ExpDraw(rng_, mean_on_seconds_);
}

double BurstyProcess::mean_rate_per_hour() const {
  return on_rate_per_hour_ * mean_on_seconds_ /
         (mean_on_seconds_ + mean_off_seconds_);
}

double BurstyProcess::NextSeconds() {
  for (;;) {
    if (!on_) {
      // OFF dwell: skip straight to the next ON phase.
      t_ = phase_end_;
      on_ = true;
      phase_end_ = t_ + ExpDraw(rng_, mean_on_seconds_);
    }
    double gap = ExpDraw(rng_, 3600.0 / on_rate_per_hour_);
    if (t_ + gap <= phase_end_) {
      t_ += gap;
      return t_;
    }
    // The candidate falls past the ON phase; the memoryless property lets
    // us discard it and redraw inside the next ON phase.
    t_ = phase_end_;
    on_ = false;
    phase_end_ = t_ + ExpDraw(rng_, mean_off_seconds_);
  }
}

StatusOr<std::unique_ptr<ArrivalProcess>> MakeArrivalProcess(
    const std::string& name, double rate_per_hour, int32_t seed) {
  if (!std::isfinite(rate_per_hour) || rate_per_hour <= 0.0) {
    return InvalidArgumentError(
        "MakeArrivalProcess: rate_per_hour must be finite and > 0, got " +
        std::to_string(rate_per_hour));
  }
  if (name == "poisson") {
    return std::unique_ptr<ArrivalProcess>(
        new PoissonProcess(rate_per_hour, seed));
  }
  if (name == "diurnal") {
    return std::unique_ptr<ArrivalProcess>(new DiurnalProcess(
        rate_per_hour, /*amplitude=*/0.8, /*period_seconds=*/86400.0, seed));
  }
  if (name == "bursty") {
    // ON at 4× the mean rate with equal-length dwells would give 2× the
    // mean; matching dwell ratio 1:3 makes the long-run mean come out to
    // rate_per_hour exactly: 4r · 1/(1+3) = r.
    return std::unique_ptr<ArrivalProcess>(
        new BurstyProcess(4.0 * rate_per_hour, /*mean_on_seconds=*/900.0,
                          /*mean_off_seconds=*/2700.0, seed));
  }
  return InvalidArgumentError(
      "MakeArrivalProcess: unknown process '" + name +
      "' (expected poisson, diurnal, or bursty)");
}

}  // namespace serpentine::workload

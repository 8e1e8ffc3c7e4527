// Open-loop arrival processes for the stress harness. The online server
// bakes a Poisson stream into its own rand48 draws
// (sim::GenerateOnlineArrivals); the stress layer needs richer temporal
// shapes — diurnal load swings and bursty on/off sources — emitted
// *incrementally*, so a million-request run never materializes a
// million-entry arrival vector up front.
//
// Every process is deterministic per seed (bit-exact rand48 draws), emits
// strictly increasing times via NextSeconds(), and reports its long-run
// mean rate so the harness can convert an offered-load multiplier into
// process parameters. Validation mirrors the sim configs: constructors are
// given pre-validated parameters; the factory rejects garbage with a
// descriptive Status.
#ifndef SERPENTINE_WORKLOAD_ARRIVAL_PROCESS_H_
#define SERPENTINE_WORKLOAD_ARRIVAL_PROCESS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "serpentine/util/lrand48.h"
#include "serpentine/util/statusor.h"

namespace serpentine::workload {

/// One open-loop arrival clock: each NextSeconds() call returns the next
/// arrival's absolute virtual time, monotonically increasing from 0.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Absolute time (seconds) of the next arrival; strictly greater than
  /// the previous return value.
  virtual double NextSeconds() = 0;

  /// Stable process name for bench labels and JSON extras.
  virtual const char* name() const = 0;

  /// Long-run mean arrival rate (requests per hour).
  virtual double mean_rate_per_hour() const = 0;
};

/// Homogeneous Poisson process: i.i.d. exponential gaps — the queue
/// simulator's arrival law, behind the incremental interface.
class PoissonProcess : public ArrivalProcess {
 public:
  PoissonProcess(double rate_per_hour, int32_t seed);
  double NextSeconds() override;
  const char* name() const override { return "poisson"; }
  double mean_rate_per_hour() const override { return rate_per_hour_; }

 private:
  double rate_per_hour_;
  double t_ = 0.0;
  Lrand48 rng_;
};

/// Sinusoidal diurnal load: a nonhomogeneous Poisson process with
/// λ(t) = base · (1 + amplitude · sin(2πt / period)), realized by
/// thinning a homogeneous process at the peak rate. amplitude in [0, 1);
/// the long-run mean rate is exactly `base` (the sine integrates to 0).
class DiurnalProcess : public ArrivalProcess {
 public:
  DiurnalProcess(double base_rate_per_hour, double amplitude,
                 double period_seconds, int32_t seed);
  double NextSeconds() override;
  const char* name() const override { return "diurnal"; }
  double mean_rate_per_hour() const override { return base_rate_per_hour_; }

 private:
  double base_rate_per_hour_;
  double amplitude_;
  double period_seconds_;
  double t_ = 0.0;
  Lrand48 rng_;
};

/// Bursty on/off source: a two-state Markov-modulated Poisson process.
/// In ON states arrivals are Poisson at `on_rate`; OFF states emit
/// nothing. Dwell times are exponential with the given means, so the
/// long-run mean rate is on_rate · E[on] / (E[on] + E[off]).
class BurstyProcess : public ArrivalProcess {
 public:
  BurstyProcess(double on_rate_per_hour, double mean_on_seconds,
                double mean_off_seconds, int32_t seed);
  double NextSeconds() override;
  const char* name() const override { return "bursty"; }
  double mean_rate_per_hour() const override;

 private:
  double on_rate_per_hour_;
  double mean_on_seconds_;
  double mean_off_seconds_;
  double t_ = 0.0;
  bool on_ = true;
  double phase_end_ = 0.0;  ///< end of the current ON/OFF dwell
  Lrand48 rng_;
};

/// Builds a process by name ("poisson", "diurnal", "bursty") scaled so its
/// long-run mean rate is `rate_per_hour`; diurnal/bursty shape parameters
/// take repo-wide defaults (diurnal: amplitude 0.8, 24 h period; bursty:
/// ON at 4× the mean with matching OFF dwell). Rejects unknown names and
/// non-positive/non-finite rates with InvalidArgument.
StatusOr<std::unique_ptr<ArrivalProcess>> MakeArrivalProcess(
    const std::string& name, double rate_per_hour, int32_t seed);

}  // namespace serpentine::workload

#endif  // SERPENTINE_WORKLOAD_ARRIVAL_PROCESS_H_

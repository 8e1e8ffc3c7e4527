#include "serpentine/drive/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>

#include "serpentine/util/check.h"
#include "serpentine/util/parse.h"
#include "serpentine/util/status.h"

namespace serpentine::drive {

bool FaultProfile::any() const {
  return transient_read_rate > 0 || locate_overshoot_rate > 0 ||
         drive_reset_rate > 0 || permanent_error_rate > 0;
}

FaultProfile FaultProfile::Scaled(double factor) const {
  auto scale = [factor](double rate) {
    return std::clamp(rate * factor, 0.0, 1.0);
  };
  FaultProfile p = *this;
  p.transient_read_rate = scale(transient_read_rate);
  p.locate_overshoot_rate = scale(locate_overshoot_rate);
  p.drive_reset_rate = scale(drive_reset_rate);
  p.permanent_error_rate = scale(permanent_error_rate);
  return p;
}

FaultProfile FaultProfile::None() { return FaultProfile{}; }

FaultProfile FaultProfile::Light() {
  FaultProfile p;
  p.transient_read_rate = 0.01;
  p.locate_overshoot_rate = 0.005;
  p.drive_reset_rate = 0.0005;
  p.permanent_error_rate = 0.0002;
  return p;
}

FaultProfile FaultProfile::Heavy() {
  FaultProfile p;
  p.transient_read_rate = 0.08;
  p.locate_overshoot_rate = 0.05;
  p.drive_reset_rate = 0.01;
  p.permanent_error_rate = 0.005;
  return p;
}

serpentine::Status ValidateFaultProfile(const FaultProfile& profile) {
  auto check_rate = [](double rate, const char* name) -> Status {
    if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
      return InvalidArgumentError(
          std::string("FaultProfile: ") + name +
          " must be a probability in [0, 1], got " + std::to_string(rate));
    }
    return OkStatus();
  };
  auto check_timing = [](double seconds, const char* name) -> Status {
    if (!std::isfinite(seconds) || seconds < 0.0) {
      return InvalidArgumentError(
          std::string("FaultProfile: ") + name +
          " must be finite and >= 0 seconds, got " + std::to_string(seconds));
    }
    return OkStatus();
  };
  SERPENTINE_RETURN_IF_ERROR(
      check_rate(profile.transient_read_rate, "transient_read_rate"));
  SERPENTINE_RETURN_IF_ERROR(
      check_rate(profile.locate_overshoot_rate, "locate_overshoot_rate"));
  SERPENTINE_RETURN_IF_ERROR(
      check_rate(profile.drive_reset_rate, "drive_reset_rate"));
  SERPENTINE_RETURN_IF_ERROR(
      check_rate(profile.permanent_error_rate, "permanent_error_rate"));
  SERPENTINE_RETURN_IF_ERROR(check_timing(profile.overshoot_settle_seconds,
                                          "overshoot_settle_seconds"));
  SERPENTINE_RETURN_IF_ERROR(check_timing(profile.reset_seconds,
                                          "reset_seconds"));
  SERPENTINE_RETURN_IF_ERROR(check_timing(profile.reread_overhead_seconds,
                                          "reread_overhead_seconds"));
  return OkStatus();
}

serpentine::StatusOr<FaultProfile> LoadFaultProfile(const std::string& spec) {
  if (spec == "none") return FaultProfile::None();
  if (spec == "light") return FaultProfile::Light();
  if (spec == "heavy") return FaultProfile::Heavy();

  std::ifstream in(spec);
  if (!in) {
    return NotFoundError("fault profile is not a known name "
                         "(none|light|heavy) or a readable file: " +
                         spec);
  }
  FaultProfile p;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    // Trim whitespace.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    size_t last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError(spec + ":" + std::to_string(lineno) +
                                  ": expected key=value, got '" + line + "'");
    }
    std::string key = line.substr(0, eq);
    key.erase(key.find_last_not_of(" \t") + 1);
    std::string value_text = line.substr(eq + 1);
    value_text.erase(0, value_text.find_first_not_of(" \t"));
    double value = 0.0;
    if (!ParseFiniteDouble(value_text, &value)) {
      return InvalidArgumentError(spec + ":" + std::to_string(lineno) +
                                  ": bad number '" + value_text + "'");
    }
    if (key == "transient_read_rate") {
      p.transient_read_rate = value;
    } else if (key == "locate_overshoot_rate") {
      p.locate_overshoot_rate = value;
    } else if (key == "drive_reset_rate") {
      p.drive_reset_rate = value;
    } else if (key == "permanent_error_rate") {
      p.permanent_error_rate = value;
    } else if (key == "overshoot_settle_seconds") {
      p.overshoot_settle_seconds = value;
    } else if (key == "reset_seconds") {
      p.reset_seconds = value;
    } else if (key == "reread_overhead_seconds") {
      p.reread_overhead_seconds = value;
    } else if (key == "seed") {
      int64_t seed = 0;
      if (!ParseInt64(value_text, std::numeric_limits<int32_t>::min(),
                      std::numeric_limits<int32_t>::max(), &seed)) {
        return InvalidArgumentError(spec + ":" + std::to_string(lineno) +
                                    ": seed must be a 32-bit integer, got '" +
                                    value_text + "'");
      }
      p.seed = static_cast<int32_t>(seed);
    } else {
      return InvalidArgumentError(spec + ":" + std::to_string(lineno) +
                                  ": unknown fault profile key '" + key +
                                  "'");
    }
  }
  Status valid = ValidateFaultProfile(p);
  if (!valid.ok()) return AnnotateStatus(valid, spec);
  return p;
}

FaultInjector::FaultInjector(const FaultProfile& profile)
    : profile_(profile), rng_(profile.seed) {}

void FaultInjector::Reseed(int32_t seed) { rng_.Seed(seed); }

void FaultInjector::ReseedState(uint64_t state) { rng_.SeedState(state); }

FaultType FaultInjector::DrawLocateFault() {
  double u = rng_.NextDouble();
  if (u < profile_.drive_reset_rate) {
    ++faults_injected_;
    return FaultType::kDriveReset;
  }
  if (u < profile_.drive_reset_rate + profile_.locate_overshoot_rate) {
    ++faults_injected_;
    return FaultType::kLocateOvershoot;
  }
  return FaultType::kNone;
}

FaultType FaultInjector::DrawReadFault(tape::SegmentId segment) {
  // Sticky first: a known-bad segment fails without consuming a draw, so
  // retrying it cannot perturb the fault stream of later operations.
  if (IsBadSegment(segment)) return FaultType::kPermanentMediaError;
  double u = rng_.NextDouble();
  if (u < profile_.permanent_error_rate) {
    bad_segments_.insert(segment);
    ++faults_injected_;
    return FaultType::kPermanentMediaError;
  }
  if (u < profile_.permanent_error_rate + profile_.transient_read_rate) {
    ++faults_injected_;
    return FaultType::kTransientReadError;
  }
  return FaultType::kNone;
}

tape::SegmentId FaultInjector::OvershootTarget(
    const tape::TapeGeometry& geometry, tape::SegmentId dst) {
  // Settle within roughly one reading section of the destination — the
  // regime the paper flags as under-modeled near track ends.
  int64_t span = std::max<int64_t>(
      1, geometry.total_segments() /
             (static_cast<int64_t>(geometry.num_tracks()) *
              geometry.sections_per_track()));
  double u = rng_.NextDouble() * 2.0 - 1.0;  // one draw: magnitude + sign
  int64_t offset = static_cast<int64_t>(u * static_cast<double>(span));
  if (offset == 0) offset = u < 0 ? -1 : 1;
  tape::SegmentId landed = std::clamp<tape::SegmentId>(
      dst + offset, 0, geometry.total_segments() - 1);
  if (landed == dst) landed = dst > 0 ? dst - 1 : dst + 1;
  return landed;
}

}  // namespace serpentine::drive

#include "serpentine/store/tape_library.h"

#include <algorithm>
#include <string>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/util/check.h"

namespace serpentine::store {
namespace {

// Exchange timings of a small DLT autoloader, in seconds.
constexpr double kRobotExchangeSeconds = 15.0;  // arm travel + grip, per move
constexpr double kLoadSeconds = 40.0;    // thread the tape, calibrate
constexpr double kUnloadSeconds = 20.0;  // after the mandatory rewind

}  // namespace

TapeLibrary::TapeLibrary(const tape::TapeParams& params, int cartridges,
                         tape::DriveTimings timings, int32_t first_seed,
                         int drives) {
  SERPENTINE_CHECK_GT(cartridges, 0);
  SERPENTINE_CHECK_GT(drives, 0);
  models_.reserve(cartridges);
  for (int i = 0; i < cartridges; ++i) {
    models_.push_back(std::make_unique<tape::Dlt4000LocateModel>(
        tape::TapeGeometry::Generate(params, first_seed + i), timings));
  }
  bays_ = std::vector<DriveBay>(drives);
}

TapeLibrary::TapeLibrary(
    std::vector<std::unique_ptr<tape::LocateModel>> models, int drives)
    : models_(std::move(models)) {
  SERPENTINE_CHECK_GT(num_cartridges(), 0);
  SERPENTINE_CHECK_GT(drives, 0);
  for (const auto& m : models_) SERPENTINE_CHECK(m != nullptr);
  bays_ = std::vector<DriveBay>(drives);
}

const tape::LocateModel& TapeLibrary::model(int tape) const {
  SERPENTINE_CHECK_GE(tape, 0);
  SERPENTINE_CHECK_LT(tape, num_cartridges());
  return *models_[tape];
}

int TapeLibrary::CheckDrive(int d) const {
  SERPENTINE_CHECK_GE(d, 0);
  SERPENTINE_CHECK_LT(d, num_drives());
  return d;
}

double TapeLibrary::now() const {
  double t = 0.0;
  for (const DriveBay& b : bays_) t = std::max(t, b.clock_seconds);
  return t;
}

double TapeLibrary::busy_seconds() const {
  double t = 0.0;
  for (const DriveBay& b : bays_) t += b.busy_seconds;
  return t;
}

serpentine::Status TapeLibrary::RequireMounted(int d) const {
  if (bay(d).mounted < 0) {
    return FailedPreconditionError(
        "no cartridge mounted in drive " + std::to_string(d) +
        " (library holds " + std::to_string(num_cartridges()) +
        " cartridges; call Mount first)");
  }
  return OkStatus();
}

serpentine::Status TapeLibrary::ValidateTape(int tape) const {
  if (tape < 0 || tape >= num_cartridges()) {
    return InvalidArgumentError("cartridge " + std::to_string(tape) +
                                " out of range [0, " +
                                std::to_string(num_cartridges()) + ")");
  }
  return OkStatus();
}

int TapeLibrary::HolderOf(int tape) const {
  for (int d = 0; d < num_drives(); ++d) {
    if (bays_[d].mounted == tape) return d;
  }
  return -1;
}

void TapeLibrary::WaitForRobot(DriveBay& b) {
  if (robot_free_at_ > b.clock_seconds) {
    // Queued behind another drive's exchange: stall this drive's clock to
    // the robot's release time. Waiting is not busy time.
    robot_wait_seconds_ += robot_free_at_ - b.clock_seconds;
    b.clock_seconds = robot_free_at_;
  }
}

void TapeLibrary::ReleaseRobot(const DriveBay& b) {
  robot_free_at_ = b.clock_seconds;
  ++robot_exchanges_;
}

serpentine::Status TapeLibrary::Mount(int d, int tape) {
  SERPENTINE_RETURN_IF_ERROR(AnnotateStatus(ValidateTape(tape), "Mount"));
  DriveBay& b = bay(d);
  if (b.mounted == tape) return OkStatus();
  int holder = HolderOf(tape);
  if (holder >= 0) {
    return FailedPreconditionError(
        "Mount: cartridge " + std::to_string(tape) +
        " is already mounted in drive " + std::to_string(holder));
  }

  if (b.mounted >= 0) SERPENTINE_RETURN_IF_ERROR(Unmount(d));

  // The robot exchange + load is one virtual "mount" span in the library
  // category, and one robot occupation: a concurrent exchange on another
  // drive queues until this one is done.
  WaitForRobot(b);
  double mount_start = b.clock_seconds;
  Spend(b, kRobotExchangeSeconds + kLoadSeconds);
  b.mounted = tape;
  b.head = std::make_unique<Head>(*models_[tape], &b);
  ++total_mounts_;
  ReleaseRobot(b);
  obs::IncrementCounter("library.mounts");
  obs::TraceComplete(obs::TraceClock::kVirtual, "library",
                     "mount:" + std::to_string(tape), mount_start,
                     b.clock_seconds);
  return OkStatus();
}

serpentine::Status TapeLibrary::Unmount(int d) {
  SERPENTINE_RETURN_IF_ERROR(AnnotateStatus(RequireMounted(d), "Unmount"));
  DriveBay& b = bay(d);
  double unmount_start = b.clock_seconds;
  int tape = b.mounted;
  // Single-reel cartridges must rewind to eject (paper footnote 5). The
  // rewind is drive-local, and the head charges it; only the unload +
  // slot return occupies the robot.
  b.head->Rewind();
  WaitForRobot(b);
  Spend(b, kUnloadSeconds + kRobotExchangeSeconds);
  ReleaseRobot(b);
  b.mounted = -1;
  b.head.reset();
  obs::IncrementCounter("library.unmounts");
  obs::TraceComplete(obs::TraceClock::kVirtual, "library",
                     "unmount:" + std::to_string(tape), unmount_start,
                     b.clock_seconds);
  return OkStatus();
}

void TapeLibrary::Idle(int d, double seconds) {
  SERPENTINE_CHECK_GE(seconds, 0.0);
  bay(d).clock_seconds += seconds;
}

}  // namespace serpentine::store

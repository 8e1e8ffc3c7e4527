// A robotic tape library: N drives, many cartridges, ONE robot arm, and
// per-drive virtual clocks. Mount/unmount semantics follow the paper:
// single-reel cartridges (DLT, IBM 3590) must rewind before ejecting
// (footnote 5), so every fresh mount starts at the beginning of tape — the
// Fig 5 scenario. Drives read independently (each bay has its own clock),
// but every cartridge exchange is serialized through the shared robot: a
// drive whose exchange request arrives while the robot is busy waits until
// the robot frees up (the wait is accounted separately from busy time).
#ifndef SERPENTINE_STORE_TAPE_LIBRARY_H_
#define SERPENTINE_STORE_TAPE_LIBRARY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "serpentine/drive/model_drive.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/status.h"

namespace serpentine::store {

/// N drives + M cartridges + one robot, with per-drive virtual clocks.
/// Exchanges take a small DLT autoloader's times: 15 s of robot motion
/// per cartridge move, 40 s to load and 20 s to unload.
///
/// All motion advances the acting drive's clock according to each
/// cartridge's locate-time model: Mount and Unmount charge the exchange
/// and the rewind, and every op through mounted_drive() charges its own
/// time. A bay's clock is therefore its exchanges, plus its head's ops,
/// plus Idle(). The single-drive methods (no drive index) operate on
/// drive 0, preserving the historical one-drive API; a library constructed
/// with `drives == 1` behaves exactly as it always has.
class TapeLibrary {
 public:
  /// Builds a library of `cartridges` tapes in one geometry family, each
  /// generated from consecutive seeds, sharing one drive timing profile.
  TapeLibrary(const tape::TapeParams& params, int cartridges,
              tape::DriveTimings timings, int32_t first_seed = 1,
              int drives = 1);

  /// Builds a library over caller-supplied models — one per cartridge, any
  /// mix of geometry families (DLT serpentine next to helical, say).
  TapeLibrary(std::vector<std::unique_ptr<tape::LocateModel>> models,
              int drives = 1);

  int num_cartridges() const { return static_cast<int>(models_.size()); }
  int num_drives() const { return static_cast<int>(bays_.size()); }

  /// The locate model (and geometry) of cartridge `tape`.
  const tape::LocateModel& model(int tape) const;

  /// Index of the cartridge mounted in drive `d`, or -1.
  int mounted(int d) const { return bay(d).mounted; }
  int mounted() const { return mounted(0); }

  /// Drive `d`'s mounted cartridge as a stateful drive::Drive (head
  /// position and per-op timing), or nullptr when that bay is empty.
  /// Callers may stack decorators on it or hand it to an executor. Each
  /// op adds its time to bay `d`'s clock and busy time. The head CHECKs
  /// its arguments (a segment on the tape), so callers validate them.
  drive::Drive* mounted_drive(int d) { return bays_[CheckDrive(d)].head.get(); }
  drive::Drive* mounted_drive() { return mounted_drive(0); }

  /// Current head position on drive `d`'s mounted tape.
  tape::SegmentId head_position(int d) const {
    const DriveBay& b = bay(d);
    return b.head != nullptr ? b.head->Position() : 0;
  }
  tape::SegmentId head_position() const { return head_position(0); }

  /// Drive `d`'s virtual time in seconds since construction.
  double now(int d) const { return bay(d).clock_seconds; }
  /// Library-wide virtual time: the most advanced drive clock.
  double now() const;

  /// Mounts cartridge `tape` into drive `d` (unmounting that drive's
  /// current cartridge first: rewind, unload, robot exchange, load). No-op
  /// if already mounted there; FailedPrecondition if another drive holds
  /// it. The head is at segment 0 after a fresh mount. The robot section
  /// (exchange + load) is serialized against the other drives' exchanges:
  /// if the robot is mid-exchange elsewhere, drive `d` first waits
  /// (robot_wait_seconds).
  serpentine::Status Mount(int d, int tape);
  serpentine::Status Mount(int tape) { return Mount(0, tape); }

  /// Rewinds, unloads, and returns drive `d`'s cartridge to its slot.
  serpentine::Status Unmount(int d);
  serpentine::Status Unmount() { return Unmount(0); }

  /// Advances drive `d`'s clock without drive activity (idle / host time).
  void Idle(int d, double seconds);
  void Idle(double seconds) { Idle(0, seconds); }

  /// Lifetime counters (library-wide).
  int64_t total_mounts() const { return total_mounts_; }
  /// Completed robot occupations (mount and unmount exchanges).
  int64_t robot_exchanges() const { return robot_exchanges_; }
  /// Seconds drives spent queued for the shared robot (not busy time).
  double robot_wait_seconds() const { return robot_wait_seconds_; }
  double busy_seconds(int d) const { return bay(d).busy_seconds; }
  /// Summed busy seconds across all drives.
  double busy_seconds() const;

 private:
  /// Neither copyable nor movable: a mounted Head points at its bay.
  struct DriveBay {
    DriveBay() = default;
    DriveBay(const DriveBay&) = delete;
    DriveBay& operator=(const DriveBay&) = delete;

    int mounted = -1;
    /// Head of the mounted cartridge; null while unmounted. Fresh mounts
    /// start at BOT (single-reel cartridges eject rewound).
    std::unique_ptr<drive::ModelDrive> head;
    double clock_seconds = 0.0;
    double busy_seconds = 0.0;
  };

  /// A bay's head: a ModelDrive that adds each op's time to its bay's
  /// clock and busy time. Moving the library moves bays_'s buffer, not
  /// the bays, so the pointer survives the library being moved.
  class Head : public drive::ModelDrive {
   public:
    Head(const tape::LocateModel& model, DriveBay* bay)
        : ModelDrive(model), bay_(bay) {}

    drive::OpResult Locate(tape::SegmentId dst) override {
      return Charge(ModelDrive::Locate(dst));
    }
    drive::OpResult ReadSegments(tape::SegmentId from,
                                 tape::SegmentId to) override {
      return Charge(ModelDrive::ReadSegments(from, to));
    }
    drive::OpResult Rewind() override { return Charge(ModelDrive::Rewind()); }

   private:
    drive::OpResult Charge(drive::OpResult op) {
      Spend(*bay_, op.times.total());
      return op;
    }

    DriveBay* bay_;
  };

  int CheckDrive(int d) const;
  const DriveBay& bay(int d) const { return bays_[CheckDrive(d)]; }
  DriveBay& bay(int d) { return bays_[CheckDrive(d)]; }
  serpentine::Status RequireMounted(int d) const;
  serpentine::Status ValidateTape(int tape) const;
  /// Drive currently holding cartridge `tape`, or -1.
  int HolderOf(int tape) const;
  static void Spend(DriveBay& b, double seconds) {
    b.clock_seconds += seconds;
    b.busy_seconds += seconds;
  }
  /// Stalls drive `d` until the shared robot is free; the stall is
  /// recorded as robot wait, not busy time. With one drive the robot is
  /// never contended, so this is a no-op.
  void WaitForRobot(DriveBay& b);
  /// Releases the robot at drive `b`'s current clock.
  void ReleaseRobot(const DriveBay& b);

  std::vector<std::unique_ptr<tape::LocateModel>> models_;
  std::vector<DriveBay> bays_;
  /// Virtual time at which the shared robot finishes its current exchange.
  double robot_free_at_ = 0.0;
  double robot_wait_seconds_ = 0.0;
  int64_t robot_exchanges_ = 0;
  int64_t total_mounts_ = 0;
};

}  // namespace serpentine::store

#endif  // SERPENTINE_STORE_TAPE_LIBRARY_H_

#include "serpentine/drive/drive.h"

namespace serpentine::drive {

const char* OpStatusName(OpStatus s) {
  switch (s) {
    case OpStatus::kOk:
      return "ok";
    case OpStatus::kTransientReadError:
      return "transient-read";
    case OpStatus::kLocateOvershoot:
      return "locate-overshoot";
    case OpStatus::kDriveReset:
      return "drive-reset";
    case OpStatus::kPermanentMediaError:
      return "permanent-media";
    case OpStatus::kCircuitOpen:
      return "circuit-open";
  }
  return "unknown";
}

}  // namespace serpentine::drive

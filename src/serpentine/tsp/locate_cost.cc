#include "serpentine/tsp/locate_cost.h"

#include <algorithm>
#include <typeinfo>
#include <utility>

#include "serpentine/tape/geometry.h"
#include "serpentine/tape/params.h"
#include "serpentine/util/check.h"

namespace serpentine::tsp {

LocateCostSoA::LocateCostSoA(const tape::LocateModel& model,
                             std::vector<tape::SegmentId> out_positions,
                             std::vector<tape::SegmentId> in_positions)
    : n_(static_cast<int>(out_positions.size())),
      model_(&model),
      out_seg_(std::move(out_positions)),
      in_seg_(std::move(in_positions)) {
  SERPENTINE_CHECK_EQ(out_seg_.size(), in_seg_.size());
  // The kernel replays Dlt4000LocateModel's arithmetic, so it is only safe
  // for exactly that type — PerturbedLocateModel and PhysicalDrive wrap a
  // Dlt4000 model but answer differently, and they are distinct types.
  fast_ = typeid(model) == typeid(tape::Dlt4000LocateModel);
  if (!fast_) return;

  const auto& dlt = static_cast<const tape::Dlt4000LocateModel&>(model);
  const tape::TapeGeometry& g = dlt.geometry();
  const tape::DriveTimings& t = dlt.timings();
  read_seconds_per_section_ = t.read_seconds_per_section;
  scan_seconds_per_section_ = t.scan_seconds_per_section;
  scan_overhead_seconds_ = t.scan_overhead_seconds;
  track_switch_seconds_ = t.track_switch_seconds;
  reversal_penalty_seconds_ = t.reversal_penalty_seconds;

  out_track_.resize(n_);
  in_track_.resize(n_);
  out_rsec_.resize(n_);
  in_rsec_.resize(n_);
  out_ppos_.resize(n_);
  in_ppos_.resize(n_);
  in_kp_ppos_.resize(n_);
  in_kp_read_seconds_.resize(n_);
  out_forward_.resize(n_);
  for (int c = 0; c < n_; ++c) {
    const tape::TapeGeometry::Decoded src = g.Decode(out_seg_[c]);
    out_track_[c] = src.track;
    out_rsec_[c] = src.reading_section;
    out_ppos_[c] = src.position;
    out_forward_[c] = g.IsForwardTrack(src.track) ? 1 : 0;

    const tape::TapeGeometry::Decoded dst = g.Decode(in_seg_[c]);
    in_track_[c] = dst.track;
    in_rsec_[c] = dst.reading_section;
    in_ppos_[c] = dst.position;
    // Key point two before the destination, clamped to the beginning of
    // the track (locate_model.cc PlanLocate), and its read-forward leg.
    const int r_kp = std::max(0, dst.reading_section - 1);
    const double p_kp = g.KeyPointPhysical(dst.track, r_kp);
    in_kp_ppos_[c] = p_kp;
    in_kp_read_seconds_[c] =
        std::abs(dst.position - p_kp) * read_seconds_per_section_;
  }
}

}  // namespace serpentine::tsp

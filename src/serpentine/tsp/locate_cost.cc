#include "serpentine/tsp/locate_cost.h"

#include <algorithm>
#include <bit>
#include <typeinfo>
#include <utility>

#include "serpentine/util/check.h"

namespace serpentine::tsp {
namespace {

constexpr uint64_t kEmptyKey = ~uint64_t{0};

uint64_t PairKey(tape::SegmentId from, tape::SegmentId to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

uint64_t Mix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

LocateCostSoA::LocateCostSoA(const tape::LocateModel& model,
                             std::vector<tape::SegmentId> out_positions,
                             std::vector<tape::SegmentId> in_positions)
    : n_(static_cast<int>(out_positions.size())),
      model_(&model),
      out_seg_(std::move(out_positions)),
      in_seg_(std::move(in_positions)) {
  SERPENTINE_CHECK_EQ(out_seg_.size(), in_seg_.size());
  // The kernel is Dlt4000LocateModel's own rule, so it is only right for
  // exactly that type: PerturbedLocateModel and PhysicalDrive wrap a
  // Dlt4000 model but answer differently, and they are distinct types.
  if (typeid(model) != typeid(tape::Dlt4000LocateModel)) return;
  dlt_ = static_cast<const tape::Dlt4000LocateModel*>(&model);
  out_.reserve(n_);
  in_.reserve(n_);
  for (int c = 0; c < n_; ++c) {
    out_.push_back(dlt_->EndpointOf(out_seg_[c]));
    in_.push_back(dlt_->EndpointOf(in_seg_[c]));
  }
}

double LocateCostSoA::cost(int i, int j) const {
  if (i == j || j == 0) return kInfiniteCost;
  return LocateSeconds(i, j);
}

double LocateCostSoA::Remembered(int i, int j) const {
  if (memo_.empty()) {
    // Room for ~16 pairs per city at a load factor of at most one half.
    memo_.assign(std::bit_ceil(static_cast<uint64_t>(std::max(n_, 4)) * 32),
                 Slot{kEmptyKey, 0.0});
  }
  const uint64_t key = PairKey(out_seg_[i], in_seg_[j]);
  uint64_t mask = memo_.size() - 1;
  uint64_t at = Mix(key) & mask;
  while (memo_[at].key != kEmptyKey) {
    if (memo_[at].key == key) return memo_[at].seconds;
    at = (at + 1) & mask;
  }
  const double seconds = model_->LocateSeconds(out_seg_[i], in_seg_[j]);
  memo_[at] = Slot{key, seconds};
  if (++memo_entries_ * 2 > static_cast<int64_t>(memo_.size())) {
    std::vector<Slot> old = std::move(memo_);
    memo_.assign(old.size() * 2, Slot{kEmptyKey, 0.0});
    mask = memo_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      at = Mix(s.key) & mask;
      while (memo_[at].key != kEmptyKey) at = (at + 1) & mask;
      memo_[at] = s;
    }
  }
  return seconds;
}

}  // namespace serpentine::tsp

#include "serpentine/drive/metered_drive.h"

#include <cstdio>

#include "serpentine/obs/metrics.h"

namespace serpentine::drive {

std::string DriveMetrics::ToJson(const std::string& label) const {
  char buf[512];
  std::string out = "{";
  std::snprintf(
      buf, sizeof(buf),
      "\"label\":\"%s\",\"locates\":%lld,\"reads\":%lld,\"scans\":%lld,"
      "\"deliveries\":%lld,\"rewinds\":%lld,\"segments_read\":%lld,"
      "\"locate_seconds\":%.6f,\"read_seconds\":%.6f,"
      "\"rewind_seconds\":%.6f,\"recovery_seconds\":%.6f,"
      "\"transient_read_errors\":%lld,\"locate_overshoots\":%lld,"
      "\"drive_resets\":%lld,\"permanent_errors\":%lld",
      label.c_str(), static_cast<long long>(locates),
      static_cast<long long>(reads), static_cast<long long>(scans),
      static_cast<long long>(deliveries), static_cast<long long>(rewinds),
      static_cast<long long>(segments_read), locate_seconds, read_seconds,
      rewind_seconds, recovery_seconds,
      static_cast<long long>(transient_read_errors),
      static_cast<long long>(locate_overshoots),
      static_cast<long long>(drive_resets),
      static_cast<long long>(permanent_errors));
  out += buf;
  out += ",\"locate_latency\":[";
  bool first = true;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (locate_latency.bucket(b) == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s[%.6g,%lld]", first ? "" : ",",
                  LatencyHistogram::BucketFloorSeconds(b),
                  static_cast<long long>(locate_latency.bucket(b)));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

void DriveMetrics::PublishTo(obs::MetricsRegistry& registry,
                             const std::string& prefix) const {
  registry.counter(prefix + ".locates").Increment(locates);
  registry.counter(prefix + ".reads").Increment(reads);
  registry.counter(prefix + ".scans").Increment(scans);
  registry.counter(prefix + ".deliveries").Increment(deliveries);
  registry.counter(prefix + ".rewinds").Increment(rewinds);
  registry.counter(prefix + ".segments_read").Increment(segments_read);
  registry.counter(prefix + ".transient_read_errors")
      .Increment(transient_read_errors);
  registry.counter(prefix + ".locate_overshoots").Increment(locate_overshoots);
  registry.counter(prefix + ".drive_resets").Increment(drive_resets);
  registry.counter(prefix + ".permanent_errors").Increment(permanent_errors);
  registry.gauge(prefix + ".locate_seconds").Set(locate_seconds);
  registry.gauge(prefix + ".read_seconds").Set(read_seconds);
  registry.gauge(prefix + ".rewind_seconds").Set(rewind_seconds);
  registry.gauge(prefix + ".recovery_seconds").Set(recovery_seconds);
  registry.histogram(prefix + ".locate_latency").Merge(locate_latency);
  registry.histogram(prefix + ".read_latency").Merge(read_latency);
}

void MeteredDrive::Observe(const OpResult& r) {
  metrics_.recovery_seconds += r.times.recovery_seconds;
  metrics_.transient_read_errors += r.transient_read_errors;
  switch (r.status) {
    case OpStatus::kOk:
      break;
    case OpStatus::kTransientReadError:
      ++metrics_.transient_read_errors;
      break;
    case OpStatus::kLocateOvershoot:
      ++metrics_.locate_overshoots;
      break;
    case OpStatus::kDriveReset:
      ++metrics_.drive_resets;
      break;
    case OpStatus::kPermanentMediaError:
      ++metrics_.permanent_errors;
      break;
    case OpStatus::kCircuitOpen:
      // A breaker refusal is not a drive fault; its charged wait already
      // landed in recovery_seconds above.
      break;
  }
}

OpResult MeteredDrive::Locate(tape::SegmentId dst) {
  OpResult r = inner_->Locate(dst);
  ++metrics_.locates;
  metrics_.locate_seconds += r.times.locate_seconds;
  metrics_.locate_latency.Add(r.times.total());
  Observe(r);
  return r;
}

OpResult MeteredDrive::ReadSegments(tape::SegmentId from, tape::SegmentId to) {
  OpResult r = inner_->ReadSegments(from, to);
  ++metrics_.reads;
  metrics_.read_seconds += r.times.read_seconds;
  metrics_.segments_read += r.segments_read;
  metrics_.read_latency.Add(r.times.total());
  Observe(r);
  return r;
}

OpResult MeteredDrive::ScanSegments(tape::SegmentId from, tape::SegmentId to) {
  OpResult r = inner_->ScanSegments(from, to);
  ++metrics_.scans;
  metrics_.read_seconds += r.times.read_seconds;
  metrics_.segments_read += r.segments_read;
  metrics_.read_latency.Add(r.times.total());
  Observe(r);
  return r;
}

OpResult MeteredDrive::DeliverSpan(tape::SegmentId from, tape::SegmentId to) {
  OpResult r = inner_->DeliverSpan(from, to);
  ++metrics_.deliveries;
  Observe(r);
  return r;
}

OpResult MeteredDrive::Rewind() {
  OpResult r = inner_->Rewind();
  ++metrics_.rewinds;
  metrics_.rewind_seconds += r.times.rewind_seconds;
  Observe(r);
  return r;
}

}  // namespace serpentine::drive

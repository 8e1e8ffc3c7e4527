// Request-trace persistence: save and load batches of requests as a
// line-oriented text format, so workloads can be captured from a real
// system, replayed through TraceGenerator, and fed to the serpsched CLI.
//
// Format: '#' comments and blank lines ignored; otherwise one request per
// line as "<segment>" or "<segment> <count>".
#ifndef SERPENTINE_WORKLOAD_TRACE_IO_H_
#define SERPENTINE_WORKLOAD_TRACE_IO_H_

#include <string>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/util/statusor.h"

namespace serpentine::workload {

/// Renders a trace in the text format (one "<segment> <count>" per line;
/// count omitted when 1).
std::string SerializeTrace(const std::vector<sched::Request>& trace);

/// Parses the text format. Each field must be a whole integer: "12abc",
/// "1e3" or an out-of-range number is an error, as are a third field,
/// negative segments and non-positive counts. The error names the line and
/// the bad field.
serpentine::StatusOr<std::vector<sched::Request>> ParseTrace(
    const std::string& text);

/// Writes a trace to `path`.
serpentine::Status SaveTrace(const std::string& path,
                             const std::vector<sched::Request>& trace);

/// Reads a trace from `path`.
serpentine::StatusOr<std::vector<sched::Request>> LoadTrace(
    const std::string& path);

}  // namespace serpentine::workload

#endif  // SERPENTINE_WORKLOAD_TRACE_IO_H_

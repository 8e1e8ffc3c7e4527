#include "serpentine/workload/trace_io.h"

#include <cstdio>
#include <limits>
#include <sstream>

#include "serpentine/util/parse.h"

namespace serpentine::workload {

std::string SerializeTrace(const std::vector<sched::Request>& trace) {
  std::ostringstream out;
  out << "# serpentine request trace: <segment> [count]\n";
  for (const sched::Request& r : trace) {
    out << r.segment;
    if (r.count != 1) out << ' ' << r.count;
    out << '\n';
  }
  return out.str();
}

serpentine::StatusOr<std::vector<sched::Request>> ParseTrace(
    const std::string& text) {
  std::vector<sched::Request> trace;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Whitespace, '\r' included (so CRLF files parse), separates fields;
    // each field is then parsed whole.
    std::istringstream split(line);
    std::vector<std::string> fields;
    for (std::string field; split >> field;) fields.push_back(field);
    if (fields.empty() || fields[0].front() == '#') continue;
    const std::string where = " on trace line " + std::to_string(line_number);
    if (fields.size() > 2) {
      return InvalidArgumentError("trailing data '" + fields[2] + "'" + where);
    }
    sched::Request r;
    if (!ParseInt64(fields[0], 0, std::numeric_limits<int64_t>::max(),
                    &r.segment)) {
      return InvalidArgumentError("bad segment '" + fields[0] +
                                  "' (want an integer >= 0)" + where);
    }
    if (fields.size() == 2 &&
        !ParseInt64(fields[1], 1, std::numeric_limits<int64_t>::max(),
                    &r.count)) {
      return InvalidArgumentError("bad count '" + fields[1] +
                                  "' (want an integer >= 1)" + where);
    }
    trace.push_back(r);
  }
  return trace;
}

serpentine::Status SaveTrace(const std::string& path,
                             const std::vector<sched::Request>& trace) {
  std::string data = SerializeTrace(trace);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return InternalError("cannot open for writing: " + path);
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  int rc = std::fclose(f);
  if (written != data.size() || rc != 0) {
    return InternalError("short write: " + path);
  }
  return OkStatus();
}

serpentine::StatusOr<std::vector<sched::Request>> LoadTrace(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return NotFoundError("cannot open: " + path);
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return ParseTrace(data);
}

}  // namespace serpentine::workload

#include "serpentine/tape/keypoint_io.h"

#include <cstdio>
#include <sstream>

namespace serpentine::tape {

namespace {
constexpr char kMagic[] = "serpentine-keypoints v1";
}  // namespace

std::string SerializeKeyPoints(
    const std::vector<std::vector<SegmentId>>& key_segments,
    SegmentId total_segments) {
  std::ostringstream out;
  out << kMagic << "\n";
  size_t sections = key_segments.empty() ? 0 : key_segments[0].size();
  out << "tracks " << key_segments.size() << " sections " << sections
      << " total " << total_segments << "\n";
  for (const auto& row : key_segments) {
    for (size_t r = 0; r < row.size(); ++r) {
      if (r > 0) out << ' ';
      out << row[r];
    }
    out << "\n";
  }
  return out.str();
}

serpentine::StatusOr<KeyPointFile> ParseKeyPoints(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return InvalidArgumentError("bad magic: expected '" +
                                std::string(kMagic) + "'");
  }
  std::string word_tracks, word_sections, word_total;
  long long tracks = 0, sections = 0, total = 0;
  if (!(in >> word_tracks >> tracks >> word_sections >> sections >>
        word_total >> total) ||
      word_tracks != "tracks" || word_sections != "sections" ||
      word_total != "total") {
    return InvalidArgumentError("bad header line");
  }
  if (tracks <= 0 || sections <= 0 || total <= 0) {
    return InvalidArgumentError("non-positive dimensions in header");
  }
  // Every key point takes a separator and a digit, so the rest of the text
  // bounds what the header may claim; nothing is sized before that holds.
  // (tellg is -1 when the header ran to the end of the text.)
  const long long at = in.tellg();
  const long long room =
      at < 0 ? 0 : static_cast<long long>(text.size()) - at;
  auto too_big = [&](const std::string& claim) {
    return InvalidArgumentError("header claims " + claim + ", more than the " +
                                std::to_string(room) +
                                " bytes of key-point data can hold");
  };
  if (tracks > room / 2) return too_big(std::to_string(tracks) + " tracks");
  if (sections > room / 2) {
    return too_big(std::to_string(sections) + " sections");
  }
  if (tracks > room / 2 / sections) {
    return too_big(std::to_string(tracks) + " x " + std::to_string(sections) +
                   " key points");
  }

  KeyPointFile file;
  file.total_segments = total;
  file.key_segments.resize(tracks);
  for (long long t = 0; t < tracks; ++t) {
    auto& row = file.key_segments[t];
    row.resize(sections);
    for (long long r = 0; r < sections; ++r) {
      if (!(in >> row[r])) {
        return InvalidArgumentError("truncated key-point data at track " +
                                    std::to_string(t));
      }
      if (r > 0 && row[r] <= row[r - 1]) {
        return InvalidArgumentError("non-increasing key points in track " +
                                    std::to_string(t));
      }
    }
  }
  return file;
}

serpentine::Status SaveKeyPoints(
    const std::string& path,
    const std::vector<std::vector<SegmentId>>& key_segments,
    SegmentId total_segments) {
  std::string data = SerializeKeyPoints(key_segments, total_segments);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open for writing: " + path);
  }
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  int close_rc = std::fclose(f);
  if (written != data.size() || close_rc != 0) {
    return InternalError("short write: " + path);
  }
  return OkStatus();
}

serpentine::StatusOr<KeyPointFile> LoadKeyPoints(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return NotFoundError("cannot open: " + path);
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return ParseKeyPoints(data);
}

}  // namespace serpentine::tape

#ifndef TDMATCH_SERVE_MMAP_SNAPSHOT_H_
#define TDMATCH_SERVE_MMAP_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/snapshot.h"
#include "util/mmap_file.h"
#include "util/result.h"
#include "util/status.h"

namespace tdmatch {
namespace serve {

/// \brief Zero-copy view over a memory-mapped snapshot file.
///
/// The one parser of the on-disk format SnapshotIo writes, reading it in
/// place: Open mmaps the file, validates the header, geometry, and
/// trailing CRC-32 (rejecting bad magic, version skew, foreign endianness,
/// truncation, corruption, hostile declared counts, payload sizes that
/// overflow narrow arithmetic, and duplicate labels), indexes the labels
/// as string_views into the mapping, and exposes the f32 payload without
/// copying a single vector. SnapshotIo::Read is Open plus a copy into an
/// owned Snapshot. Load cost is the CRC scan plus the label
/// index; the payload itself is demand-paged, and several QueryEngines
/// can share one mapping through the shared_ptr returned by Open.
///
/// The view is immutable and safe for concurrent readers. Pointers and
/// string_views obtained from it are valid exactly as long as the view is
/// alive — hold the shared_ptr for as long as results circulate (the
/// serving hot-reload scheme retires old views only after the last
/// in-flight query drops its reference).
class SnapshotView {
 public:
  /// Maps and validates `path`.
  static util::Result<std::shared_ptr<const SnapshotView>> Open(
      const std::string& path);

  const SnapshotMeta& meta() const { return meta_; }
  int dim() const { return static_cast<int>(dim_); }
  size_t size() const { return labels_.size(); }
  const std::string& path() const { return file_.path(); }
  size_t file_bytes() const { return file_.size(); }

  std::string_view label(size_t i) const { return labels_[i]; }
  const std::vector<std::string_view>& labels() const { return labels_; }

  /// Row index of `label`, or -1 when absent. O(1).
  int64_t FindRow(std::string_view label) const {
    auto it = index_.find(label);
    return it == index_.end() ? -1 : static_cast<int64_t>(it->second);
  }

  /// True when the payload is 4-byte aligned in the mapping (always the
  /// case for snapshots written by this codebase's SnapshotIo, which pads
  /// the pre-payload bytes; see SnapshotIo::kPadKey).
  bool aligned() const { return aligned_; }

  /// Row `i` in place — no copy. Only valid when aligned().
  const float* row(size_t i) const;

  /// Copies row `i` into `out` (dim() floats). Works for any alignment.
  void CopyRow(size_t i, float* out) const;

  /// The raw payload bytes (size() * dim() * 4). Valid for any alignment;
  /// useful with VectorMatrix::FromRawRows.
  const char* payload() const { return payload_; }

  /// Bytes of the first version-2 section tagged `tag`, as a zero-copy
  /// view into the mapping, or nullptr when absent (every version-1 file).
  const std::string_view* Section(std::string_view tag) const {
    for (const auto& s : sections_) {
      if (s.first == tag) return &s.second;
    }
    return nullptr;
  }
  const std::vector<std::pair<std::string_view, std::string_view>>& sections()
      const {
    return sections_;
  }

 private:
  SnapshotView() = default;

  util::MmapFile file_;
  SnapshotMeta meta_;
  uint32_t dim_ = 0;
  std::vector<std::string_view> labels_;
  std::unordered_map<std::string_view, uint32_t> index_;
  std::vector<std::pair<std::string_view, std::string_view>> sections_;
  const char* payload_ = nullptr;
  bool aligned_ = false;
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_MMAP_SNAPSHOT_H_

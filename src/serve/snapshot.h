#ifndef TDMATCH_SERVE_SNAPSHOT_H_
#define TDMATCH_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "embed/embedding_table.h"
#include "util/result.h"
#include "util/status.h"

namespace tdmatch {
namespace serve {

/// \brief Versioned binary persistence for trained models — the artifact
/// that crosses the offline/online boundary.
///
/// The offline pipeline trains once and writes a snapshot; any number of
/// serving processes load it and answer queries without re-training. The
/// text format (embed::EmbeddingIo) stays for interop and debugging;
/// snapshots are what production loads: memory-mapped in place, bit-exact
/// float round-trip, and integrity checking.
///
/// File layout (all integers little-or-big endian as written; the marker
/// detects foreign-endian files):
///
///   [0..4)   magic "TDMS"
///   [4..8)   u32 format version (kVersion or kVersionSections)
///   [8..12)  u32 endianness marker 0x01020304
///   [12..N)  body:
///              u32 dim, u64 vector count,
///              scenario name (u32 length + bytes),
///              u32 extra-metadata pair count, then (key, value) strings,
///              count label strings,
///              count * dim raw IEEE-754 f32 payload
///              -- version 2 only, after the payload: --
///              u32 section count, then per section a tag string
///              (u32 length + bytes), u64 byte length, and the bytes
///   [N..N+4) u32 CRC-32 of the body
///
/// Strings are u32 length + raw bytes. The format has exactly one parser,
/// SnapshotView::Open (serve/mmap_snapshot.h): it parses the mapped bytes
/// with bounds-checked cursor reads, and any overrun, bad magic, version
/// skew, foreign endianness, hostile declared count, duplicate label,
/// trailing garbage, or CRC mismatch is a descriptive error — never a
/// partially-loaded model. SnapshotIo::Read copies out of that view.
///
/// Sections are opaque named blobs riding after the payload — the hook for
/// derived serving artifacts (the serialized IVF/PQ index uses tag
/// "ivfpq"). Writers emit version 1 when no sections are attached, so a
/// section-free file is byte-identical to what older builds wrote and
/// older readers still load it; readers accept both versions (a version-1
/// file is simply a snapshot with zero sections).
struct SnapshotMeta {
  /// Name of the scenario / deployment the model was trained for.
  std::string scenario;
  /// Free-form key/value pairs (seed, scale, corpus sizes, ...). Order is
  /// preserved by the round-trip.
  std::vector<std::pair<std::string, std::string>> extra;

  /// Value for `key` in `extra`, or an empty string.
  const std::string& Find(const std::string& key) const;

  void Set(std::string key, std::string value) {
    extra.emplace_back(std::move(key), std::move(value));
  }
};

/// The `q:<i>` / `c:<i>` shorthand for query / candidate doc i: a
/// digits-only suffix maps to `<prefix><i>__`, with the prefixes recorded
/// in the snapshot meta ("query_prefix", "candidate_prefix") and
/// `__D0:` / `__D1:` when the meta has none. Anything else passes through
/// untouched. The HTTP API, the REPL and batch mode all resolve labels
/// through this one rule.
std::string ResolveLabel(const std::string& raw, const SnapshotMeta& meta);

/// A loaded snapshot: metadata plus the embedding table (labels keep their
/// written order, vectors are bit-identical to what was saved) plus any
/// named sections ((tag, bytes), written order preserved).
struct Snapshot {
  SnapshotMeta meta;
  embed::EmbeddingTable table;
  std::vector<std::pair<std::string, std::string>> sections;

  /// Bytes of the first section tagged `tag`, or nullptr.
  const std::string* Section(const std::string& tag) const;
};

class SnapshotIo {
 public:
  static constexpr uint32_t kVersion = 1;
  /// Written instead of kVersion when the snapshot carries sections.
  static constexpr uint32_t kVersionSections = 2;

  /// File framing, shared by Write and the one reader (SnapshotView::Open).
  static constexpr char kMagic[4] = {'T', 'D', 'M', 'S'};
  static constexpr uint32_t kEndianMarker = 0x01020304u;
  /// magic + version + endian marker.
  static constexpr size_t kHeaderBytes = 12;
  /// trailing CRC-32 of the body.
  static constexpr size_t kFooterBytes = 4;

  /// Reserved metadata key. Write appends a 0–3 byte "_pad" pair sized so
  /// the f32 payload starts 4-byte aligned in the file (and therefore in
  /// any page-aligned mmap — serve::SnapshotView reads rows in place).
  /// Invisible to callers: Write replaces stale pads, Read drops them.
  static constexpr char kPadKey[] = "_pad";

  /// Serializes `table` + `meta`; overwrites `path` atomically (temp file
  /// + rename), so a serving process that has the previous snapshot
  /// mmap'ed keeps reading the old inode — in-place rewrites never tear a
  /// live SnapshotView.
  static util::Status Write(const embed::EmbeddingTable& table,
                            const SnapshotMeta& meta, const std::string& path);

  /// Same, attaching named sections after the payload. An empty `sections`
  /// writes a plain version-1 file (byte-identical to the overload above);
  /// any sections bump the file to kVersionSections.
  static util::Status Write(
      const embed::EmbeddingTable& table, const SnapshotMeta& meta,
      const std::vector<std::pair<std::string, std::string>>& sections,
      const std::string& path);

  /// Loads a snapshot written by Write into owned memory: opens it as a
  /// SnapshotView (so every rejection of that parser applies) and copies
  /// the rows, metadata and sections out of the mapping.
  static util::Result<Snapshot> Read(const std::string& path);

  /// Conversion paths between the text format (embed::EmbeddingIo) and the
  /// binary snapshot format. Text → snapshot loses nothing the text file
  /// carried; snapshot → text drops the metadata block and rounds floats
  /// through decimal.
  static util::Status ConvertTextToSnapshot(const std::string& text_path,
                                            const SnapshotMeta& meta,
                                            const std::string& snapshot_path);
  static util::Status ConvertSnapshotToText(const std::string& snapshot_path,
                                            const std::string& text_path);
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_SNAPSHOT_H_

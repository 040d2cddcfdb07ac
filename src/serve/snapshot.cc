#include "serve/snapshot.h"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>

#include "embed/io.h"
#include "serve/mmap_snapshot.h"
#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace tdmatch {
namespace serve {

namespace {

// Integer appends live in util/byte_io — the same primitives serialize
// the index sections (serve/ivf_index.cc).
using util::AppendLengthPrefixed;
using util::AppendU32;
using util::AppendU64;

util::Status AppendString(std::string* out, const std::string& s) {
  return AppendLengthPrefixed(out, s);
}

}  // namespace

const std::string* Snapshot::Section(const std::string& tag) const {
  for (const auto& s : sections) {
    if (s.first == tag) return &s.second;
  }
  return nullptr;
}

const std::string& SnapshotMeta::Find(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& kv : extra) {
    if (kv.first == key) return kv.second;
  }
  return kEmpty;
}

std::string ResolveLabel(const std::string& raw, const SnapshotMeta& meta) {
  if (raw.size() < 3 || (raw[0] != 'q' && raw[0] != 'c') || raw[1] != ':') {
    return raw;
  }
  for (size_t i = 2; i < raw.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(raw[i])) == 0) return raw;
  }
  std::string prefix =
      meta.Find(raw[0] == 'q' ? "query_prefix" : "candidate_prefix");
  if (prefix.empty()) prefix = raw[0] == 'q' ? "__D0:" : "__D1:";
  return prefix + raw.substr(2) + "__";
}

util::Status SnapshotIo::Write(const embed::EmbeddingTable& table,
                               const SnapshotMeta& meta,
                               const std::string& path) {
  return Write(table, meta, {}, path);
}

util::Status SnapshotIo::Write(
    const embed::EmbeddingTable& table, const SnapshotMeta& meta,
    const std::vector<std::pair<std::string, std::string>>& sections,
    const std::string& path) {
  const std::vector<std::string> labels = table.Labels();
  const size_t dim = static_cast<size_t>(table.dim());

  // The reserved "_pad" metadata pair sizes the pre-payload bytes to a
  // multiple of 4 so the f32 payload is 4-byte aligned in the file, and
  // therefore in any page-aligned mmap of it (serve::SnapshotView reads
  // rows in place). Callers never see it: Write strips stale copies and
  // Read drops it after parsing, so meta round-trips unchanged.
  std::vector<const std::pair<std::string, std::string>*> extra;
  extra.reserve(meta.extra.size());
  size_t prepay = 4 + 8 + (4 + meta.scenario.size()) + 4;
  for (const auto& kv : meta.extra) {
    if (kv.first == kPadKey) continue;
    extra.push_back(&kv);
    prepay += 8 + kv.first.size() + kv.second.size();
  }
  for (const auto& label : labels) prepay += 4 + label.size();
  // The header (12), the pad pair's own fixed bytes (4 + 4 + len("_pad")
  // = 12), and every length prefix are multiples of 4, so only the string
  // bytes determine the residue.
  const size_t pad_len = (4 - prepay % 4) % 4;

  std::string body;
  // Labels dominate; 16 bytes/label plus the raw float payload is a close
  // upper-bound guess that avoids re-allocation churn.
  body.reserve(labels.size() * (dim * sizeof(float) + 16) + 256);
  AppendU32(&body, static_cast<uint32_t>(table.dim()));
  AppendU64(&body, labels.size());
  TDM_RETURN_NOT_OK(AppendString(&body, meta.scenario));
  if (extra.size() >= UINT32_MAX) {
    return util::Status::InvalidArgument("too many metadata pairs");
  }
  AppendU32(&body, static_cast<uint32_t>(extra.size() + 1));
  for (const auto* kv : extra) {
    TDM_RETURN_NOT_OK(AppendString(&body, kv->first));
    TDM_RETURN_NOT_OK(AppendString(&body, kv->second));
  }
  TDM_RETURN_NOT_OK(AppendString(&body, kPadKey));
  TDM_RETURN_NOT_OK(AppendString(&body, std::string(pad_len, ' ')));
  for (const auto& label : labels) {
    TDM_RETURN_NOT_OK(AppendString(&body, label));
  }
  for (const auto& label : labels) {
    const std::vector<float>* vec = table.Get(label);
    body.append(reinterpret_cast<const char*>(vec->data()),
                vec->size() * sizeof(float));
  }

  // Sections ride after the payload (so the payload-alignment pad math
  // above is untouched) and only in version-2 files: a section-free write
  // stays byte-identical to what version-1 builds produced.
  if (!sections.empty()) {
    if (sections.size() >= UINT32_MAX) {
      return util::Status::InvalidArgument("too many snapshot sections");
    }
    AppendU32(&body, static_cast<uint32_t>(sections.size()));
    for (const auto& sec : sections) {
      TDM_RETURN_NOT_OK(AppendString(&body, sec.first));
      AppendU64(&body, sec.second.size());
      body.append(sec.second);
    }
  }
  const uint32_t version = sections.empty() ? kVersion : kVersionSections;

  // Write to a temp file and rename over `path`: readers — including a
  // serving process that has the old snapshot mmap'ed (SnapshotView) —
  // never observe a half-written or in-place-truncated file. The rename
  // is atomic on POSIX; the old inode lives on until its last mapping
  // drops.
  const std::string tmp_path =
      util::StrFormat("%s.tmp.%d", path.c_str(), ::getpid());
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return util::Status::IOError("cannot open " + tmp_path);
    out.write(kMagic, sizeof(kMagic));
    const uint32_t endian = kEndianMarker;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&endian), sizeof(endian));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    const uint32_t crc = util::Crc32(body.data(), body.size());
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    if (!out) {
      std::remove(tmp_path.c_str());
      return util::Status::IOError("write failed for " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return util::Status::IOError(
        util::StrFormat("cannot rename %s over %s", tmp_path.c_str(),
                        path.c_str()));
  }
  return util::Status::OK();
}

util::Result<Snapshot> SnapshotIo::Read(const std::string& path) {
  TDM_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotView> view,
                       SnapshotView::Open(path));
  Snapshot snap;
  snap.meta = view->meta();
  snap.table = embed::EmbeddingTable(view->dim());
  std::vector<float> row(static_cast<size_t>(view->dim()));
  for (size_t i = 0; i < view->size(); ++i) {
    view->CopyRow(i, row.data());
    snap.table.Put(std::string(view->label(i)), row);
  }
  for (const auto& [tag, bytes] : view->sections()) {
    snap.sections.emplace_back(std::string(tag), std::string(bytes));
  }
  return snap;
}

util::Status SnapshotIo::ConvertTextToSnapshot(
    const std::string& text_path, const SnapshotMeta& meta,
    const std::string& snapshot_path) {
  TDM_ASSIGN_OR_RETURN(embed::EmbeddingTable table,
                       embed::EmbeddingIo::Load(text_path));
  return Write(table, meta, snapshot_path);
}

util::Status SnapshotIo::ConvertSnapshotToText(
    const std::string& snapshot_path, const std::string& text_path) {
  TDM_ASSIGN_OR_RETURN(Snapshot snap, Read(snapshot_path));
  return embed::EmbeddingIo::Save(snap.table, text_path);
}

}  // namespace serve
}  // namespace tdmatch

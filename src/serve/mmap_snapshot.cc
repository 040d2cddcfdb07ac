#include "serve/mmap_snapshot.h"

#include <cstring>

#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace tdmatch {
namespace serve {

namespace {

/// Validates a declared (dim, vector count) geometry against the bytes
/// actually available, in overflow-checked 64-bit arithmetic: a hostile
/// header — absurd counts, dims beyond int range, payload sizes that would
/// wrap 32-bit math — is rejected before any allocation or pointer
/// arithmetic uses it.
util::Status ValidateGeometry(const std::string& path, uint32_t dim,
                              uint64_t count, size_t remaining) {
  if (dim == 0 && count > 0) {
    return util::Status::InvalidArgument(path + ": zero dim with vectors");
  }
  if (dim > static_cast<uint32_t>(INT32_MAX)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: declared dim %u exceeds the supported maximum", path.c_str(),
        dim));
  }
  // A hostile header can declare a geometry whose payload byte count
  // rows * dim * sizeof(float) wraps narrower arithmetic (already at
  // rows * dim >= 2^30 for 32-bit math). Do the multiplication once in
  // overflow-checked 64-bit math and reject explicitly, so no later size
  // computation — allocation, cursor advance, span construction — ever
  // sees a wrapped value.
  const uint64_t row_bytes = static_cast<uint64_t>(dim) * sizeof(float);
  if (row_bytes > 0 && count > UINT64_MAX / row_bytes) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: payload size of %llu vectors x %u dims overflows 64-bit byte "
        "arithmetic",
        path.c_str(), static_cast<unsigned long long>(count), dim));
  }
  // A valid CRC proves the bytes are intact, not that the writer was
  // SnapshotIo — validate declared counts against the bytes actually
  // present before sizing any allocation from them (every entry needs at
  // least a 4-byte label length plus its dim floats).
  const uint64_t min_entry_bytes = sizeof(uint32_t) + row_bytes;
  if (count > remaining / min_entry_bytes) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: declared %llu vectors cannot fit in %zu remaining bytes",
        path.c_str(), static_cast<unsigned long long>(count), remaining));
  }
  return util::Status::OK();
}

}  // namespace

util::Result<std::shared_ptr<const SnapshotView>> SnapshotView::Open(
    const std::string& path) {
  TDM_ASSIGN_OR_RETURN(util::MmapFile file, util::MmapFile::Open(path));
  if (file.size() < SnapshotIo::kHeaderBytes + SnapshotIo::kFooterBytes) {
    return util::Status::IOError(util::StrFormat(
        "%s: not a snapshot (%zu bytes, smaller than header + CRC)",
        path.c_str(), file.size()));
  }
  const char* data = file.data();

  if (std::memcmp(data, SnapshotIo::kMagic, sizeof(SnapshotIo::kMagic)) !=
      0) {
    return util::Status::InvalidArgument(
        path + ": bad magic (not a TDmatch snapshot)");
  }
  uint32_t version = 0;
  uint32_t endian = 0;
  std::memcpy(&version, data + 4, sizeof(version));
  std::memcpy(&endian, data + 8, sizeof(endian));
  if (endian != SnapshotIo::kEndianMarker) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: endianness marker 0x%08x != 0x%08x — snapshot was written on a "
        "machine with different byte order",
        path.c_str(), endian, SnapshotIo::kEndianMarker));
  }
  if (version != SnapshotIo::kVersion &&
      version != SnapshotIo::kVersionSections) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: snapshot version %u, this build reads %u and %u", path.c_str(),
        version, SnapshotIo::kVersion, SnapshotIo::kVersionSections));
  }

  const char* body = data + SnapshotIo::kHeaderBytes;
  const size_t body_size =
      file.size() - SnapshotIo::kHeaderBytes - SnapshotIo::kFooterBytes;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data + file.size() - SnapshotIo::kFooterBytes,
              sizeof(stored_crc));
  const uint32_t actual_crc = util::Crc32(body, body_size);
  if (stored_crc != actual_crc) {
    return util::Status::IOError(util::StrFormat(
        "%s: CRC mismatch (stored 0x%08x, computed 0x%08x) — snapshot is "
        "corrupted or truncated",
        path.c_str(), stored_crc, actual_crc));
  }

  util::ByteCursor cur(body, body_size);
  uint32_t dim = 0;
  uint64_t count = 0;
  TDM_RETURN_NOT_OK(cur.ReadU32(&dim));
  TDM_RETURN_NOT_OK(cur.ReadU64(&count));
  TDM_RETURN_NOT_OK(ValidateGeometry(path, dim, count, cur.Remaining()));
  if (count > UINT32_MAX) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: %llu vectors exceed the label index capacity", path.c_str(),
        static_cast<unsigned long long>(count)));
  }

  auto view = std::shared_ptr<SnapshotView>(new SnapshotView());
  view->dim_ = dim;
  std::string_view scenario;
  TDM_RETURN_NOT_OK(cur.ReadStringView(&scenario));
  view->meta_.scenario = std::string(scenario);
  uint32_t num_extra = 0;
  TDM_RETURN_NOT_OK(cur.ReadU32(&num_extra));
  if (num_extra > cur.Remaining() / (2 * sizeof(uint32_t))) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: declared %u metadata pairs cannot fit in %zu remaining bytes",
        path.c_str(), num_extra, cur.Remaining()));
  }
  for (uint32_t i = 0; i < num_extra; ++i) {
    std::string_view key, value;
    TDM_RETURN_NOT_OK(cur.ReadStringView(&key));
    TDM_RETURN_NOT_OK(cur.ReadStringView(&value));
    if (key == SnapshotIo::kPadKey) continue;  // writer-internal alignment
    view->meta_.extra.emplace_back(std::string(key), std::string(value));
  }

  view->labels_.resize(count);
  view->index_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TDM_RETURN_NOT_OK(cur.ReadStringView(&view->labels_[i]));
    const bool inserted =
        view->index_.emplace(view->labels_[i], static_cast<uint32_t>(i))
            .second;
    if (!inserted) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s: duplicate label '%s'", path.c_str(),
          std::string(view->labels_[i]).c_str()));
    }
  }

  const uint64_t payload_bytes =
      count * static_cast<uint64_t>(dim) * sizeof(float);
  if (payload_bytes > cur.Remaining()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: payload needs %llu bytes but %zu follow the labels",
        path.c_str(), static_cast<unsigned long long>(payload_bytes),
        cur.Remaining()));
  }
  std::string_view payload;
  TDM_RETURN_NOT_OK(
      cur.ReadView(static_cast<size_t>(payload_bytes), &payload));
  view->payload_ = payload.data();
  view->aligned_ =
      reinterpret_cast<uintptr_t>(view->payload_) % alignof(float) == 0;

  if (version >= SnapshotIo::kVersionSections) {
    uint32_t num_sections = 0;
    TDM_RETURN_NOT_OK(cur.ReadU32(&num_sections));
    if (num_sections >
        cur.Remaining() / (sizeof(uint32_t) + sizeof(uint64_t))) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s: declared %u sections cannot fit in %zu remaining bytes",
          path.c_str(), num_sections, cur.Remaining()));
    }
    view->sections_.reserve(num_sections);
    for (uint32_t i = 0; i < num_sections; ++i) {
      std::string_view tag;
      TDM_RETURN_NOT_OK(cur.ReadStringView(&tag));
      uint64_t len = 0;
      TDM_RETURN_NOT_OK(cur.ReadU64(&len));
      if (len > cur.Remaining()) {
        return util::Status::InvalidArgument(util::StrFormat(
            "%s: section \"%s\" declares %llu bytes with %zu left",
            path.c_str(), std::string(tag).c_str(),
            static_cast<unsigned long long>(len), cur.Remaining()));
      }
      std::string_view bytes;
      TDM_RETURN_NOT_OK(cur.ReadView(static_cast<size_t>(len), &bytes));
      view->sections_.emplace_back(tag, bytes);
    }
  }

  if (cur.Remaining() != 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: %zu trailing bytes after the vector payload", path.c_str(),
        cur.Remaining()));
  }
  view->file_ = std::move(file);
  return std::shared_ptr<const SnapshotView>(std::move(view));
}

const float* SnapshotView::row(size_t i) const {
  TDM_CHECK(aligned_) << "in-place row access on an unaligned snapshot "
                         "payload; use CopyRow";
  return reinterpret_cast<const float*>(payload_) +
         i * static_cast<size_t>(dim_);
}

void SnapshotView::CopyRow(size_t i, float* out) const {
  const size_t row_bytes = static_cast<size_t>(dim_) * sizeof(float);
  std::memcpy(out, payload_ + i * row_bytes, row_bytes);
}

}  // namespace serve
}  // namespace tdmatch

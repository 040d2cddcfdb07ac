#include "util/byte_io.h"

#include <cstring>

#include "util/string_util.h"

namespace tdmatch {
namespace util {

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

Status AppendLengthPrefixed(std::string* out, std::string_view s) {
  if (s.size() > UINT32_MAX) {
    return Status::InvalidArgument("string too long for u32 length prefix");
  }
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
  return Status::OK();
}

Status ByteCursor::ReadStringView(std::string_view* s) {
  uint32_t len = 0;
  TDM_RETURN_NOT_OK(ReadU32(&len));
  return ReadView(len, s);
}

Status ByteCursor::ReadView(size_t bytes, std::string_view* s) {
  const size_t start = pos_;
  TDM_RETURN_NOT_OK(Skip(bytes));
  *s = std::string_view(data_ + start, bytes);
  return Status::OK();
}

Status ByteCursor::Skip(size_t bytes) {
  if (bytes > Remaining()) {
    return Status::IOError(StrFormat(
        "truncated: need %zu bytes, %zu left", bytes, Remaining()));
  }
  pos_ += bytes;
  return Status::OK();
}

Status ByteCursor::ReadRaw(void* out, size_t bytes) {
  const size_t start = pos_;
  TDM_RETURN_NOT_OK(Skip(bytes));
  std::memcpy(out, data_ + start, bytes);
  return Status::OK();
}

}  // namespace util
}  // namespace tdmatch

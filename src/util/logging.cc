#include "util/logging.h"

#include <cstdlib>
#include <iostream>

namespace tdmatch {
namespace util {

LogMessage::LogMessage(const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[FATAL " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace util
}  // namespace tdmatch

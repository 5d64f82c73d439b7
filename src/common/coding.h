#ifndef CUBETREE_COMMON_CODING_H_
#define CUBETREE_COMMON_CODING_H_

#include <cstdint>
#include <cstring>

namespace cubetree {

// Little-endian fixed-width encoding helpers for on-page layouts. All
// persistent structures in the library serialize integers through these so
// page images are byte-stable across platforms.

inline void EncodeFixed32(char* dst, uint32_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* src) {
  uint32_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

inline uint64_t DecodeFixed64(const char* src) {
  uint64_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

}  // namespace cubetree

#endif  // CUBETREE_COMMON_CODING_H_

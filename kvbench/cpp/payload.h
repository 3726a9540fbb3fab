// Value bytes the benchmark writes with Set and how it recognises every
// value it may read back: either the cache's on-demand fill (`size` copies
// of the id's low byte) or a payload this benchmark wrote for that id.
#ifndef KVBENCH_CPP_PAYLOAD_H_
#define KVBENCH_CPP_PAYLOAD_H_

#include <cstdint>
#include <cstring>

namespace kvbench {

inline constexpr uint32_t kValueSize = 64;

inline uint8_t PayloadByte(uint64_t id, uint32_t writer, uint32_t seq, uint32_t i) {
  const uint64_t h = (id * 0x9e3779b97f4a7c15ULL) ^ (uint64_t{seq} * 0xbf58476d1ce4e5b9ULL) ^ writer;
  return static_cast<uint8_t>((h >> (8 * (i & 7))) + i);
}

// Layout: id (8 bytes), writer (4), seq (4), then bytes derived from all
// three, so a torn or misdirected value cannot pass DecodeSetPayload.
inline void MakeSetPayload(uint64_t id, uint32_t writer, uint32_t seq, char* out) {
  std::memcpy(out, &id, 8);
  std::memcpy(out + 8, &writer, 4);
  std::memcpy(out + 12, &seq, 4);
  for (uint32_t i = 16; i < kValueSize; ++i) {
    out[i] = static_cast<char>(PayloadByte(id, writer, seq, i));
  }
}

inline bool IsFill(uint64_t id, const char* data, uint32_t size) {
  if (size != kValueSize) {
    return false;
  }
  const char b = static_cast<char>(id & 0xFF);
  for (uint32_t i = 0; i < size; ++i) {
    if (data[i] != b) {
      return false;
    }
  }
  return true;
}

inline bool DecodeSetPayload(uint64_t id, const char* data, uint32_t size, uint32_t* writer,
                             uint32_t* seq) {
  if (size != kValueSize) {
    return false;
  }
  uint64_t got_id = 0;
  std::memcpy(&got_id, data, 8);
  std::memcpy(writer, data + 8, 4);
  std::memcpy(seq, data + 12, 4);
  if (got_id != id || *seq == 0) {
    return false;
  }
  for (uint32_t i = 16; i < kValueSize; ++i) {
    if (static_cast<uint8_t>(data[i]) != PayloadByte(id, *writer, *seq, i)) {
      return false;
    }
  }
  return true;
}

}  // namespace kvbench

#endif  // KVBENCH_CPP_PAYLOAD_H_

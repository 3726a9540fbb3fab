// On-disk layout of the v2 binary trace format, shared by the stream
// reader and writer (trace_io).
//
// v2 is columnar: after a fixed header and the trace name, each request
// field is stored as one contiguous array. Every column starts at an
// 8-byte-aligned offset and is padded to a multiple of 8 with zero bytes,
// which makes files byte-deterministic for a given trace.
//
//   header (96 bytes, little-endian, no implicit padding)
//   name bytes               (name_len, zero-padded to 8)
//   id        u64 × n
//   time      u64 × n        (written as the request index)
//   next_access u64 × n      (only when kTraceFlagAnnotated is set)
//   size      u32 × n        (zero-padded to 8)
//   tenant    u32 × n        (written as 0; zero-padded to 8)
//   op        u8  × n        (zero-padded to 8)
//
// The time and tenant columns are written for compatibility with earlier
// files and ignored on read: a Request holds neither. The next_access column
// is the annotated trace's own column (Trace::next_access()), read and
// written as it stands; the id, size and op columns fill the 16-byte Request
// array. v1 (AoS 24-byte records, no tenant/next_access) remains readable
// through ReadBinaryTrace.
#ifndef SRC_TRACE_TRACE_FORMAT_H_
#define SRC_TRACE_TRACE_FORMAT_H_

#include <cstdint>

namespace s3fifo {

inline constexpr char kTraceMagic[4] = {'S', '3', 'F', 'T'};
inline constexpr uint32_t kTraceVersionV1 = 1;
inline constexpr uint32_t kTraceVersionV2 = 2;

// Header flags.
inline constexpr uint64_t kTraceFlagAnnotated = 1ull << 0;

// Sanity bound on the header's name_len (catches corrupt headers early).
inline constexpr uint32_t kMaxTraceNameLen = 4096;

struct TraceFileHeaderV2 {
  char magic[4];
  uint32_t version;
  uint64_t num_requests;
  uint64_t flags;
  // Trace::Fingerprint() of the payload — the order-sensitive digest over
  // (id, size, op).
  uint64_t fingerprint;
  // TraceStats snapshot of the whole trace.
  uint64_t num_objects;
  uint64_t total_bytes_requested;
  uint64_t footprint_bytes;
  uint64_t num_gets;
  uint64_t num_sets;
  uint64_t num_deletes;
  double one_hit_wonder_ratio;
  uint32_t name_len;
  uint32_t reserved;  // zero
};
static_assert(sizeof(TraceFileHeaderV2) == 96, "v2 trace header must be packed to 96 bytes");

// Byte offsets of each section a reader uses, for a given request count /
// flags / name length. All offsets are multiples of 8.
struct TraceFileLayout {
  uint64_t name_offset = 0;
  uint64_t id_offset = 0;
  uint64_t next_access_offset = 0;  // 0 when the trace is not annotated
  uint64_t size_offset = 0;
  uint64_t op_offset = 0;
  uint64_t file_size = 0;

  static constexpr uint64_t PadTo8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

  static TraceFileLayout For(uint64_t n, bool annotated, uint32_t name_len) {
    TraceFileLayout l;
    l.name_offset = sizeof(TraceFileHeaderV2);
    l.id_offset = l.name_offset + PadTo8(name_len);
    uint64_t pos = l.id_offset + 2 * 8 * n;  // the id and time columns
    if (annotated) {
      l.next_access_offset = pos;
      pos += 8 * n;
    }
    l.size_offset = pos;
    l.op_offset = l.size_offset + 2 * PadTo8(4 * n);  // the size and tenant columns
    l.file_size = l.op_offset + PadTo8(n);
    return l;
  }
};

}  // namespace s3fifo

#endif  // SRC_TRACE_TRACE_FORMAT_H_

// Incremental, zero-copy parser for the memcached text subset the cache
// server speaks: get/gets/mget (multi-key), set, delete, stats, version,
// quit. Designed for pipelined connections: the caller feeds the readable
// region of the connection's RingBuffer and pulls out one command at a time
// until kNeedMore; every key and set-body in the output is a string_view
// aliasing the input buffer, valid until the buffer is compacted.
//
// Framing rules (a practical memcached-text subset):
//   * command lines end in \r\n and may not exceed kMaxLineLen bytes;
//   * keys are 1..kMaxKeyLen bytes, no whitespace or control characters;
//   * `set <key> <flags> <exptime> <bytes> [noreply]` is followed by exactly
//     <bytes> body bytes and \r\n; bodies above kMaxValueBytes are rejected;
//   * torn frames (header or body split at any byte) return kNeedMore and
//     consume nothing — the parser re-runs when more bytes arrive;
//   * malformed input consumes through the end of the offending line and
//     reports a protocol error string to send, so one bad command never
//     desynchronizes a pipelined connection more than memcached would;
//   * unrecoverable framing (over-long line, oversized body) is kFatal: the
//     server responds and closes, because the remaining stream can no longer
//     be delimited reliably.
#ifndef SRC_SERVER_PROTOCOL_H_
#define SRC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace s3fifo {

inline constexpr size_t kMaxKeyLen = 250;
inline constexpr size_t kMaxLineLen = 8192;
inline constexpr uint32_t kMaxValueBytes = 1u << 20;

enum class CmdType : uint8_t { kGet, kSet, kDelete, kStats, kVersion, kQuit };

// One parsed command. Keys live in ParseOutput::keys[key_begin, key_begin +
// key_count); get/gets/mget carry 1..N keys, set/delete exactly one.
struct ParsedOp {
  CmdType type = CmdType::kGet;
  uint32_t key_begin = 0;
  uint32_t key_count = 0;
  uint32_t set_flags = 0;
  std::string_view value;  // set body (aliases the input buffer)
  bool noreply = false;
};

// Reused across parse calls; Clear() once per event-loop iteration.
struct ParseOutput {
  std::vector<ParsedOp> ops;
  std::vector<std::string_view> keys;

  void Clear() {
    ops.clear();
    keys.clear();
  }
};

enum class ParseStatus : uint8_t { kOk, kNeedMore, kError, kFatal };

struct ParseResult {
  ParseStatus status = ParseStatus::kNeedMore;
  // Bytes of input this command (or malformed line) occupied; 0 for
  // kNeedMore.
  size_t consumed = 0;
  // For kError/kFatal: the protocol error line to send, including \r\n.
  const char* error = nullptr;
};

// Parses ONE command from the front of `data`; on kOk appends exactly one
// ParsedOp (plus its keys) to `out`.
ParseResult ParseCommand(std::string_view data, ParseOutput& out);

// Reply and request rendering: append `s`, or `v` in decimal, to `out`.
inline void AppendStr(std::vector<char>& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

inline void AppendU64(std::vector<char>& out, uint64_t v) {
  char buf[20];
  int n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) {
    out.push_back(buf[--n]);
  }
}

// Key -> object id. Decimal keys (<= 20 digits, fitting uint64) map to their
// exact integer value — the load generator and the server-vs-simulator
// parity tests rely on this round-trip; any other key is FNV-1a-64 hashed
// (collisions alias cache slots, acceptable for a cache).
uint64_t KeyToId(std::string_view key);

}  // namespace s3fifo

#endif  // SRC_SERVER_PROTOCOL_H_

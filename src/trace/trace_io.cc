#include "src/trace/trace_io.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/trace/trace_format.h"

namespace s3fifo {
namespace {

// v1 record layout (AoS), kept for backward-compatible reads only.
struct BinaryRecordV1 {
  uint64_t id;
  uint32_t size;
  uint8_t op;
  uint8_t pad[3];
  uint64_t time;
};
static_assert(sizeof(BinaryRecordV1) == 24, "v1 binary trace record must be packed to 24 bytes");

[[noreturn]] void Fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

OpType OpFromString(const std::string& s) {
  if (s == "get" || s == "GET" || s == "read" || s == "r") {
    return OpType::kGet;
  }
  if (s == "set" || s == "SET" || s == "write" || s == "w") {
    return OpType::kSet;
  }
  if (s == "delete" || s == "DELETE" || s == "del" || s == "d") {
    return OpType::kDelete;
  }
  throw std::runtime_error("unknown op in CSV trace: " + s);
}

const char* OpToString(OpType op) {
  switch (op) {
    case OpType::kGet:
      return "get";
    case OpType::kSet:
      return "set";
    case OpType::kDelete:
      return "delete";
  }
  return "get";
}

// Writes one column (possibly a zero-filled pad tail) so the file is
// byte-deterministic for a given trace.
void WritePad(std::ofstream& out, uint64_t written) {
  static const char kZeros[8] = {0};
  const uint64_t padded = TraceFileLayout::PadTo8(written);
  out.write(kZeros, static_cast<std::streamsize>(padded - written));
}

// `file_size` bounds the request count a header may claim, so a corrupt
// count fails before anything is allocated for it.
Trace ReadBinaryTraceV1(std::ifstream& in, const std::string& path, uint64_t file_size) {
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) {
    Fail("truncated trace header", path);
  }
  if (n > file_size / sizeof(BinaryRecordV1)) {
    Fail("truncated trace body", path);
  }
  std::vector<Request> reqs;
  reqs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    BinaryRecordV1 rec{};
    in.read(reinterpret_cast<char*>(&rec), sizeof(rec));
    if (!in) {
      Fail("truncated trace body", path);
    }
    if (rec.op > static_cast<uint8_t>(OpType::kDelete)) {
      Fail("corrupt op byte in trace", path);
    }
    reqs.push_back({.id = rec.id, .size = rec.size, .op = static_cast<OpType>(rec.op)});
  }
  return Trace(std::move(reqs));
}

Trace ReadBinaryTraceV2(std::ifstream& in, const std::string& path, uint64_t file_size) {
  TraceFileHeaderV2 header{};
  in.seekg(0);
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in) {
    Fail("truncated trace header", path);
  }
  if (header.name_len > kMaxTraceNameLen) {
    Fail("corrupt name length in trace header", path);
  }
  const uint64_t n = header.num_requests;
  const bool annotated = (header.flags & kTraceFlagAnnotated) != 0;
  // Every request takes at least one u64 of the file, which also keeps the
  // layout arithmetic below from overflowing.
  if (n > file_size / sizeof(uint64_t)) {
    Fail("truncated trace body", path);
  }
  const TraceFileLayout layout = TraceFileLayout::For(n, annotated, header.name_len);
  if (layout.file_size > file_size) {
    Fail("truncated trace body", path);
  }

  std::string name(header.name_len, '\0');
  in.read(name.data(), header.name_len);

  std::vector<Request> reqs(n);
  auto read_column = [&](uint64_t offset, auto* scratch, auto assign) {
    scratch->resize(n);
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(scratch->data()),
            static_cast<std::streamsize>(sizeof((*scratch)[0]) * n));
    for (uint64_t i = 0; i < n; ++i) {
      assign(reqs[i], (*scratch)[i]);
    }
  };
  std::vector<uint64_t> u64s;
  std::vector<uint32_t> u32s;
  std::vector<uint8_t> u8s;
  read_column(layout.id_offset, &u64s, [](Request& r, uint64_t v) { r.id = v; });
  std::vector<uint64_t> next_access;
  if (annotated) {
    // The next-access column is kept as it is on disk, beside the requests.
    next_access.resize(n);
    in.seekg(static_cast<std::streamoff>(layout.next_access_offset));
    in.read(reinterpret_cast<char*>(next_access.data()),
            static_cast<std::streamsize>(sizeof(uint64_t) * n));
  }
  read_column(layout.size_offset, &u32s, [](Request& r, uint32_t v) { r.size = v; });
  read_column(layout.op_offset, &u8s, [](Request& r, uint8_t v) { r.op = static_cast<OpType>(v); });
  if (!in) {
    Fail("truncated trace body", path);
  }
  for (uint8_t op : u8s) {
    if (op > static_cast<uint8_t>(OpType::kDelete)) {
      Fail("corrupt op byte in trace", path);
    }
  }
  Trace trace(std::move(reqs), std::move(name));
  if (annotated) {
    trace.set_next_access(std::move(next_access));
  }
  return trace;
}

}  // namespace

void WriteBinaryTrace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    Fail("cannot open trace file for writing", path);
  }
  if (trace.name().size() > kMaxTraceNameLen) {
    Fail("trace name too long for binary header", path);
  }
  const TraceStats& stats = trace.Stats();
  TraceFileHeaderV2 header{};
  std::memcpy(header.magic, kTraceMagic, sizeof(header.magic));
  header.version = kTraceVersionV2;
  header.num_requests = trace.size();
  header.flags = trace.annotated() ? kTraceFlagAnnotated : 0;
  header.fingerprint = trace.Fingerprint();
  header.num_objects = stats.num_objects;
  header.total_bytes_requested = stats.total_bytes_requested;
  header.footprint_bytes = stats.footprint_bytes;
  header.num_gets = stats.num_gets;
  header.num_sets = stats.num_sets;
  header.num_deletes = stats.num_deletes;
  header.one_hit_wonder_ratio = stats.one_hit_wonder_ratio;
  header.name_len = static_cast<uint32_t>(trace.name().size());
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(trace.name().data(), static_cast<std::streamsize>(trace.name().size()));
  WritePad(out, trace.name().size());

  const std::vector<Request>& reqs = trace.requests();
  auto write_column = [&](auto value) {
    for (uint64_t i = 0; i < reqs.size(); ++i) {
      const auto v = value(i);
      out.write(reinterpret_cast<const char*>(&v), static_cast<std::streamsize>(sizeof(v)));
    }
    WritePad(out, sizeof(value(0)) * reqs.size());
  };
  write_column([&](uint64_t i) { return reqs[i].id; });
  write_column([](uint64_t i) { return i; });  // time: the request index
  if (trace.annotated()) {
    write_column([&](uint64_t i) { return trace.next_access()[i]; });
  }
  write_column([&](uint64_t i) { return reqs[i].size; });
  write_column([](uint64_t) { return uint32_t{0}; });  // tenant
  write_column([&](uint64_t i) { return static_cast<uint8_t>(reqs[i].op); });
  if (!out) {
    Fail("short write on trace file", path);
  }
}

Trace ReadBinaryTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    Fail("cannot open trace file for reading", path);
  }
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    Fail("bad magic in trace file", path);
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) {
    Fail("truncated trace header", path);
  }
  if (version == kTraceVersionV1) {
    return ReadBinaryTraceV1(in, path, file_size);
  }
  if (version == kTraceVersionV2) {
    return ReadBinaryTraceV2(in, path, file_size);
  }
  Fail("unsupported trace version", path);
}

void WriteCsvTrace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    Fail("cannot open trace file for writing", path);
  }
  out << "time,id,size,op\n";
  const std::vector<Request>& reqs = trace.requests();
  for (uint64_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    out << i << ',' << r.id << ',' << r.size << ',' << OpToString(r.op) << '\n';
  }
  if (!out) {
    Fail("short write on trace file", path);
  }
}

Trace ReadCsvTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Fail("cannot open trace file for reading", path);
  }
  std::vector<Request> reqs;
  std::string line;
  uint64_t line_number = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    if (first && line.rfind("time,", 0) == 0) {
      first = false;
      continue;  // header
    }
    first = false;
    const auto malformed = [&] {
      Fail("malformed CSV line " + std::to_string(line_number) + " (" + line + ")", path);
    };
    std::istringstream ls(line);
    const auto next_field = [&] {
      std::string field;
      if (!std::getline(ls, field, ',')) {
        malformed();
      }
      return field;
    };
    // An unsigned decimal field no larger than `max`.
    const auto next_number = [&](uint64_t max) {
      const std::string field = next_field();
      const char* end = field.data() + field.size();
      uint64_t v = 0;
      const auto [ptr, ec] = std::from_chars(field.data(), end, v);
      if (ec != std::errc() || ptr != end || v > max) {
        malformed();
      }
      return v;
    };
    constexpr uint64_t kAny = std::numeric_limits<uint64_t>::max();
    next_number(kAny);  // the time column is checked, then dropped
    Request r;
    r.id = next_number(kAny);
    r.size = static_cast<uint32_t>(next_number(std::numeric_limits<uint32_t>::max()));
    r.op = OpFromString(next_field());
    reqs.push_back(r);
  }
  return Trace(std::move(reqs));
}

}  // namespace s3fifo

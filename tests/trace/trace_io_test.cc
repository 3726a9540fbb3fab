#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/trace/next_access.h"
#include "src/trace/trace_format.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "s3fifo_trace_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static Trace SampleTrace() {
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 100; ++i) {
      Request r;
      r.id = i * 31 % 17;
      r.size = static_cast<uint32_t>(64 + i);
      r.op = i % 5 == 0 ? OpType::kSet : (i % 11 == 0 ? OpType::kDelete : OpType::kGet);
      reqs.push_back(r);
    }
    return Trace(std::move(reqs));
  }

  // Exercises every column: a next-access column beside the requests.
  static Trace AnnotatedTrace() {
    Trace t = SampleTrace();
    std::vector<uint64_t> next_access(t.size());
    for (uint64_t i = 0; i < next_access.size(); ++i) {
      next_access[i] = i % 3 == 0 ? kNeverAccessed : i + 1 + i % 13;
    }
    t.set_next_access(std::move(next_access));
    t.set_name("annotated/sample");
    return t;
  }

  std::filesystem::path dir_;
};

TEST_F(TraceIoTest, BinaryRoundTrip) {
  Trace original = SampleTrace();
  WriteBinaryTrace(original, Path("t.bin"));
  Trace loaded = ReadBinaryTrace(Path("t.bin"));
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_EQ(loaded[i].size, original[i].size);
    EXPECT_EQ(loaded[i].op, original[i].op);
  }
}

// Regression: the v1 writer dropped next_access entirely. The v2 columnar
// format must round-trip every Request field plus the trace name and the
// next-access column.
TEST_F(TraceIoTest, BinaryRoundTripPreservesNextAccess) {
  Trace original = AnnotatedTrace();
  WriteBinaryTrace(original, Path("a.bin"));
  Trace loaded = ReadBinaryTrace(Path("a.bin"));
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_TRUE(loaded.annotated());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_EQ(loaded[i].size, original[i].size);
    EXPECT_EQ(loaded[i].op, original[i].op);
  }
  EXPECT_EQ(loaded.next_access(), original.next_access());
  EXPECT_EQ(loaded.Fingerprint(), original.Fingerprint());
}

// The same trace must always serialize to identical bytes.
TEST_F(TraceIoTest, BinaryWriteIsByteDeterministic) {
  Trace original = AnnotatedTrace();
  WriteBinaryTrace(original, Path("d1.bin"));
  WriteBinaryTrace(original, Path("d2.bin"));
  std::ifstream a(Path("d1.bin"), std::ios::binary), b(Path("d2.bin"), std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

// The v2 header carries the trace's fingerprint and a TraceStats snapshot.
TEST_F(TraceIoTest, HeaderStatsMatchComputedStats) {
  Trace trace = AnnotatedTrace();
  WriteBinaryTrace(trace, Path("h.bin"));
  std::ifstream in(Path("h.bin"), std::ios::binary);
  TraceFileHeaderV2 header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  ASSERT_TRUE(in.good());
  EXPECT_EQ(std::string(header.magic, 4), "S3FT");
  EXPECT_EQ(header.version, kTraceVersionV2);
  EXPECT_EQ(header.flags, kTraceFlagAnnotated);
  EXPECT_EQ(header.fingerprint, trace.Fingerprint());
  const TraceStats& expected = trace.Stats();
  EXPECT_EQ(header.num_requests, expected.num_requests);
  EXPECT_EQ(header.num_objects, expected.num_objects);
  EXPECT_EQ(header.total_bytes_requested, expected.total_bytes_requested);
  EXPECT_EQ(header.footprint_bytes, expected.footprint_bytes);
  EXPECT_EQ(header.num_gets, expected.num_gets);
  EXPECT_EQ(header.num_sets, expected.num_sets);
  EXPECT_EQ(header.num_deletes, expected.num_deletes);
  EXPECT_DOUBLE_EQ(header.one_hit_wonder_ratio, expected.one_hit_wonder_ratio);
  EXPECT_EQ(header.name_len, trace.name().size());
}

// Files written before the columnar format (24-byte AoS records) must stay
// readable.
TEST_F(TraceIoTest, ReadsLegacyV1Format) {
  Trace original = SampleTrace();
  std::ofstream out(Path("v1.bin"), std::ios::binary);
  out.write("S3FT", 4);
  const uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t n = original.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (uint64_t time = 0; time < n; ++time) {
    const Request& r = original[time];
    const uint8_t op = static_cast<uint8_t>(r.op);
    const uint8_t pad[3] = {0, 0, 0};
    out.write(reinterpret_cast<const char*>(&r.id), 8);
    out.write(reinterpret_cast<const char*>(&r.size), 4);
    out.write(reinterpret_cast<const char*>(&op), 1);
    out.write(reinterpret_cast<const char*>(pad), 3);
    out.write(reinterpret_cast<const char*>(&time), 8);
  }
  out.close();

  Trace loaded = ReadBinaryTrace(Path("v1.bin"));
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_EQ(loaded[i].size, original[i].size);
    EXPECT_EQ(loaded[i].op, original[i].op);
  }
}

// The on-disk bytes of generated traces are pinned: the digests below were
// recorded from files written when Request still carried time and tenant
// fields (the time column held the request index, the tenant column 0), so
// both writers must keep emitting exactly those columns.
TEST_F(TraceIoTest, GeneratedTraceWritesParentBytes) {
  ZipfWorkloadConfig config;
  config.num_objects = 500;
  config.num_requests = 3000;
  config.scan_fraction = 0.05;
  config.scan_length = 40;
  config.write_fraction = 0.1;
  config.delete_fraction = 0.05;
  config.size_sigma = 1.0;
  config.seed = 3;
  Trace plain = GenerateZipfTrace(config);
  plain.set_name("zipf/plain");
  Trace annotated = plain;
  AnnotateNextAccess(annotated);
  annotated.set_name("zipf/annotated");

  // FNV-1a over the file's bytes.
  const auto digest = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
      h = (h ^ static_cast<uint8_t>(*it)) * 0x100000001b3ULL;
    }
    return h;
  };
  WriteBinaryTrace(plain, Path("plain.bin"));
  WriteBinaryTrace(annotated, Path("annotated.bin"));
  WriteCsvTrace(plain, Path("plain.csv"));
  WriteCsvTrace(annotated, Path("annotated.csv"));
  EXPECT_EQ(digest(Path("plain.bin")), 0xf89011daa539ad37ULL);
  EXPECT_EQ(digest(Path("annotated.bin")), 0x2206bb8935f9dbeaULL);
  // CSV carries neither the name nor next_access, so both CSV files match.
  EXPECT_EQ(digest(Path("plain.csv")), 0x66caeb74c3d98d62ULL);
  EXPECT_EQ(digest(Path("annotated.csv")), 0x66caeb74c3d98d62ULL);
}

TEST_F(TraceIoTest, UnsupportedVersionThrows) {
  std::ofstream out(Path("v9.bin"), std::ios::binary);
  out.write("S3FT", 4);
  const uint32_t version = 9;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.close();
  EXPECT_THROW(ReadBinaryTrace(Path("v9.bin")), std::runtime_error);
}

TEST_F(TraceIoTest, CsvRoundTrip) {
  Trace original = SampleTrace();
  WriteCsvTrace(original, Path("t.csv"));
  Trace loaded = ReadCsvTrace(Path("t.csv"));
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_EQ(loaded[i].size, original[i].size);
    EXPECT_EQ(loaded[i].op, original[i].op);
  }
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(ReadBinaryTrace(Path("nope.bin")), std::runtime_error);
  EXPECT_THROW(ReadCsvTrace(Path("nope.csv")), std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicThrows) {
  std::ofstream out(Path("bad.bin"), std::ios::binary);
  out << "NOTATRACE___________________";
  out.close();
  EXPECT_THROW(ReadBinaryTrace(Path("bad.bin")), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBodyThrows) {
  Trace original = SampleTrace();
  WriteBinaryTrace(original, Path("t.bin"));
  // Chop the file.
  const auto size = std::filesystem::file_size(Path("t.bin"));
  std::filesystem::resize_file(Path("t.bin"), size - 10);
  EXPECT_THROW(ReadBinaryTrace(Path("t.bin")), std::runtime_error);
}

// A corrupt request count must fail as a format error before the reader
// allocates for it.
TEST_F(TraceIoTest, RequestCountBeyondFileSizeThrows) {
  const uint64_t huge = uint64_t{1} << 40;
  {
    std::ofstream out(Path("v1huge.bin"), std::ios::binary);
    out.write("S3FT", 4);
    const uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_THROW(ReadBinaryTrace(Path("v1huge.bin")), std::runtime_error);

  WriteBinaryTrace(SampleTrace(), Path("v2huge.bin"));
  {
    std::fstream f(Path("v2huge.bin"), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(offsetof(TraceFileHeaderV2, num_requests));
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_THROW(ReadBinaryTrace(Path("v2huge.bin")), std::runtime_error);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  Trace empty;
  WriteBinaryTrace(empty, Path("e.bin"));
  EXPECT_EQ(ReadBinaryTrace(Path("e.bin")).size(), 0u);
  WriteCsvTrace(empty, Path("e.csv"));
  EXPECT_EQ(ReadCsvTrace(Path("e.csv")).size(), 0u);
}

TEST_F(TraceIoTest, CsvMalformedLineThrows) {
  std::ofstream out(Path("bad.csv"));
  out << "time,id,size,op\n1,2\n";
  out.close();
  EXPECT_THROW(ReadCsvTrace(Path("bad.csv")), std::runtime_error);
}

// A malformed number is a format error naming the path and the line, not a
// bare std::invalid_argument from the number parser.
TEST_F(TraceIoTest, CsvMalformedNumberThrowsWithPathAndLine) {
  std::ofstream out(Path("badnum.csv"));
  out << "time,id,size,op\n0,1,2,get\nabc,1,2,get\n";
  out.close();
  try {
    ReadCsvTrace(Path("badnum.csv"));
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(Path("badnum.csv")), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

// A size beyond the 32-bit size field is rejected, not narrowed.
TEST_F(TraceIoTest, CsvSizeAboveUint32MaxThrows) {
  std::ofstream out(Path("bigsize.csv"));
  out << "1,2,99999999999,get\n";
  out.close();
  EXPECT_THROW(ReadCsvTrace(Path("bigsize.csv")), std::runtime_error);

  std::ofstream edge(Path("maxsize.csv"));
  edge << "1,2,4294967295,get\n";
  edge.close();
  const Trace t = ReadCsvTrace(Path("maxsize.csv"));
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].size, 4294967295u);
}

TEST_F(TraceIoTest, CsvUnknownOpThrows) {
  std::ofstream out(Path("badop.csv"));
  out << "time,id,size,op\n1,2,3,frobnicate\n";
  out.close();
  EXPECT_THROW(ReadCsvTrace(Path("badop.csv")), std::runtime_error);
}

}  // namespace
}  // namespace s3fifo

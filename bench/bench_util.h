// Shared helpers for the figure/table benchmark binaries.
//
// Every bench honours S3FIFO_BENCH_SCALE (a multiplier on trace lengths /
// counts; default 1.0 = laptop scale, larger = closer to paper scale).
// Sweep-driven benches additionally take --threads=N (0 = hardware
// concurrency) and write a machine-readable BENCH_<name>.json next to the
// human-readable table so the perf trajectory can be tracked across PRs.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/utsname.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/server/cli_args.h"

// Set by bench/CMakeLists.txt; the fallbacks keep the header usable alone.
#ifndef S3FIFO_SOURCE_DIR
#define S3FIFO_SOURCE_DIR "."
#endif
#ifndef S3FIFO_BUILD_TYPE
#define S3FIFO_BUILD_TYPE "unknown"
#endif

namespace s3fifo {

struct BenchOptions {
  unsigned threads = 0;  // sweep parallelism; 0 = hardware concurrency
  // MRC computation mode for the miss-ratio sweeps: "onepass" (default;
  // the FIFO family and LRU use the exact one-pass engine) or "brute" (one
  // simulation per size — the escape hatch / reference path). Parsed by
  // ParseMrcMode in src/analysis/mrc_engine.h at the call site.
  std::string mrc = "onepass";
};

[[noreturn]] inline void BenchUsage(const char* argv0, int status) {
  std::fprintf(status == 0 ? stdout : stderr,
               "usage: %s [--threads=N] [--mrc=MODE]\n"
               "  --threads=N  sweep worker threads (0 = hardware concurrency)\n"
               "  --mrc=MODE   miss-ratio sweeps: onepass (default) | brute\n"
               "  env S3FIFO_BENCH_SCALE=X scales trace lengths (X > 0, default 1.0)\n",
               argv0);
  std::exit(status);
}

// S3FIFO_BENCH_SCALE, or 1.0 when unset. Anything but one positive number
// ("abc", "2x", "-1", "0") prints the usage and exits with status 2.
inline double BenchScale() {
  const char* env = std::getenv("S3FIFO_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  double v = 0;
  if (!ParseRealArg(env, &v) || v <= 0) {
    std::fprintf(stderr, "error: S3FIFO_BENCH_SCALE must be a positive number, not '%s'\n", env);
    BenchUsage(program_invocation_short_name, 2);
  }
  return v;
}

// Exits with status 2 and the usage text on any argument it does not know,
// on a --threads value that is not a whole number, and on a malformed
// S3FIFO_BENCH_SCALE, so a bad invocation stops before any work starts.
inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      uint64_t threads = 0;
      if (!ParseUintArg(arg + 10, 0, std::numeric_limits<unsigned>::max(), &threads)) {
        std::fprintf(stderr, "error: --threads must be a whole number, not '%s'\n", arg + 10);
        BenchUsage(argv[0], 2);
      }
      opts.threads = static_cast<unsigned>(threads);
    } else if (std::strncmp(arg, "--mrc=", 6) == 0) {
      opts.mrc = arg + 6;
      if (opts.mrc != "onepass" && opts.mrc != "brute") {
        std::fprintf(stderr, "error: --mrc must be onepass or brute, not '%s'\n", arg + 6);
        BenchUsage(argv[0], 2);
      }
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      BenchUsage(argv[0], 0);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg);
      BenchUsage(argv[0], 2);
    }
  }
  BenchScale();
  return opts;
}

// The comparison set used by the miss-ratio figures (name, factory name).
inline const std::vector<std::string>& ComparisonPolicies() {
  static const std::vector<std::string>* policies = new std::vector<std::string>{
      "s3fifo", "tinylfu", "tinylfu-0.1", "lirs", "2q",   "arc",        "slru",
      "lru",    "clock",   "lecar",       "lhd",  "blru", "fifo-merge", "cacheus",
  };
  return *policies;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("scale: %.2f (set S3FIFO_BENCH_SCALE to change)\n", BenchScale());
  std::printf("==============================================================\n");
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Minimal JSON object builder for the BENCH_<name>.json emitters. Values are
// serialized immediately; insertion order is preserved.
class JsonFields {
 public:
  JsonFields& Add(const std::string& key, const std::string& v) {
    return AddRaw(key, "\"" + Escaped(v) + "\"");
  }
  JsonFields& Add(const std::string& key, const char* v) { return Add(key, std::string(v)); }
  JsonFields& Add(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return AddRaw(key, buf);
  }
  JsonFields& Add(const std::string& key, uint64_t v) { return AddRaw(key, std::to_string(v)); }
  JsonFields& Add(const std::string& key, unsigned v) { return AddRaw(key, std::to_string(v)); }
  JsonFields& Add(const std::string& key, int v) { return AddRaw(key, std::to_string(v)); }
  JsonFields& Add(const std::string& key, bool v) { return AddRaw(key, v ? "true" : "false"); }

  std::string Serialize() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }
  JsonFields& AddRaw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

// Where and how a BENCH file was recorded, so rows from different commits,
// machines or builds are never compared blind: the source tree's commit
// ("-dirty" when it has uncommitted changes; "none" outside a git checkout),
// the online CPU count, the CPU model, the kernel release, the CMake build
// type (plus sanitizers, if any) and S3FIFO_BENCH_SCALE.
inline JsonFields BenchProvenance() {
  std::string sha = "none";
  if (std::FILE* git = popen("git -C \"" S3FIFO_SOURCE_DIR
                             "\" describe --always --dirty --abbrev=40 2>/dev/null",
                             "r")) {
    char buf[128] = {};
    if (std::fgets(buf, sizeof(buf), git) != nullptr && buf[0] != '\0') {
      sha.assign(buf, std::strcspn(buf, "\n"));
    }
    if (pclose(git) != 0) {
      sha = "none";
    }
  }
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname uts{};
  const std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  return JsonFields()
      .Add("git_sha", sha)
      .Add("nproc", std::thread::hardware_concurrency())
      .Add("cpu_model", cpu_model)
      .Add("kernel", kernel)
      .Add("build_type", S3FIFO_BUILD_TYPE)
      .Add("bench_scale", BenchScale());
}

// Writes BENCH_<bench_name>.json into the working directory:
// {"bench": ..., "provenance": {...}, "summary": {...}, "rows": [{...}, ...]}.
inline void WriteBenchJson(const std::string& bench_name, const JsonFields& summary,
                           const std::vector<JsonFields>& rows) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"provenance\": %s,\n  \"summary\": %s,\n  \"rows\": [",
               bench_name.c_str(), BenchProvenance().Serialize().c_str(),
               summary.Serialize().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i > 0 ? "," : "", rows[i].Serialize().c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\n[bench] wrote %s\n", path.c_str());
}

}  // namespace s3fifo

#endif  // BENCH_BENCH_UTIL_H_

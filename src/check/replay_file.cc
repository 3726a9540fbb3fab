#include "src/check/replay_file.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace s3fifo {
namespace check {
namespace {

std::string OpToken(OpType op) {
  switch (op) {
    case OpType::kGet:
      return "get";
    case OpType::kSet:
      return "set";
    case OpType::kDelete:
      return "del";
  }
  return "get";
}

OpType TokenToOp(const std::string& token) {
  if (token == "get") {
    return OpType::kGet;
  }
  if (token == "set") {
    return OpType::kSet;
  }
  if (token == "del") {
    return OpType::kDelete;
  }
  throw std::invalid_argument("replay: unknown op '" + token + "'");
}

}  // namespace

std::string FormatReplay(const ReplayCase& replay) {
  std::ostringstream out;
  out << "# differential reproducer (" << replay.requests.size() << " requests)\n";
  if (replay.mode == "flash") {
    out << "mode flash\n";
    out << "flash " << replay.flash_config << "\n";
    out << "admission " << replay.admission << "\n";
    out << "reuse_horizon " << replay.reuse_horizon << "\n";
    out << "admission_seed " << replay.admission_seed << "\n";
    if (replay.resize_period > 0) {
      out << "resizes " << replay.resize_period << " " << replay.resize_seed << " "
          << replay.resize_min_segments << " " << replay.resize_span << "\n";
    }
  } else {
    out << "policy " << replay.policy << "\n";
    out << "capacity " << replay.config.capacity << "\n";
    out << "count_based " << (replay.config.count_based ? 1 : 0) << "\n";
    if (!replay.config.params.empty()) {
      out << "params " << replay.config.params << "\n";
    }
    out << "seed " << replay.config.seed << "\n";
  }
  out << "fuzz_seed " << replay.fuzz_seed << "\n";
  for (const Request& r : replay.requests) {
    out << "req " << OpToken(r.op) << " " << r.id << " " << r.size << "\n";
  }
  return out.str();
}

ReplayCase ParseReplay(const std::string& text) {
  ReplayCase replay;
  bool saw_policy = false;
  bool saw_capacity = false;
  std::istringstream in(text);
  std::string line;
  uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key) || key[0] == '#') {
      continue;
    }
    if (key == "mode") {
      fields >> replay.mode;
      if (replay.mode != "policy" && replay.mode != "flash") {
        throw std::invalid_argument("replay: unknown mode '" + replay.mode + "'");
      }
    } else if (key == "flash") {
      fields >> replay.flash_config;
    } else if (key == "admission") {
      fields >> replay.admission;
    } else if (key == "reuse_horizon") {
      fields >> replay.reuse_horizon;
    } else if (key == "admission_seed") {
      fields >> replay.admission_seed;
    } else if (key == "resizes") {
      if (!(fields >> replay.resize_period >> replay.resize_seed >>
            replay.resize_min_segments >> replay.resize_span)) {
        throw std::invalid_argument("replay: malformed resizes line");
      }
    } else if (key == "policy") {
      fields >> replay.policy;
      saw_policy = !replay.policy.empty();
    } else if (key == "capacity") {
      if (!(fields >> replay.config.capacity)) {
        throw std::invalid_argument("replay: bad capacity");
      }
      saw_capacity = true;
    } else if (key == "count_based") {
      int v = 1;
      fields >> v;
      replay.config.count_based = v != 0;
    } else if (key == "params") {
      fields >> replay.config.params;
    } else if (key == "seed") {
      fields >> replay.config.seed;
    } else if (key == "fuzz_seed") {
      fields >> replay.fuzz_seed;
    } else if (key == "req") {
      std::string op;
      Request r;
      if (!(fields >> op >> r.id >> r.size)) {
        std::ostringstream err;
        err << "replay: malformed req on line " << lineno;
        throw std::invalid_argument(err.str());
      }
      r.op = TokenToOp(op);
      replay.requests.push_back(r);
    } else {
      throw std::invalid_argument("replay: unknown key '" + key + "'");
    }
  }
  if (replay.mode == "flash") {
    if (replay.flash_config.empty()) {
      throw std::invalid_argument("replay: flash mode requires a 'flash' config line");
    }
  } else if (!saw_policy || !saw_capacity) {
    throw std::invalid_argument("replay: missing required 'policy' or 'capacity' line");
  }
  return replay;
}

void WriteReplayFile(const ReplayCase& replay, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("replay: cannot open for write: " + path);
  }
  out << FormatReplay(replay);
  if (!out) {
    throw std::runtime_error("replay: write failed: " + path);
  }
}

ReplayCase ReadReplayFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("replay: cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseReplay(buf.str());
}

}  // namespace check
}  // namespace s3fifo

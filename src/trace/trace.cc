#include "src/trace/trace.h"

#include <stdexcept>

#include "src/util/flat_map.h"
#include "src/util/hash.h"

namespace s3fifo {

Trace::Trace(std::vector<Request> requests, std::string name)
    : requests_(std::move(requests)), name_(std::move(name)) {}

void Trace::set_next_access(std::vector<uint64_t> next_access) {
  if (next_access.size() != requests_.size()) {
    throw std::invalid_argument("next-access column must hold one entry per request");
  }
  next_access_ = std::move(next_access);
  annotated_ = true;
}

void Trace::Append(const Request& req) {
  requests_.push_back(req);
  stats_valid_ = false;
  annotated_ = false;
  next_access_.clear();
}

uint64_t Trace::Fingerprint() const {
  uint64_t h = 0x5851f42d4c957f2dULL;
  for (const Request& r : requests_) {
    h = Mix64(h ^ r.id);
    h = Mix64(h ^ (static_cast<uint64_t>(r.size) << 8) ^ static_cast<uint64_t>(r.op));
  }
  return h;
}

const TraceStats& Trace::Stats() const {
  if (stats_valid_) {
    return stats_;
  }
  struct PerObject {
    uint64_t count;
    uint32_t last_size;
  };
  constexpr size_t kPrefetchAhead = 16;  // requests ahead whose probe lines are fetched
  TraceStats s;
  s.num_requests = requests_.size();
  FlatMap<PerObject> objects;
  const size_t n = requests_.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      objects.Prefetch(requests_[i + kPrefetchAhead].id);
    }
    const Request& r = requests_[i];
    switch (r.op) {
      case OpType::kGet:
        ++s.num_gets;
        break;
      case OpType::kSet:
        ++s.num_sets;
        break;
      case OpType::kDelete:
        ++s.num_deletes;
        break;
    }
    if (r.op == OpType::kDelete) {
      continue;  // deletes do not count toward popularity
    }
    s.total_bytes_requested += r.size;
    PerObject& o = *objects.Emplace(r.id);
    ++o.count;
    o.last_size = r.size;
  }
  s.num_objects = objects.size();
  uint64_t one_hit = 0;
  objects.ForEach([&](uint64_t /*id*/, const PerObject& o) {
    one_hit += o.count == 1 ? 1 : 0;
    s.footprint_bytes += o.last_size;
  });
  s.one_hit_wonder_ratio =
      s.num_objects == 0 ? 0.0
                         : static_cast<double>(one_hit) / static_cast<double>(s.num_objects);
  stats_ = s;
  stats_valid_ = true;
  return stats_;
}

}  // namespace s3fifo

#include "src/trace/next_access.h"

#include <unordered_map>
#include <vector>

namespace s3fifo {

void AnnotateNextAccess(Trace& trace) {
  const std::vector<Request>& reqs = trace.requests();
  std::vector<uint64_t> next_access(reqs.size());
  std::unordered_map<uint64_t, uint64_t> next_seen;
  next_seen.reserve(reqs.size() / 4 + 16);
  for (size_t i = reqs.size(); i-- > 0;) {
    auto it = next_seen.find(reqs[i].id);
    next_access[i] = it == next_seen.end() ? kNeverAccessed : it->second;
    next_seen[reqs[i].id] = i;
  }
  trace.set_next_access(std::move(next_access));
}

}  // namespace s3fifo

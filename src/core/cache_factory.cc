#include "src/core/cache_factory.h"

#include <stdexcept>

#include "src/policies/arc.h"
#include "src/policies/belady.h"
#include "src/policies/blru.h"
#include "src/policies/cacheus.h"
#include "src/policies/clock.h"
#include "src/policies/fifo.h"
#include "src/policies/fifo_merge.h"
#include "src/policies/lecar.h"
#include "src/policies/lhd.h"
#include "src/policies/lirs.h"
#include "src/policies/lrb_lite.h"
#include "src/policies/lru.h"
#include "src/policies/s3fifo.h"
#include "src/policies/s3fifo_d.h"
#include "src/policies/sieve.h"
#include "src/policies/slru.h"
#include "src/policies/tinylfu.h"
#include "src/policies/twoq.h"

namespace s3fifo {
namespace {

CacheConfig WithParams(const CacheConfig& config, const std::string& extra) {
  CacheConfig c = config;
  c.params = c.params.empty() ? extra : extra + "," + c.params;
  return c;
}

}  // namespace

std::unique_ptr<Cache> CreateCache(std::string_view name, const CacheConfig& config) {
  const std::string n(name);
  if (n == "fifo") {
    return std::make_unique<FifoCache>(config);
  }
  if (n == "lru") {
    return std::make_unique<LruCache>(config);
  }
  if (n == "clock" || n == "fifo-reinsertion" || n == "second-chance") {
    return std::make_unique<ClockCache>(config);
  }
  if (n == "sieve") {
    return std::make_unique<SieveCache>(config);
  }
  if (n == "slru") {
    return std::make_unique<SlruCache>(config);
  }
  if (n == "2q" || n == "twoq") {
    return std::make_unique<TwoQCache>(config);
  }
  if (n == "arc") {
    return std::make_unique<ArcCache>(config);
  }
  if (n == "lirs") {
    return std::make_unique<LirsCache>(config);
  }
  if (n == "tinylfu") {
    return std::make_unique<TinyLfuCache>(config);
  }
  if (n == "tinylfu-0.1") {
    // The paper's larger-window variant (§5.2).
    return std::make_unique<TinyLfuCache>(WithParams(config, "window_ratio=0.1"));
  }
  if (n == "blru" || n == "b-lru") {
    return std::make_unique<BLruCache>(config);
  }
  if (n == "lecar") {
    return std::make_unique<LeCarCache>(config);
  }
  if (n == "cacheus") {
    return std::make_unique<CacheusCache>(config);
  }
  if (n == "lhd") {
    return std::make_unique<LhdCache>(config);
  }
  if (n == "lrb-lite" || n == "lrb") {
    return std::make_unique<LrbLiteCache>(config);
  }
  if (n == "fifo-merge" || n == "segcache") {
    return std::make_unique<FifoMergeCache>(config);
  }
  if (n == "belady" || n == "opt") {
    return std::make_unique<BeladyCache>(config);
  }
  if (n == "s3fifo") {
    return std::make_unique<S3FifoCache>(config);
  }
  if (n == "s3fifo-d") {
    return std::make_unique<S3FifoDCache>(config);
  }
  throw std::invalid_argument("unknown cache policy: " + n);
}

const std::vector<std::string>& AllCacheNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "fifo", "lru", "clock", "sieve", "slru", "2q", "arc", "lirs", "tinylfu",
      "tinylfu-0.1", "blru", "lecar", "cacheus", "lhd", "lrb-lite", "fifo-merge",
      "belady", "s3fifo", "s3fifo-d",
  };
  return *names;
}

}  // namespace s3fifo

// Central registry mapping policy names to constructors so benches, tests
// and examples can sweep algorithms by string name.
#ifndef SRC_CORE_CACHE_FACTORY_H_
#define SRC_CORE_CACHE_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cache.h"

namespace s3fifo {

// Known names (aliases in parentheses):
//   fifo, lru, clock (fifo-reinsertion, second-chance), sieve, slru,
//   2q (twoq), arc, lirs, tinylfu, tinylfu-0.1, blru (b-lru), lecar, cacheus,
//   lhd, lrb-lite (lrb), fifo-merge (segcache), belady (opt), s3fifo, s3fifo-d
// Throws std::invalid_argument for unknown names.
std::unique_ptr<Cache> CreateCache(std::string_view name, const CacheConfig& config);

// All canonical policy names, in a stable presentation order.
const std::vector<std::string>& AllCacheNames();

}  // namespace s3fifo

#endif  // SRC_CORE_CACHE_FACTORY_H_

// Inert seam: servebench still compiles against the serve-layer RPD cache's
// name and config, but the library holds no RPD cache — Eq. 4 is counted
// directly per uploaded point (wifi/confidence.hpp).  Nothing here is ever
// consulted by the library.
#pragma once

#include <cstddef>

#include "wifi/rpd.hpp"

namespace trajkit::serve {

/// Inert seam kept for servebench: stores nothing and reports zero traffic.
class ShardedRpdLruCache final : public wifi::RpdStatsCache {
 public:
  struct Config {
    std::size_t capacity = 1 << 16;
    std::size_t shards = 16;
  };

  ShardedRpdLruCache() = default;
  explicit ShardedRpdLruCache(Config config) { (void)config; }

  std::size_t size() const { return 0; }
};

}  // namespace trajkit::serve

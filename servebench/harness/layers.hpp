// Timing decorators the traced run injects through the program's own seams:
// an RpdStatsCache installed with RssiDetector::set_rpd_cache, and a
// net::Transport handed to RemoteSegmentClient.  Both forward every call
// unchanged and only time it from outside.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "serve/rpd_lru_cache.hpp"
#include "trace.hpp"

namespace servebench {

/// Times each RPD statistics build (a cache miss) of the wrapped cache.
class TimingRpdCache final : public trajkit::wifi::RpdStatsCache {
 public:
  explicit TimingRpdCache(std::shared_ptr<trajkit::serve::ShardedRpdLruCache> inner)
      : inner_(std::move(inner)) {}

  std::shared_ptr<const trajkit::wifi::RpdPointStats> get_or_build(
      std::size_t h, const std::function<trajkit::wifi::RpdPointStats()>& build) override {
    return inner_->get_or_build(h, [&] {
      const std::int64_t t0 = now_ns();
      auto stats = build();
      build_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      builds_.fetch_add(1, std::memory_order_relaxed);
      return stats;
    });
  }
  void invalidate(const std::vector<std::size_t>& keys) override { inner_->invalidate(keys); }
  CacheStats stats() const override { return inner_->stats(); }

  std::uint64_t builds() const { return builds_.load(); }
  double build_us_mean() const {
    const auto n = builds_.load();
    return n ? static_cast<double>(build_ns_.load()) * 1e-3 / static_cast<double>(n) : 0.0;
  }

 private:
  std::shared_ptr<trajkit::serve::ShardedRpdLruCache> inner_;
  std::atomic<std::int64_t> build_ns_{0};
  std::atomic<std::uint64_t> builds_{0};
};

/// Times every RPC and counts the bytes it moves (request + response).
class TimingTransport final : public trajkit::net::Transport {
 public:
  explicit TimingTransport(trajkit::net::Transport& inner) : inner_(inner) {}

  trajkit::net::CallResult call(const std::string& endpoint, std::string_view request,
                                const trajkit::net::CallOptions& opts) override {
    const std::int64_t t0 = now_ns();
    auto result = inner_.call(endpoint, request, opts);
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    std::lock_guard<std::mutex> lock(mu_);
    rpc_us_.push_back(us);
    bytes_ += request.size() + result.payload.size();
    return result;
  }

  std::vector<double> rpc_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rpc_us_;
  }
  std::uint64_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

 private:
  trajkit::net::Transport& inner_;
  mutable std::mutex mu_;
  std::vector<double> rpc_us_;
  std::uint64_t bytes_ = 0;
};

}  // namespace servebench

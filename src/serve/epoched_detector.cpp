#include "serve/epoched_detector.hpp"

#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace trajkit::serve {

const ShardedRpdLruCache* EpochedDetector::cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.cache.get();
}

std::uint64_t EpochedDetector::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.epoch;
}

std::size_t EpochedDetector::published_points() const {
  const auto serving = detector();
  return serving ? serving->index().size() : 0;
}

Expected<EpochBuild, std::string> EpochedDetector::build_next(
    std::vector<wifi::ReferencePoint> points, bool filtered) const {
  using Result = Expected<EpochBuild, std::string>;
  const State cur = state();
  if (!cur.detector) return Result::failure("no serving detector");
  const wifi::RssiDetector& serving = *cur.detector;
  // Carry-forward keys the LRU on reference-point indices of an append-only
  // point set.  A filtered set breaks that (points drop out of the middle),
  // and so does building on top of a filtered epoch (its points no longer
  // name a store prefix) — both take the cold path.
  const bool cold = filtered || cur.filtered;
  std::unordered_set<std::size_t> affected;
  if (!cold) {
    const std::size_t covered = serving.index().size();
    if (points.size() < covered) {
      return Result::failure(
          "point set shrank below the serving epoch (epochs are append-only)");
    }
    const double radius = serving.confidence().rpd().params().counting_radius_m;
    for (std::size_t i = covered; i < points.size(); ++i) {
      for (const std::size_t h : serving.index().within(points[i].pos, radius)) {
        affected.insert(h);
      }
    }
  }
  EpochBuild next;
  next.filtered = filtered;
  next.detector = wifi::RssiDetector::assemble(
      std::move(points), serving.config(), serving.classifier(),
      serving.trained_points(), serving.index().bounds());
  if (cur.cache) {
    next.cache = cold ? std::make_shared<ShardedRpdLruCache>(cur.cache->config())
                      : cur.cache->carry_forward(affected);
  }
  return Result(std::move(next));
}

void EpochedDetector::install(EpochBuild next, std::uint64_t epoch) {
  if (!next.detector) throw std::invalid_argument("EpochedDetector: null detector");
  if (next.cache) next.detector->set_rpd_cache(next.cache);
  State retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired = std::exchange(state_, State{std::move(next.detector),
                                          std::move(next.cache), epoch,
                                          next.filtered});
  }
  // `retired` drops here, outside the lock: when no reader still holds the
  // old epoch, its index and cache are freed without stalling snapshots.
}

}  // namespace trajkit::serve

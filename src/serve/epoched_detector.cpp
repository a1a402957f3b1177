#include "serve/epoched_detector.hpp"

#include <stdexcept>
#include <utility>

namespace trajkit::serve {

std::uint64_t EpochedDetector::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.epoch;
}

std::size_t EpochedDetector::published_points() const {
  const auto serving = detector();
  return serving ? serving->index().size() : 0;
}

Expected<EpochBuild, std::string> EpochedDetector::build_next(wifi::PointArrays points,
                                                              bool filtered) const {
  using Result = Expected<EpochBuild, std::string>;
  const State cur = state();
  if (!cur.detector) return Result::failure("no serving detector");
  const wifi::RssiDetector& serving = *cur.detector;
  // A filtered set drops points out of the middle, and a set built on top of
  // a filtered epoch no longer names a store prefix — only unfiltered builds
  // over an unfiltered epoch can be held to append-only growth.
  if (!filtered && !cur.filtered && points.size() < serving.index().size()) {
    return Result::failure(
        "point set shrank below the serving epoch (epochs are append-only)");
  }
  EpochBuild next;
  next.filtered = filtered;
  next.detector = wifi::RssiDetector::assemble(
      std::move(points), serving.config(), serving.classifier(),
      serving.trained_points(), serving.index().bounds());
  return Result(std::move(next));
}

void EpochedDetector::install(EpochBuild next, std::uint64_t epoch) {
  if (!next.detector) throw std::invalid_argument("EpochedDetector: null detector");
  State retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired = std::exchange(
        state_, State{std::move(next.detector), epoch, next.filtered});
  }
  // `retired` drops here, outside the lock: when no reader still holds the
  // old epoch, its index is freed without stalling snapshots.
}

}  // namespace trajkit::serve

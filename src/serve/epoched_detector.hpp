// The serving core's epoch holder: one RCU cell for the detector a process
// (VerifierService) or a geo-shard (ShardService) serves, and the model epoch
// it belongs to.
//
// Readers snapshot the detector once per request or segment: a shared_ptr
// copy under a mutex that a flip holds only for the pointer swap, so a
// publish never blocks serving.  A snapshot taken before a flip keeps that
// epoch's detector (and its reference index) alive until the reader lets go —
// in-flight work finishes on the epoch it started on.
//
// A new epoch is build-then-flip:
//
//   build_next  assemble the replacement over the new point set, reusing the
//               serving classifier/config/threshold, under the serving
//               index's pinned grid bounds — within() iteration order (and
//               every float accumulation downstream) is unchanged, so
//               verdicts the appended points do not reach stay bit-identical.
//               No derived RPD state is carried between epochs: Eq. 4 is
//               counted per request from the index itself.
//   install     swap it in as the serving epoch.
//
// Callers put their own durability steps (artifact commit, "#epoch N" WAL
// marker) between the two, so nothing becomes visible before it is durable.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "wifi/detector.hpp"

namespace trajkit::serve {

/// One epoch's serving state, built off to the side and invisible until
/// EpochedDetector::install.
struct EpochBuild {
  std::shared_ptr<wifi::RssiDetector> detector;
  /// Built from a filtered (quarantine-excluding) point set: its points are
  /// not a prefix of the store, so the next build may not check it for
  /// append-only growth.
  bool filtered = false;
};

class EpochedDetector {
 public:
  /// The whole serving state, captured under one lock.
  struct State {
    std::shared_ptr<const wifi::RssiDetector> detector;
    std::uint64_t epoch = 0;
    bool filtered = false;
  };

  /// Hot-path snapshot: the serving detector (null until the first install).
  std::shared_ptr<const wifi::RssiDetector> detector() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_.detector;
  }

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  /// Model epoch currently serving.
  std::uint64_t epoch() const;
  /// Reference points the serving detector's index covers (0 when empty).
  std::size_t published_points() const;

  /// Build the next epoch over `points` from the serving one (see the file
  /// comment).  An unfiltered build on top of an unfiltered epoch must extend
  /// the serving point set — a shorter set is refused, epochs are
  /// append-only.  A `filtered` build, or any build on top of a filtered
  /// epoch, skips that check.
  Expected<EpochBuild, std::string> build_next(
      std::vector<wifi::ReferencePoint> points, bool filtered = false) const;

  /// Make `next` the serving epoch (RCU flip).  Readers holding an older
  /// snapshot keep it; new snapshots see `next`.
  void install(EpochBuild next, std::uint64_t epoch);

 private:
  mutable std::mutex mu_;
  State state_;
};

}  // namespace trajkit::serve

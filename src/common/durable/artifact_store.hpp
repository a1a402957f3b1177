// Versioned artifact store: epoch-numbered model/data snapshots behind one
// Expected-based load/publish API.
//
// A serving process that wants to republish a retrained model without
// dropping requests needs more than one live file overwritten in place: old
// epochs must stay readable while in-flight work finishes on them, and the
// "which epoch is live" decision must itself be crash-safe.
//
// The store keeps every published artifact under
//
//   dir/<kind>.<epoch>       one CRC-framed durable container per publish
//   dir/CURRENT              durable pointer: one "kind epoch" line per kind
//
// publish_payload() commits the artifact file first (atomic
// temp+fsync+rename via common/durable), then flips CURRENT — also
// atomically.  A crash between the two stages leaves a fully-written orphan
// artifact and a CURRENT that still names the previous epoch: reopening
// serves the old epoch, exactly as if the publish never happened, and the
// next publish picks a strictly larger epoch than any file on disk (orphans
// included), so epochs are monotone across crashes.  The gap is an explicit
// fault/crash point (kFaultPublishCurrent) that tests/hotswap_test.cpp walks
// with the fork harness.
//
// Payloads are opaque bytes.  A model rides the store as its own in-memory
// image: the serving layer publishes RssiDetector::image() and decodes what
// read_payload returns with RssiDetector::decode (serve/service.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"

namespace trajkit::durable {

/// Fault/crash point between an artifact file commit and the CURRENT flip,
/// keyed by path_fault_key of the CURRENT file.  A crash here is the
/// "published but not yet live" state the recovery tests aim at.
inline constexpr const char* kFaultPublishCurrent = "artifact.publish_current";

class ArtifactStore {
 public:
  /// Resolve "the epoch CURRENT names" in read_payload.
  static constexpr std::uint64_t kCurrentEpoch = 0;

  /// Open (creating if needed) the store rooted at directory `dir` and load
  /// the CURRENT pointer.  A missing CURRENT is a fresh store, not an error.
  static Expected<std::unique_ptr<ArtifactStore>, std::string> open_dir(
      const std::string& dir);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Commit `payload` as the next epoch of `kind` and flip CURRENT to it.
  /// Returns the epoch it was published under (monotonically increasing per
  /// kind, strictly above every artifact file on disk — crash orphans
  /// included).
  Expected<std::uint64_t, std::string> publish_payload(const std::string& kind,
                                                       std::string_view payload);

  /// Read one epoch's payload back (kCurrentEpoch = whatever CURRENT names).
  Expected<std::string, std::string> read_payload(const std::string& kind,
                                                  std::uint64_t epoch) const;

  /// Epoch CURRENT names for `kind`; 0 when the kind was never published.
  std::uint64_t current_epoch(const std::string& kind) const;

  /// Every kind CURRENT names, with its live epoch (deterministic order).
  const std::map<std::string, std::uint64_t>& current() const { return current_; }

  /// On-disk path of one epoch's artifact file.
  std::string artifact_path(const std::string& kind, std::uint64_t epoch) const;
  static std::string current_path(const std::string& dir);
  const std::string& dir() const { return dir_; }

 private:
  explicit ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

  Expected<bool, std::string> write_current() const;

  std::string dir_;
  std::map<std::string, std::uint64_t> current_;
};

}  // namespace trajkit::durable

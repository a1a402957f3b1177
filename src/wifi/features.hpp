// The upload the RSSI detector featurises, and its Eq. 8 feature layout.
//
// For every point P_j of the uploaded trajectory, the features are the pairs
// (Num_mac, Phi(rssi)) of its k strongest APs, concatenated over all n
// points: feature = [feat_1, ..., feat_n], |feature| = 2 * k * n.  Points
// that hear fewer than k APs are padded with (0, 0) — "no reference evidence"
// and "no confidence" coincide, which is exactly what the classifier should
// treat as missing.  RssiDetector::segment_features (wifi/detector.hpp) is
// the one loop that fills this layout.
#pragma once

#include <vector>

#include "wifi/confidence.hpp"

namespace trajkit::wifi {

/// An uploaded trajectory as the detector sees it: claimed positions plus the
/// scan reported at each (paper Sec. III-B design goal).
struct ScannedUpload {
  std::vector<Enu> positions;
  std::vector<WifiScan> scans;
  /// When the upload is itself one of the provider's historical trajectories
  /// (the paper trains on them), its own reference points must not vote on
  /// it; kNoTrajectory for fresh uploads.
  std::uint32_t source_traj_id = kNoTrajectory;
};

}  // namespace trajkit::wifi

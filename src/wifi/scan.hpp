// WiFi scan vocabulary shared between the simulator (which produces scans)
// and the detector (which verifies them).
//
// A scan is the client-side observation at one trajectory point: the paper's
// P_i = [loc_i, RSSI_i, MAC_i] carries the RSSIs and MACs of the m APs heard
// at that point.  RSSIs are integer dBm, as reported by real drivers.
#pragma once

#include <cstdint>
#include <vector>

namespace trajkit::wifi {

/// Physical bounds on a believable RSSI.  The simulator's visibility floor is
/// -85 dBm and real hardware bottoms out near -100; +30 dBm would be a
/// transmitter pressed against the antenna.  Anything outside is garbage:
/// validation rejects it, and the reference index cannot store it.
inline constexpr int kMinValidRssiDbm = -120;
inline constexpr int kMaxValidRssiDbm = 30;

/// One observed AP in a scan.
struct ApObservation {
  std::uint64_t mac = 0;
  int rssi_dbm = 0;

  friend bool operator==(const ApObservation&, const ApObservation&) = default;
};

/// A scan: visible APs sorted by descending RSSI (strongest first).
using WifiScan = std::vector<ApObservation>;

}  // namespace trajkit::wifi

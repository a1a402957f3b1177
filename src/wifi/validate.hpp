// Validation of untrusted wifi-layer inputs.
//
// Uploads and crowdsourced scans arrive from outside the trust boundary (the
// paper's threat model is exactly that the claimed data is forged), so before
// anything reaches the reference index or the journal it passes through these
// checks: coordinates must be finite and within a plausible ENU envelope,
// RSSIs within physical bounds, AP lists bounded.  Every rejection is a
// diagnostic string via Expected — no exceptions, no partial acceptance.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/expected.hpp"
#include "wifi/features.hpp"
#include "wifi/provenance.hpp"
#include "wifi/refindex.hpp"

namespace trajkit::wifi {

/// Cap on APs per scan; dense urban scans see dozens, never hundreds.
inline constexpr std::size_t kMaxScanAps = 512;

/// Cap on points per upload (a multi-hour trace at 1 Hz is ~10^4).
inline constexpr std::size_t kMaxUploadPoints = 100'000;

/// Envelope on |east| / |north| in metres: generously past any single ENU
/// frame's validity (half the Earth's circumference), tight enough to reject
/// coordinates that are clearly not metres.
inline constexpr double kMaxEnuAbsM = 2.1e7;

/// Whether `pos` is finite and inside the kMaxEnuAbsM envelope.
bool position_ok(const Enu& pos);

/// Checks one scan: AP count within bounds and every RSSI physical.
Expected<bool, std::string> validate_scan(const WifiScan& scan);

/// Checks one crowdsourced reference point: finite in-envelope position plus
/// a valid scan.
Expected<bool, std::string> validate_reference_point(const ReferencePoint& p);

/// Checks one uploaded trajectory: non-empty, positions/scans aligned, size
/// bounded, every position finite and in-envelope, every scan valid.
Expected<bool, std::string> validate_upload(const ScannedUpload& upload);

/// Per-uploader ingestion rate cap.  Shape bounds (above) limit what one
/// record can claim; this limits how *many* records one identity can land in
/// a window, so a single Sybil cannot flood a cell's statistics between two
/// reputation checkpoints.  The window is measured in accepted appends (the
/// store's logical clock), not wall time, so admission decisions replay
/// deterministically.  0 in either field disables the cap.
struct UploaderRatePolicy {
  std::uint64_t window_appends = 0;    ///< window length, in accepted appends
  std::uint64_t max_per_uploader = 0;  ///< admissions per uploader per window
  bool enabled() const { return window_appends > 0 && max_per_uploader > 0; }
};

/// Sliding-window admission over (uploader, append ordinal).  Anonymous
/// uploads bypass the cap (no identity to account them to).  Not
/// thread-safe; the store serialises appends.
class UploaderRateLimiter {
 public:
  explicit UploaderRateLimiter(UploaderRatePolicy policy = {}) : policy_(policy) {}

  /// Whether `uploader` may land one more upload at append ordinal `tick`
  /// (monotone non-decreasing across calls).  Expected-based rejection names
  /// the uploader and the cap.  Consumes no budget.
  Expected<bool, std::string> check(UploaderId uploader, std::uint64_t tick);
  /// Charge one upload by `uploader` at `tick` against its window.
  void charge(UploaderId uploader, std::uint64_t tick);
  /// check(), then charge() what it admits: a rejected upload consumes no
  /// window budget.
  Expected<bool, std::string> admit(UploaderId uploader, std::uint64_t tick);

  const UploaderRatePolicy& policy() const { return policy_; }

 private:
  UploaderRatePolicy policy_;
  std::map<UploaderId, std::deque<std::uint64_t>> admitted_;  ///< ticks in window
};

}  // namespace trajkit::wifi

#include "wifi/validate.hpp"

#include <cmath>

namespace trajkit::wifi {
namespace {

using Valid = Expected<bool, std::string>;

}  // namespace

bool position_ok(const Enu& pos) {
  return std::isfinite(pos.east) && std::isfinite(pos.north) &&
         std::fabs(pos.east) <= kMaxEnuAbsM && std::fabs(pos.north) <= kMaxEnuAbsM;
}

Valid validate_scan(const WifiScan& scan) {
  if (scan.size() > kMaxScanAps) {
    return Valid::failure("scan: too many APs (" + std::to_string(scan.size()) + ")");
  }
  for (const auto& obs : scan) {
    if (obs.rssi_dbm < kMinValidRssiDbm || obs.rssi_dbm > kMaxValidRssiDbm) {
      return Valid::failure("scan: implausible RSSI " + std::to_string(obs.rssi_dbm) +
                            " dBm");
    }
  }
  return Valid(true);
}

Valid validate_reference_point(const ReferencePoint& p) {
  if (!position_ok(p.pos)) {
    return Valid::failure("reference point: non-finite or out-of-envelope position");
  }
  auto scan = validate_scan(p.scan);
  if (!scan) return Valid::failure("reference point: " + scan.error());
  return Valid(true);
}

Valid validate_upload(const ScannedUpload& upload) {
  if (upload.positions.empty()) {
    return Valid::failure("upload: empty trajectory");
  }
  if (upload.positions.size() != upload.scans.size()) {
    return Valid::failure("upload: positions/scans size mismatch");
  }
  if (upload.positions.size() > kMaxUploadPoints) {
    return Valid::failure("upload: too many points (" +
                          std::to_string(upload.positions.size()) + ")");
  }
  for (std::size_t i = 0; i < upload.positions.size(); ++i) {
    if (!position_ok(upload.positions[i])) {
      return Valid::failure("upload: bad position at point " + std::to_string(i));
    }
    auto scan = validate_scan(upload.scans[i]);
    if (!scan) {
      return Valid::failure("upload: point " + std::to_string(i) + ": " +
                            scan.error());
    }
  }
  return Valid(true);
}

Expected<bool, std::string> UploaderRateLimiter::check(UploaderId uploader,
                                                       std::uint64_t tick) {
  if (!policy_.enabled() || uploader == kAnonymousUploader) return Valid(true);
  std::deque<std::uint64_t>& ticks = admitted_[uploader];
  // Expire admissions that slid out of the window ending at `tick`.
  while (!ticks.empty() && ticks.front() + policy_.window_appends <= tick) {
    ticks.pop_front();
  }
  if (ticks.size() >= policy_.max_per_uploader) {
    return Valid::failure("uploader " + std::to_string(uploader) +
                          ": rate cap exceeded (" +
                          std::to_string(policy_.max_per_uploader) + " per " +
                          std::to_string(policy_.window_appends) + " appends)");
  }
  return Valid(true);
}

void UploaderRateLimiter::charge(UploaderId uploader, std::uint64_t tick) {
  if (!policy_.enabled() || uploader == kAnonymousUploader) return;
  admitted_[uploader].push_back(tick);
}

Expected<bool, std::string> UploaderRateLimiter::admit(UploaderId uploader,
                                                       std::uint64_t tick) {
  auto admitted = check(uploader, tick);
  if (admitted) charge(uploader, tick);
  return admitted;
}

}  // namespace trajkit::wifi

// RssiDetector persistence: a text header (config + reference store) followed
// by the serialised GBT classifier.  The store dominates the file size; RSSIs
// are written as compact integer pairs.
//
// The config line is radius top_k theta1 theta2 R tolerance base threshold.
//
// On disk the text payload is wrapped in a CRC-framed durable container and
// committed atomically (common/durable).  Loaded reference points pass the
// same validation as live crowdsourced scans (wifi/validate) — a corrupt or
// hostile store is a clean error, never a poisoned index.
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/durable/durable_file.hpp"
#include "common/fault.hpp"
#include "wifi/detector.hpp"
#include "wifi/validate.hpp"

namespace trajkit::wifi {
namespace {

constexpr const char* kMagic = "trajkit_rssi_detector_v2";
constexpr const char* kDurableTag = "rssi_detector";
constexpr std::uint32_t kDurableVersion = 1;

/// Cap on deserialised reference points; the real stores are ~10^4-10^5.
constexpr std::size_t kMaxReferencePoints = 5'000'000;

using DetectorOrError = Expected<std::unique_ptr<RssiDetector>, std::string>;

}  // namespace

void RssiDetector::save(std::ostream& os) const {
  os << kMagic << '\n';
  const auto& conf = config_.confidence;
  os << std::setprecision(17);
  os << conf.reference_radius_m << ' ' << conf.top_k << ' ' << conf.use_theta1 << ' '
     << conf.use_theta2 << ' ' << conf.rpd.counting_radius_m << ' '
     << conf.rpd.rssi_tolerance_db << ' ' << conf.rpd.theta2_base << ' '
     << config_.threshold << '\n';
  os << trained_points_ << '\n';
  os << index_.size() << '\n';
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const ReferencePoint& p = index_[i];
    os << p.pos.east << ' ' << p.pos.north << ' ' << p.traj_id << ' '
       << p.scan.size();
    for (const auto& obs : p.scan) os << ' ' << obs.mac << ' ' << obs.rssi_dbm;
    os << '\n';
  }
  classifier_.save(os);
}

DetectorOrError RssiDetector::try_load(std::istream& is) {
  // Streams carry no path identity; every stream load shares key 0.  The
  // sequential attempt counter still lets fail_first model transient outages.
  if (global_faults().should_fail_seq(kFaultDetectorLoad, 0)) {
    return DetectorOrError::failure("RssiDetector: injected load fault");
  }
  std::string magic;
  if (!(is >> magic) || magic != kMagic) {
    return DetectorOrError::failure("RssiDetector: bad magic (not a detector model)");
  }
  RssiDetectorConfig cfg;
  if (!(is >> cfg.confidence.reference_radius_m >> cfg.confidence.top_k >>
        cfg.confidence.use_theta1 >> cfg.confidence.use_theta2 >>
        cfg.confidence.rpd.counting_radius_m >> cfg.confidence.rpd.rssi_tolerance_db >>
        cfg.confidence.rpd.theta2_base >> cfg.threshold)) {
    return DetectorOrError::failure("RssiDetector: bad config header");
  }
  if (!std::isfinite(cfg.confidence.reference_radius_m) ||
      cfg.confidence.reference_radius_m <= 0.0 || cfg.confidence.top_k == 0 ||
      cfg.confidence.top_k > kMaxScanAps ||
      !std::isfinite(cfg.confidence.rpd.counting_radius_m) ||
      cfg.confidence.rpd.counting_radius_m <= 0.0 ||
      !std::isfinite(cfg.confidence.rpd.rssi_tolerance_db) ||
      !std::isfinite(cfg.confidence.rpd.theta2_base) ||
      !std::isfinite(cfg.threshold)) {
    return DetectorOrError::failure("RssiDetector: implausible config");
  }
  std::size_t trained_points = 0;
  std::size_t ref_count = 0;
  if (!(is >> trained_points >> ref_count)) {
    return DetectorOrError::failure("RssiDetector: bad header");
  }
  if (trained_points > kMaxUploadPoints || ref_count > kMaxReferencePoints) {
    return DetectorOrError::failure("RssiDetector: implausible store header");
  }
  std::vector<ReferencePoint> refs;
  refs.reserve(ref_count);
  for (std::size_t i = 0; i < ref_count; ++i) {
    ReferencePoint p;
    std::size_t scan_size = 0;
    if (!(is >> p.pos.east >> p.pos.north >> p.traj_id >> scan_size)) {
      return DetectorOrError::failure("RssiDetector: truncated reference point " +
                                      std::to_string(i));
    }
    if (scan_size > kMaxScanAps) {
      return DetectorOrError::failure("RssiDetector: oversized scan at point " +
                                      std::to_string(i));
    }
    p.scan.resize(scan_size);
    for (auto& obs : p.scan) {
      if (!(is >> obs.mac >> obs.rssi_dbm)) {
        return DetectorOrError::failure("RssiDetector: truncated scan at point " +
                                        std::to_string(i));
      }
    }
    auto valid = validate_reference_point(p);
    if (!valid) {
      return DetectorOrError::failure("RssiDetector: point " + std::to_string(i) +
                                      ": " + valid.error());
    }
    refs.push_back(std::move(p));
  }
  // Construction and the classifier's own loader validate by throwing; fold
  // those into the non-throwing contract here.
  try {
    auto detector = std::make_unique<RssiDetector>(std::move(refs), cfg);
    auto classifier = gbt::GbtClassifier::try_load(is);
    if (!classifier) return DetectorOrError::failure("RssiDetector: " + classifier.error());
    detector->classifier_ = std::move(classifier).value();
    detector->trained_points_ = trained_points;
    return DetectorOrError(std::move(detector));
  } catch (const std::exception& e) {
    return DetectorOrError::failure(std::string("RssiDetector: ") + e.what());
  }
}

DetectorOrError RssiDetector::try_load_file(const std::string& path) {
  if (global_faults().should_fail_seq(kFaultDetectorLoad,
                                      durable::path_fault_key(path))) {
    return DetectorOrError::failure("RssiDetector: injected load fault for " + path);
  }
  auto records = durable::read_durable_file(path, kDurableTag, kDurableVersion);
  if (!records) return DetectorOrError::failure("RssiDetector: " + records.error());
  if (records.value().size() != 1) {
    return DetectorOrError::failure("RssiDetector: unexpected record count");
  }
  std::istringstream is(records.value()[0]);
  return try_load(is);
}

void RssiDetector::save_file(const std::string& path) const {
  global_faults().check_seq(kFaultDetectorSave, durable::path_fault_key(path));
  std::ostringstream payload;
  save(payload);
  durable::DurableWriter writer(kDurableTag, kDurableVersion);
  writer.add_record(payload.str());
  auto committed = writer.commit(path);
  if (!committed) {
    throw std::runtime_error("RssiDetector::save_file: " + committed.error());
  }
}

std::unique_ptr<RssiDetector> RssiDetector::assemble(
    std::vector<ReferencePoint> points, RssiDetectorConfig config,
    gbt::GbtClassifier classifier, std::size_t trained_points) {
  return assemble(std::move(points), config, std::move(classifier), trained_points,
                  BoundingBox{});
}

std::unique_ptr<RssiDetector> RssiDetector::assemble(
    std::vector<ReferencePoint> points, RssiDetectorConfig config,
    gbt::GbtClassifier classifier, std::size_t trained_points,
    const BoundingBox& index_bounds) {
  auto detector =
      std::make_unique<RssiDetector>(std::move(points), config, index_bounds);
  detector->classifier_ = std::move(classifier);
  detector->trained_points_ = trained_points;
  return detector;
}

}  // namespace trajkit::wifi

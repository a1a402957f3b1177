// RssiDetector persistence: one binary model image, the reference index's
// own arrays between a fixed header and the serialised GBT classifier.
//
//   "TKRDET2\n"                 8-byte magic
//   f64 reference_radius_m, u64 top_k, u8 use_theta1, u8 use_theta2,
//   f64 counting_radius_m, i32 rssi_tolerance_db, f64 theta2_base,
//   f64 threshold                the config
//   u64 trained_points
//   index image                  ReferenceIndex::append_image
//   u64 text_len, GBT text       GbtClassifier::save, length prefixed
//
// Integers and doubles are native little-endian, as in every durable format.
// On disk the image is the one record of a CRC-framed durable container
// (version 2), committed atomically (common/durable).  Loading copies the
// arrays into the index and checks, in one pass, everything
// validate_reference_point and the index constructor check (see the image
// constructor in wifi/point_arrays.hpp), so a corrupt or hostile store is a
// clean error, never a poisoned index.  Nothing may follow the classifier.
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/durable/bytes.hpp"
#include "common/durable/durable_file.hpp"
#include "common/fault.hpp"
#include "wifi/detector.hpp"
#include "wifi/validate.hpp"

namespace trajkit::wifi {
namespace {

constexpr char kMagic[8] = {'T', 'K', 'R', 'D', 'E', 'T', '2', '\n'};
constexpr const char* kDurableTag = "rssi_detector";
constexpr std::uint32_t kDurableVersion = 2;

using DetectorOrError = Expected<std::unique_ptr<RssiDetector>, std::string>;

/// Empty when every split of `classifier` reads inside the Eq. 8 vector of a
/// `trained_points`-long upload; otherwise why not.  A feature index at or
/// past that width would read beyond the row on the first analyze().
std::string width_error(const gbt::GbtClassifier& classifier,
                        const RssiDetectorConfig& config, std::size_t trained_points) {
  const std::size_t width = 2 * config.confidence.top_k * trained_points;
  if (classifier.num_features() <= width) return {};
  return "classifier splits on feature " +
         std::to_string(classifier.num_features() - 1) +
         ", beyond the Eq. 8 width " + std::to_string(width);
}

}  // namespace

std::string RssiDetector::image() const {
  std::ostringstream classifier_text;
  classifier_.save(classifier_text);
  const std::string text = std::move(classifier_text).str();

  std::string out(kMagic, sizeof kMagic);
  const auto& conf = config_.confidence;
  durable::append_pod(out, conf.reference_radius_m);
  durable::append_u64(out, conf.top_k);
  durable::append_pod(out, static_cast<std::uint8_t>(conf.use_theta1));
  durable::append_pod(out, static_cast<std::uint8_t>(conf.use_theta2));
  durable::append_pod(out, conf.rpd.counting_radius_m);
  durable::append_pod(out, static_cast<std::int32_t>(conf.rpd.rssi_tolerance_db));
  durable::append_pod(out, conf.rpd.theta2_base);
  durable::append_pod(out, config_.threshold);
  durable::append_u64(out, trained_points_);
  index_.append_image(out);
  durable::append_u64(out, text.size());
  out += text;
  return out;
}

DetectorOrError RssiDetector::decode(std::string_view image) {
  durable::ByteCursor cur{image};
  char magic[sizeof kMagic];
  if (!cur.read_bytes(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return DetectorOrError::failure("RssiDetector: bad magic (not a detector model)");
  }
  RssiDetectorConfig cfg;
  auto& conf = cfg.confidence;
  std::uint64_t top_k = 0;
  std::uint8_t theta1 = 0;
  std::uint8_t theta2 = 0;
  std::int32_t tolerance = 0;
  std::uint64_t trained_points = 0;
  if (!(cur.read(conf.reference_radius_m) && cur.read(top_k) && cur.read(theta1) &&
        cur.read(theta2) && cur.read(conf.rpd.counting_radius_m) && cur.read(tolerance) &&
        cur.read(conf.rpd.theta2_base) && cur.read(cfg.threshold) &&
        cur.read(trained_points))) {
    return DetectorOrError::failure("RssiDetector: truncated config header");
  }
  if (!std::isfinite(conf.reference_radius_m) || conf.reference_radius_m <= 0.0 ||
      top_k == 0 || top_k > kMaxScanAps || theta1 > 1 || theta2 > 1 ||
      !std::isfinite(conf.rpd.counting_radius_m) || conf.rpd.counting_radius_m <= 0.0 ||
      !std::isfinite(conf.rpd.theta2_base) || !std::isfinite(cfg.threshold)) {
    return DetectorOrError::failure("RssiDetector: implausible config");
  }
  if (trained_points > kMaxUploadPoints) {
    return DetectorOrError::failure("RssiDetector: implausible store header");
  }
  conf.top_k = static_cast<std::size_t>(top_k);
  conf.use_theta1 = theta1 != 0;
  conf.use_theta2 = theta2 != 0;
  conf.rpd.rssi_tolerance_db = tolerance;
  std::string_view rest = image.substr(cur.pos);
  // Construction and the classifier's own loader validate by throwing; fold
  // those into the non-throwing contract here.
  try {
    // PointArrays' image constructor decodes the index and advances `rest`.
    auto detector = std::make_unique<RssiDetector>(PointArrays(rest), cfg);
    durable::ByteCursor tail{rest};
    std::uint64_t text_len = 0;
    std::string_view text;
    if (!tail.read(text_len) || !tail.read_view(text, text_len)) {
      return DetectorOrError::failure("RssiDetector: truncated classifier");
    }
    if (tail.remaining() != 0) {
      return DetectorOrError::failure("RssiDetector: trailing bytes after the classifier");
    }
    std::istringstream is{std::string(text)};
    auto classifier = gbt::GbtClassifier::try_load(is);
    if (!classifier) return DetectorOrError::failure("RssiDetector: " + classifier.error());
    const std::string bad_width = width_error(classifier.value(), cfg, trained_points);
    if (!bad_width.empty()) return DetectorOrError::failure("RssiDetector: " + bad_width);
    detector->classifier_ = std::move(classifier).value();
    detector->trained_points_ = static_cast<std::size_t>(trained_points);
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
  return decode(records.value()[0]);
}

void RssiDetector::save_file(const std::string& path) const {
  global_faults().check_seq(kFaultDetectorSave, durable::path_fault_key(path));
  durable::DurableWriter writer(kDurableTag, kDurableVersion);
  writer.add_record(image());
  auto committed = writer.commit(path);
  if (!committed) {
    throw std::runtime_error("RssiDetector::save_file: " + committed.error());
  }
}

std::unique_ptr<RssiDetector> RssiDetector::assemble(
    PointArrays points, RssiDetectorConfig config, gbt::GbtClassifier classifier,
    std::size_t trained_points, const BoundingBox& index_bounds) {
  const std::string bad_width = width_error(classifier, config, trained_points);
  if (!bad_width.empty()) {
    throw std::invalid_argument("RssiDetector::assemble: " + bad_width);
  }
  auto detector =
      std::make_unique<RssiDetector>(std::move(points), config, index_bounds);
  detector->classifier_ = std::move(classifier);
  detector->trained_points_ = trained_points;
  return detector;
}

}  // namespace trajkit::wifi

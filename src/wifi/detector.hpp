// The paper's prediction function J : (T, H) -> {0, 1}  (Sec. III-B/C).
//
// Wraps the whole defense pipeline: the crowdsourced ReferenceIndex, the
// RPD/confidence estimators and an XGBoost-style classifier over the Eq. 8
// feature vectors.  1 = the trajectory is judged real, 0 = forged.
//
// The call surface is one entry point: analyze() runs the reference-index
// queries once per point and returns everything a caller can want — the
// verdict, the classifier probability, the Eq. 8 feature vector and the
// per-point Eq. 7 suspicion scores.  Geo-sharded deployments split the same
// pass into segment_features() + classify_features().  (The pre-serving
// per-question methods — features / predict_proba / verify / point_scores —
// re-walked the index once each and are gone.)
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/durable/artifact_store.hpp"
#include "common/expected.hpp"
#include "gbt/booster.hpp"
#include "wifi/features.hpp"

namespace trajkit::wifi {

/// Fault points (common/fault) on the persistence path, keyed by a hash of
/// the stream/path identity.  Armed with fail_first = N, the first N load
/// attempts fail — the "model store briefly unreachable" shape; a large N
/// makes the model permanently unloadable (degraded-start serving).
inline constexpr const char* kFaultDetectorLoad = "wifi.detector_load";
inline constexpr const char* kFaultDetectorSave = "wifi.detector_save";

struct RssiDetectorConfig {
  ConfidenceParams confidence;
  gbt::GbtConfig classifier;
  /// Operating threshold of J: verdict = 1 iff p_real >= threshold.  Carried
  /// through save/load so a deployed detector keeps the threshold it was
  /// tuned with instead of every call site hard-coding 0.5.
  double threshold = 0.5;
};

/// Everything the detector can say about one upload, computed in one pass.
struct VerdictReport {
  int verdict = 0;       ///< J: 1 = judged real, 0 = judged forged
  double p_real = 0.0;   ///< classifier confidence that the upload is real
  double threshold = 0.5;  ///< operating threshold that produced `verdict`
  std::vector<double> features;      ///< Eq. 8 feature vector
  std::vector<double> point_scores;  ///< per-point mean Eq. 7 confidence
                                     ///< (localises *which stretch* is forged)

  /// Deterministic text rendering of the payload (%.17g, so doubles
  /// round-trip exactly).  Used by the determinism tests and the serving
  /// checksum; deliberately excludes nothing — two reports are byte-equal
  /// iff their canonical strings are.
  std::string canonical_string() const;
};

class RssiDetector {
 public:
  /// Take ownership of the provider's historical dataset.
  RssiDetector(std::vector<ReferencePoint> history, RssiDetectorConfig config = {});

  /// Same, with an explicit reference-index grid extent.  A geo-shard built
  /// over a slice of a global reference set passes the full set's
  /// ReferenceIndex::natural_bounds here so its per-point confidence sums
  /// accumulate in the unsharded grid order (bitwise-equal features).
  RssiDetector(std::vector<ReferencePoint> history, RssiDetectorConfig config,
               const BoundingBox& index_bounds);

  /// The reference index pins internal pointers; moving or copying a live
  /// detector would leave its estimators dangling, so both are disabled.
  /// Heap-allocate (as try_load() does) when ownership must move.
  RssiDetector(const RssiDetector&) = delete;
  RssiDetector& operator=(const RssiDetector&) = delete;

  /// Train the verdict classifier on labelled uploads (1 = real, 0 = fake).
  /// All uploads must have the same point count.
  void train(const std::vector<ScannedUpload>& uploads, const std::vector<int>& labels);

  /// Single-pass verdict: one reference-index walk per point produces the
  /// features, the classifier probability, the configured-threshold verdict
  /// and the per-point suspicion scores together.  Requires train() or a
  /// loaded model; throws std::logic_error otherwise.
  VerdictReport analyze(const ScannedUpload& upload) const;

  /// The per-point half of analyze(): fills the Eq. 8 feature slots
  /// (2 * top_k per point) and the per-point suspicion scores without running
  /// the classifier.  Untrained-safe and length-agnostic — this is the unit
  /// of work a geo-shard evaluates for its segment of a split trajectory;
  /// the router concatenates segment features in point order and applies the
  /// classifier once.
  void segment_features(const ScannedUpload& upload, std::vector<double>& features,
                        std::vector<double>& point_scores) const {
    analyze_points(upload, features, point_scores);
  }

  /// Classifier tail of analyze() over an already-merged feature vector.
  /// `features` must be the concatenation the per-point pass produces for a
  /// trained_points()-long upload.
  VerdictReport classify_features(std::vector<double> features,
                                  std::vector<double> point_scores) const;

  const ReferenceIndex& index() const { return index_; }
  const ConfidenceEstimator& confidence() const { return estimator_; }
  const gbt::GbtClassifier& classifier() const { return classifier_; }
  const RssiDetectorConfig& config() const { return config_; }

  /// Inert seam kept for servebench: ignores its argument.
  void set_rpd_cache(std::shared_ptr<RpdStatsCache> cache) { (void)cache; }

  /// Persist the full detector — configuration, crowdsourced reference store
  /// and the trained classifier — so a provider can train once and deploy.
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;

  /// The loaders: a serving process gets either a detector or a diagnostic
  /// string.  try_load reads the v2 stream format save writes; try_load_file
  /// reads only the durable container save_file commits.
  static Expected<std::unique_ptr<RssiDetector>, std::string> try_load(
      std::istream& is);
  static Expected<std::unique_ptr<RssiDetector>, std::string> try_load_file(
      const std::string& path);

  /// Build a detector from separately-persisted parts: a reference store
  /// (e.g. recovered from the crowd store's snapshot + journal) plus a
  /// classifier trained elsewhere.  The caller vouches that `classifier` was
  /// trained on uploads of `trained_points` points over features compatible
  /// with `config`.
  static std::unique_ptr<RssiDetector> assemble(std::vector<ReferencePoint> points,
                                                RssiDetectorConfig config,
                                                gbt::GbtClassifier classifier,
                                                std::size_t trained_points);

  /// assemble() with an explicit reference-index extent (see the
  /// bounds-taking constructor): the shard-slice deployment shape.
  static std::unique_ptr<RssiDetector> assemble(std::vector<ReferencePoint> points,
                                                RssiDetectorConfig config,
                                                gbt::GbtClassifier classifier,
                                                std::size_t trained_points,
                                                const BoundingBox& index_bounds);

  /// Upload length the trained classifier expects (0 = untrained).
  std::size_t trained_points() const { return trained_points_; }

 private:
  /// The shared per-point pass: fills the Eq. 8 features and the per-point
  /// scores from one point_confidence() walk.  Untrained-safe.
  void analyze_points(const ScannedUpload& upload, std::vector<double>& features,
                      std::vector<double>& point_scores) const;

  ReferenceIndex index_;
  RssiDetectorConfig config_;
  ConfidenceEstimator estimator_;
  gbt::GbtClassifier classifier_;
  std::size_t trained_points_ = 0;  ///< upload length the classifier expects
};

/// Flatten historical trajectories (positions + scans) into reference points.
std::vector<ReferencePoint> flatten_history(
    const std::vector<ScannedUpload>& historical);

}  // namespace trajkit::wifi

namespace trajkit::durable {

/// Detector artifacts for ArtifactStore::open<RssiDetector>/publish: the
/// payload is the detector's own stream format (save/try_load), the same
/// bytes save_file frames.  Value is a unique_ptr because a live detector
/// pins internal pointers and cannot move.
template <>
struct ArtifactCodec<wifi::RssiDetector> {
  using Value = std::unique_ptr<wifi::RssiDetector>;
  static void encode(const wifi::RssiDetector& value, std::ostream& os) {
    value.save(os);
  }
  static Expected<Value, std::string> decode(std::istream& is) {
    return wifi::RssiDetector::try_load(is);
  }
};

}  // namespace trajkit::durable

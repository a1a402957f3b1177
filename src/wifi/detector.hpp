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

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "gbt/booster.hpp"
#include "wifi/features.hpp"

namespace trajkit::wifi {

/// Fault points (common/fault) on the persistence path, keyed by
/// durable::path_fault_key of the model file (or, for a detector served from
/// an ArtifactStore, of the artifact file).  Armed with fail_first = N, the first N load
/// attempts fail — the "model store briefly unreachable" shape; a large N
/// makes the model permanently unloadable (degraded-start serving).
inline constexpr const char* kFaultDetectorLoad = "wifi.detector_load";
inline constexpr const char* kFaultDetectorSave = "wifi.detector_save";

struct RssiDetectorConfig {
  ConfidenceParams confidence;
  gbt::GbtConfig classifier;
  /// Operating threshold of J: verdict = 1 iff p_real >= threshold.  Carried
  /// in the model image so a deployed detector keeps the threshold it was
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
  /// Take ownership of the provider's historical dataset.  A non-empty
  /// `index_bounds` is the reference-index grid extent: a geo-shard over a
  /// slice of a global set passes the full set's natural_bounds so its sums
  /// accumulate in the unsharded grid order (bitwise-equal features).
  explicit RssiDetector(PointArrays history, RssiDetectorConfig config = {},
                        const BoundingBox& index_bounds = {});

  /// The reference index pins internal pointers; moving or copying a live
  /// detector would leave its estimators dangling, so both are disabled.
  /// Heap-allocate (as decode() does) when ownership must move.
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

  /// The per-point half of analyze(), and the detector's one Eq. 8 loop
  /// (train and analyze call it too): one point_confidence() walk per point
  /// fills the feature slots (2 * top_k per point, wifi/features.hpp) and
  /// the per-point suspicion scores, without running the classifier.
  /// Untrained-safe and length-agnostic — this is the unit of work a
  /// geo-shard evaluates for its segment of a split trajectory; the router
  /// concatenates segment features in point order and applies the classifier
  /// once.
  void segment_features(const ScannedUpload& upload, std::vector<double>& features,
                        std::vector<double>& point_scores) const;

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
  /// image() is the one payload (DESIGN.md, "Detector model image"): the
  /// config values and trained_points, the reference index's own arrays
  /// (ReferenceIndex::append_image), then the classifier's text, length
  /// prefixed.  save_file commits it as the one record of a version-2
  /// durable container; an ArtifactStore publishes it bare.
  std::string image() const;
  void save_file(const std::string& path) const;

  /// The loaders: a serving process gets either a detector or a diagnostic
  /// string.  decode reads one whole image; try_load_file reads only the
  /// durable container save_file commits.  Both decode the image straight
  /// into the index and refuse anything validate_reference_point or the
  /// constructors would refuse.
  static Expected<std::unique_ptr<RssiDetector>, std::string> decode(
      std::string_view image);
  static Expected<std::unique_ptr<RssiDetector>, std::string> try_load_file(
      const std::string& path);

  /// Build a detector from separately-persisted parts: a reference store
  /// (e.g. recovered from the crowd store's snapshot + journal) plus a
  /// classifier trained elsewhere, indexed under `index_bounds` as the
  /// constructor is.  The caller vouches that `classifier` was trained on
  /// uploads of `trained_points` points over features compatible with
  /// `config`; a classifier that splits on a feature beyond the Eq. 8 width
  /// (2 * top_k * trained_points) throws std::invalid_argument.
  static std::unique_ptr<RssiDetector> assemble(PointArrays points,
                                                RssiDetectorConfig config,
                                                gbt::GbtClassifier classifier,
                                                std::size_t trained_points,
                                                const BoundingBox& index_bounds = {});

  /// Upload length the trained classifier expects (0 = untrained).
  std::size_t trained_points() const { return trained_points_; }

 private:
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

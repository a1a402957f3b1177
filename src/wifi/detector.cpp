#include "wifi/detector.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/parallel.hpp"

namespace trajkit::wifi {
namespace {

/// Reference-index grid cell, suited to r = 2.5 m and R = 3 m.
constexpr double kCellSizeM = 4.0;

void append_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

const RssiDetectorConfig& checked(const RssiDetectorConfig& config) {
  if (config.threshold < 0.0 || config.threshold > 1.0) {
    throw std::invalid_argument("RssiDetector: threshold must be in [0, 1]");
  }
  return config;
}

}  // namespace

std::string VerdictReport::canonical_string() const {
  std::string out = "verdict=" + std::to_string(verdict) + " p_real=";
  append_num(out, p_real);
  out += " threshold=";
  append_num(out, threshold);
  out += " features=[";
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (i) out += ',';
    append_num(out, features[i]);
  }
  out += "] point_scores=[";
  for (std::size_t i = 0; i < point_scores.size(); ++i) {
    if (i) out += ',';
    append_num(out, point_scores[i]);
  }
  out += ']';
  return out;
}

RssiDetector::RssiDetector(PointArrays history, RssiDetectorConfig config,
                           const BoundingBox& index_bounds)
    : index_(std::move(history), kCellSizeM, index_bounds),
      config_(checked(config)),
      estimator_(index_, config.confidence),
      classifier_(config.classifier) {}

void RssiDetector::train(const std::vector<ScannedUpload>& uploads,
                         const std::vector<int>& labels) {
  if (uploads.size() != labels.size() || uploads.empty()) {
    throw std::invalid_argument("RssiDetector::train: bad dataset");
  }
  trained_points_ = uploads.front().positions.size();
  for (const auto& upload : uploads) {
    if (upload.positions.size() != trained_points_) {
      throw std::invalid_argument("RssiDetector::train: uneven upload lengths");
    }
  }
  // Feature extraction dominates training cost and only reads the reference
  // index, so uploads are featurised in parallel; the classifier itself
  // trains serially on the index-ordered feature matrix.
  std::vector<std::vector<double>> x(uploads.size());
  parallel_for(0, uploads.size(), 1, [&](std::size_t i) {
    std::vector<double> point_scores;
    segment_features(uploads[i], x[i], point_scores);
  });
  classifier_.train(x, labels);
}

void RssiDetector::segment_features(const ScannedUpload& upload,
                                    std::vector<double>& features,
                                    std::vector<double>& point_scores) const {
  if (upload.positions.size() != upload.scans.size()) {
    throw std::invalid_argument("RssiDetector: positions/scans mismatch");
  }
  // One point_confidence() walk per point feeds both outputs; per-point Phi
  // evaluation (Eq. 5-7) is the detector's hottest loop, and every point
  // writes disjoint slots, so points evaluate in parallel (serialized
  // automatically when the caller is itself a parallel region, e.g. the
  // serving layer fanning out over a batch).
  const std::size_t k = estimator_.params().top_k;
  const std::size_t n = upload.positions.size();
  features.assign(2 * k * n, 0.0);
  point_scores.assign(n, 0.0);
  parallel_for(0, n, 8, [&](std::size_t j) {
    const auto confidences = estimator_.point_confidence(
        upload.positions[j], upload.scans[j], upload.source_traj_id);
    double* slot = features.data() + 2 * k * j;
    double total = 0.0;
    for (std::size_t a = 0; a < confidences.size(); ++a) {
      slot[2 * a] = static_cast<double>(confidences[a].num_refs);
      slot[2 * a + 1] = confidences[a].phi;
      total += confidences[a].phi;
    }
    point_scores[j] = confidences.empty()
                          ? 0.0
                          : total / static_cast<double>(confidences.size());
  });
}

VerdictReport RssiDetector::analyze(const ScannedUpload& upload) const {
  if (trained_points_ == 0) {
    throw std::logic_error("RssiDetector: classifier not trained");
  }
  if (upload.positions.size() != trained_points_) {
    throw std::invalid_argument("RssiDetector: upload length differs from training");
  }
  VerdictReport report;
  segment_features(upload, report.features, report.point_scores);
  report.p_real = classifier_.predict_proba(report.features);
  report.threshold = config_.threshold;
  report.verdict = report.p_real >= report.threshold ? 1 : 0;
  return report;
}

VerdictReport RssiDetector::classify_features(std::vector<double> features,
                                              std::vector<double> point_scores) const {
  if (trained_points_ == 0) {
    throw std::logic_error("RssiDetector: classifier not trained");
  }
  const std::size_t k = estimator_.params().top_k;
  if (point_scores.size() != trained_points_ ||
      features.size() != 2 * k * trained_points_) {
    throw std::invalid_argument("RssiDetector: merged feature width differs from training");
  }
  VerdictReport report;
  report.features = std::move(features);
  report.point_scores = std::move(point_scores);
  report.p_real = classifier_.predict_proba(report.features);
  report.threshold = config_.threshold;
  report.verdict = report.p_real >= report.threshold ? 1 : 0;
  return report;
}

std::vector<ReferencePoint> flatten_history(
    const std::vector<ScannedUpload>& historical) {
  std::vector<ReferencePoint> out;
  for (std::size_t t = 0; t < historical.size(); ++t) {
    const auto& traj = historical[t];
    if (traj.positions.size() != traj.scans.size()) {
      throw std::invalid_argument("flatten_history: positions/scans mismatch");
    }
    for (std::size_t i = 0; i < traj.positions.size(); ++i) {
      out.push_back({traj.positions[i], traj.scans[i], static_cast<std::uint32_t>(t)});
    }
  }
  return out;
}

}  // namespace trajkit::wifi

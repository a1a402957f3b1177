// Golden regression pins: the numeric contract of the detector for a fixed
// seed, committed as text under tests/golden/.
//
// Two artifacts are pinned:
//   * the Eq. 8 feature vectors of one real and one forged upload from the
//     shared linear-field world — any change to RPD estimation (Eq. 4),
//     weighting (Eqs. 5-6), confidence (Eq. 7) or feature layout moves these;
//   * the canonical verdict payloads of a probe mix plus their fnv1a
//     checksum — the serving layer's byte-exact contract.
//
// If a change is intentional, regenerate with
//   TRAJKIT_UPDATE_GOLDEN=1 ctest -R Golden
// and review the git diff; an unexpected diff means the paper's numbers
// moved.  Goldens are bit-exact doubles (%.17g): safe because this repo
// builds on one fixed toolchain and machine.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "attack/cw.hpp"
#include "common/rng.hpp"
#include "nn/classifier.hpp"
#include "reference/nn_reference.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "traj/features.hpp"
#include "wifi/detector.hpp"
#include "wifi/features.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(Golden, Eq8FeatureVectorsArePinned) {
  ts::LinearFieldWorld w;  // default config: seed 7, 30x30 m, 6-point uploads
  std::string out;
  for (const bool real : {true, false}) {
    const auto upload = w.upload(real);
    std::vector<double> features;
    std::vector<double> point_scores;
    w.detector().segment_features(upload, features, point_scores);
    out += real ? "real" : "fake";
    out += '\n';
    for (const double v : features) {
      out += ts::canonical_double(v);
      out += '\n';
    }
  }
  EXPECT_TRUE(ts::matches_golden("eq8_features.txt", out));
}

TEST(Golden, VerdictPayloadsAndChecksumArePinned) {
  ts::LinearFieldWorld w;
  std::string out;
  std::uint64_t checksum = 1469598103934665603ull;
  for (const auto& upload : w.probe_mix(6)) {
    const std::string payload = w.detector().analyze(upload).canonical_string();
    checksum ^= fnv1a(payload);  // order-insensitive fold per payload
    out += payload;
    out += '\n';
  }
  out += "fnv1a_xor=" + hex64(checksum) + '\n';
  EXPECT_TRUE(ts::matches_golden("verdict_checksums.txt", out));
}

std::vector<Enu> golden_walk(Rng& rng, std::size_t n, double step) {
  std::vector<Enu> pts = {{0.0, 0.0}};
  for (std::size_t i = 1; i < n; ++i) {
    pts.push_back({pts.back().east + rng.uniform(0.5, step),
                   pts.back().north + rng.uniform(-step / 2, step / 2)});
  }
  return pts;
}

/// A small deterministically-trained classifier shared by the nn goldens:
/// "real" samples drift steadily east, "fake" samples jitter in place, so a
/// few epochs separate them and the pinned logits are meaningful.
nn::LstmClassifier golden_classifier(const DistAngleEncoder& encoder) {
  Rng rng(42);
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  for (int i = 0; i < 24; ++i) {
    const std::size_t n = 18 + static_cast<std::size_t>(rng.uniform_int(0, 10));
    const bool real = i % 2 == 0;
    auto pts = golden_walk(rng, n, real ? 4.0 : 1.0);
    xs.push_back(encoder.encode(pts));
    ys.push_back(real ? 1 : 0);
  }
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 12;
  cfg.batch_size = 8;
  nn::LstmClassifier model(cfg, 5);
  model.train(xs, ys, 3);
  return model;
}

TEST(Golden, ClassifierLogitsArePinned) {
  // Pins the whole nn stack — init, Adam training and inference through the
  // batched kernels — and asserts the per-sample oracle produces the same
  // logit bits before pinning, so a kernel regression fails twice over.
  const DistAngleEncoder encoder;
  auto model = golden_classifier(encoder);

  Rng rng(4242);
  std::string out;
  for (int k = 0; k < 8; ++k) {
    const auto pts = golden_walk(rng, 16 + 3 * static_cast<std::size_t>(k),
                                 k % 2 == 0 ? 4.0 : 1.0);
    const auto x = encoder.encode(pts);
    ASSERT_EQ(model.predict_logit(x), nn::reference::logit(model, x))
        << "sample " << k;  // bitwise oracle parity
    out += ts::canonical_double(model.predict_proba(x));
    out += '\n';
  }
  EXPECT_TRUE(ts::matches_golden("nn_logits.txt", out));
}

TEST(Golden, CwAttackOutputIsPinned) {
  // One full navigation attack, pinned end to end: iterate points, p_real and
  // normalised DTW.  The attack's DTW is always the pruned-exact variant;
  // DtwPruned.BitIdenticalToFullOnRandomPairs holds it to the full DP, and
  // this golden file pins the whole attack to the bits the full DP gave.
  const DistAngleEncoder encoder;
  const auto model = golden_classifier(encoder);

  Rng rng(7);
  const auto route = golden_walk(rng, 40, 4.0);

  attack::CwConfig ac;
  ac.iterations = 60;
  ac.history_stride = 20;
  const auto forged = attack::CwAttacker(model, encoder, ac).forge_navigation(route);

  std::string out = "p_real=" + ts::canonical_double(forged.p_real) + '\n';
  out += "dtw_norm=" + ts::canonical_double(forged.dtw_norm) + '\n';
  out += "adversarial=" + std::to_string(forged.adversarial ? 1 : 0) + '\n';
  for (const auto& p : forged.points) {
    out += ts::canonical_double(p.east);
    out += ' ';
    out += ts::canonical_double(p.north);
    out += '\n';
  }
  EXPECT_TRUE(ts::matches_golden("cw_attack_points.txt", out));
}

}  // namespace
}  // namespace trajkit

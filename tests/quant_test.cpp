// Quantized verification hot path: kernel contracts, calibration
// determinism, the QuantGate decision contract, motion epoch markers and the
// serving integration.
//
// The quant lane is explicitly NOT bit-identical to the fp64 oracle, so this
// file tests a different contract than kernels_test.cpp: the *integer* side
// (rounding, packing, GEMM accumulation) is asserted exactly against scalar
// references, while the end-to-end lane is asserted through the QuantGate —
// zero thresholded-verdict disagreements and a bounded logit delta against
// the fp64 model that stays resident as the oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/classifier.hpp"
#include "nn/kernels/align.hpp"
#include "nn/kernels/quant.hpp"
#include "nn/matrix.hpp"
#include "nn/quant_classifier.hpp"
#include "reference/nn_reference.hpp"
#include "serve/service.hpp"
#include "serve/shard_service.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "traj/features.hpp"
#include "wifi/crowd_store.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;
using Kind = wifi::ControlFrame::Kind;
namespace qk = nn::kernels;

// ---------------------------------------------------------------------------
// Shared fixtures: a deterministically-trained trend classifier (the nn_test
// toy task) plus calibration / held-out golden trajectory sets.

FeatureSequence make_seq(const std::vector<double>& values, std::size_t dim) {
  FeatureSequence f;
  f.dim = dim;
  f.steps = values.size() / dim;
  f.values = values;
  return f;
}

/// Class 1 trends upward, class 0 downward — separable in a few epochs so
/// gate agreement on held-out samples is meaningful, not vacuous.
void make_trend_dataset(Rng& rng, std::size_t count, std::size_t steps,
                        std::vector<FeatureSequence>& xs, std::vector<int>& ys) {
  for (std::size_t i = 0; i < count; ++i) {
    const int label = static_cast<int>(i % 2);
    const double slope = label ? 0.1 : -0.1;
    std::vector<double> v;
    double level = rng.uniform(-0.3, 0.3);
    for (std::size_t t = 0; t < steps; ++t) {
      level += slope + rng.normal(0.0, 0.03);
      v.push_back(level);
      v.push_back(rng.normal(0.0, 0.1));
    }
    xs.push_back(make_seq(v, 2));
    ys.push_back(label);
  }
}

nn::LstmClassifier trained_trend_model() {
  Rng rng(6);
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  make_trend_dataset(rng, 120, 12, xs, ys);
  nn::LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 8;
  cfg.learning_rate = 5e-3;
  nn::LstmClassifier model(cfg, 1);
  model.train(xs, ys, 25);
  return model;
}

std::vector<FeatureSequence> calibration_set(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  make_trend_dataset(rng, n, 12, xs, ys);
  return xs;
}

/// Raw dump of the packed serving image, for byte comparisons.
std::string packed_image(const nn::QuantizedLstm& q) {
  return nn::reference::QuantAccess::image(q);
}

// ---------------------------------------------------------------------------
// Kernel contracts.

TEST(QuantKernels, RoundingContractScalarVsVector) {
  Rng rng(31);
  // Random values plus exact halfway points: half-away rounding is where a
  // vector/scalar divergence would hide.
  std::vector<double> xs;
  for (int i = 0; i < 700; ++i) xs.push_back(rng.uniform(-200.0, 200.0));
  for (int i = -130; i <= 130; ++i) xs.push_back(i + 0.5);
  for (int i = -130; i <= 130; ++i) xs.push_back(i - 0.5);
  const double inv_scale = 1.0;

  std::vector<std::int8_t, qk::AlignedAllocator<std::int8_t>> out(xs.size());
  qk::quantize_i8(xs.data(), xs.size(), inv_scale,
                  reinterpret_cast<qk::qi8*>(out.data()));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::int32_t want = qk::quantize_value(xs[i], inv_scale, qk::kQmax);
    ASSERT_EQ(static_cast<std::int32_t>(out[i]), want)
        << "element " << i << " value " << xs[i];
  }
}

TEST(QuantKernels, ActivationImageMatchesScalarQuantize) {
  // The GEMM reads lane-major offset-binary uint8 activation images; check
  // them against quantize_value lane by lane, including non-multiple-of-8
  // depths, the padded tail and every live-lane count.
  Rng rng(59);
  for (std::size_t depth : {3u, 8u, 11u, 24u}) {
    for (std::size_t lanes = 1; lanes <= qk::kLanes; ++lanes) {
      const std::size_t depth_pad = qk::quant_depth_pad(depth);
      std::vector<double> rows(lanes * depth);
      for (auto& v : rows) v = rng.uniform(-40.0, 40.0);
      const double inv_scale = 1.0 / 0.3;

      std::vector<std::uint8_t> u8(lanes * depth_pad);
      qk::quantize_act_u8(rows.data(), lanes, depth, depth_pad, inv_scale,
                          reinterpret_cast<qk::qu8*>(u8.data()));
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t k = 0; k < depth_pad; ++k) {
          const std::int32_t q =
              k < depth ? qk::quantize_value(rows[l * depth + k], inv_scale,
                                             qk::kQmax)
                        : 0;
          ASSERT_EQ(static_cast<std::int32_t>(u8[l * depth_pad + k]), q + 128)
              << "depth " << depth << " lanes " << lanes << " lane " << l
              << " k " << k;
        }
      }
    }
  }
}

// Shapes exercise both padding axes of the VNNI pack: rows pad to
// kQuantGroup = 16 and depth to whole dwords; the live-lane count runs
// 1..kLanes over each.  The scalar triple loop over raw int8 lane values is
// the ground truth the packed GEMM (VNNI or the portable fallback — integer
// sums are exact either way) must reproduce on live lanes.  The activation
// image is sized for the live lanes only (an over-read shows under ASan), and
// the accumulator block for all kLanes, so a write past the live lanes shows
// as a changed sentinel.
TEST(QuantKernels, GemmInt8MatchesScalarReference) {
  Rng rng(41);
  const std::size_t shapes[][2] = {{1, 3}, {7, 5}, {8, 8}, {13, 9},
                                   {16, 16}, {32, 20}, {33, 21}};
  constexpr std::int64_t kSentinel = 0x5a5a5a5a5a5a5a5a;
  for (const auto& shape : shapes) {
    for (std::size_t lanes = 1; lanes <= qk::kLanes; ++lanes) {
      const std::size_t rows = shape[0], depth = shape[1];
      const std::size_t depth_pad = qk::quant_depth_pad(depth);
      nn::Matrix w(rows, depth);
      for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = rng.uniform(-2.0, 2.0);
      }
      std::vector<double> inv_scale(rows);
      for (auto& s : inv_scale) s = 1.0 / rng.uniform(0.01, 0.2);

      std::vector<std::int8_t, qk::AlignedAllocator<std::int8_t>> pack(
          qk::quant_packed_elems(rows, depth));
      std::vector<std::int64_t> row_sums(rows, 0);
      qk::pack_quant_rows_i8(w, 0, depth, inv_scale.data(), pack.data());
      qk::quant_row_sums_i8(pack.data(), rows, depth, row_sums.data());

      // Raw int8 activation lanes, then the GEMM's lane-major offset-binary
      // uint8 image.  Pad entries are q == 0 (the padded weight
      // coefficients are zero anyway).
      std::vector<std::int8_t> x(lanes * depth);
      for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
      std::vector<std::uint8_t> xu(lanes * depth_pad, 128);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t k = 0; k < depth; ++k) {
          xu[l * depth_pad + k] =
              static_cast<std::uint8_t>(static_cast<int>(x[l * depth + k]) + 128);
        }
      }

      std::vector<std::int64_t> acc(qk::kLanes * rows, kSentinel);
      qk::gemm_q8x8(pack.data(), row_sums.data(), rows, depth_pad,
                    reinterpret_cast<const qk::qu8*>(xu.data()), lanes,
                    acc.data());

      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t r = 0; r < rows; ++r) {
          std::int64_t want = 0;
          for (std::size_t k = 0; k < depth; ++k) {
            const std::int64_t qw =
                qk::quantize_value(w(r, k), inv_scale[r], qk::kQmax);
            want += qw * static_cast<std::int64_t>(x[l * depth + k]);
          }
          ASSERT_EQ(acc[l * rows + r], want) << rows << "x" << depth << " lanes "
                                             << lanes << " row " << r
                                             << " lane " << l;
        }
      }
      for (std::size_t i = lanes * rows; i < acc.size(); ++i) {
        ASSERT_EQ(acc[i], kSentinel) << rows << "x" << depth << " lanes "
                                     << lanes << ": dead entry " << i
                                     << " written";
      }
    }
  }
}

TEST(QuantKernels, GemmInt8RejectsBadLaneCounts) {
  alignas(64) std::int8_t pack[64] = {};
  const std::int64_t row_sums[1] = {0};
  std::uint8_t x[4 * (qk::kLanes + 1)] = {};
  std::int64_t acc[qk::kLanes + 1] = {};
  for (const std::size_t lanes : {std::size_t{0}, qk::kLanes + 1}) {
    EXPECT_THROW(qk::gemm_q8x8(reinterpret_cast<const qk::qi8*>(pack),
                               row_sums, 1, 4,
                               reinterpret_cast<const qk::qu8*>(x), lanes, acc),
                 std::invalid_argument)
        << "lanes " << lanes;
  }
}

TEST(QuantKernels, FastActivationsTrackLibm) {
  // The fast lane budgets ~5e-9 relative error; assert an order of magnitude
  // of headroom under the int8 rounding error the gate absorbs (~1e-2).
  for (double x = -30.0; x <= 30.0; x += 0.0137) {
    EXPECT_NEAR(qk::fast_sigmoid(x), 1.0 / (1.0 + std::exp(-x)), 1e-7) << x;
    EXPECT_NEAR(qk::fast_tanh(x), std::tanh(x), 1e-7) << x;
  }
  for (double x = -80.0; x <= 80.0; x += 0.417) {
    const double want = std::exp(x);
    EXPECT_NEAR(qk::fast_exp(x), want, 1e-7 * want) << x;
  }
  // Saturation: the ±708 exp clamp pins the tails to the limits (the
  // negative sigmoid tail bottoms out at e^-708 ~ 3e-308, not exactly 0).
  EXPECT_EQ(qk::fast_sigmoid(1000.0), 1.0);
  EXPECT_LT(qk::fast_sigmoid(-1000.0), 1e-300);
  EXPECT_EQ(qk::fast_tanh(1000.0), 1.0);
  EXPECT_EQ(qk::fast_tanh(-1000.0), -1.0);
}

TEST(QuantKernels, PackRejectsMisalignedOutput) {
  nn::Matrix w(8, 4, 0.5);
  const double inv_scale[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<std::int8_t, qk::AlignedAllocator<std::int8_t>> buf(
      qk::quant_packed_elems(8, 4) + 64);
  // Aligned output: fine.
  EXPECT_NO_THROW(qk::pack_quant_rows_i8(w, 0, 4, inv_scale,
                                         reinterpret_cast<qk::qi8*>(buf.data())));
  // Shift by one byte: the quant pack must fail loudly, not degrade.
  EXPECT_THROW(qk::pack_quant_rows_i8(w, 0, 4, inv_scale,
                                      reinterpret_cast<qk::qi8*>(buf.data() + 1)),
               std::invalid_argument);
  // Out-of-range column slice is rejected before any write.
  EXPECT_THROW(qk::pack_quant_rows_i8(w, 0, 5, inv_scale,
                                      reinterpret_cast<qk::qi8*>(buf.data())),
               std::invalid_argument);
}

TEST(QuantKernels, RequireAligned64DetectsMisalignment) {
  alignas(64) double block[16];
  EXPECT_NO_THROW(qk::require_aligned64(block, "block"));
  EXPECT_THROW(qk::require_aligned64(
                   reinterpret_cast<const char*>(block) + 8, "shifted"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Calibration determinism and the QuantGate.

TEST(QuantizedLstm, CalibrationDeterministicAcrossThreads) {
  const auto model = trained_trend_model();
  const auto calibration = calibration_set(77, 24);

  set_global_threads(1);
  const auto q1 = nn::QuantizedLstm::quantize(model, calibration);
  set_global_threads(4);
  const auto q4 = nn::QuantizedLstm::quantize(model, calibration);
  set_global_threads(0);

  // Byte-identical images, not merely equivalent predictions: the scales
  // come from order-free max-abs reductions, so thread count cannot move
  // a single bit of the packed image.
  EXPECT_EQ(packed_image(q1), packed_image(q4));
}

TEST(QuantizedLstm, GatePassesOnHeldOutTrajectories) {
  const auto model = trained_trend_model();
  const auto calibration = calibration_set(77, 24);
  const auto held_out = calibration_set(991, 40);

  // Held-out sequences come from a different stream than calibration, so
  // the logit budget gets headroom over the calibration-set bound.
  const auto q = nn::QuantizedLstm::quantize(model, calibration);
  const auto report = nn::quant_gate_check(model, q, held_out, 0.1);
  EXPECT_TRUE(report.pass) << "max delta " << report.max_abs_logit_delta
                           << ", disagreements " << report.disagreements;
  EXPECT_EQ(report.checked, held_out.size());
  EXPECT_EQ(report.disagreements, 0u);
  EXPECT_LE(report.max_abs_logit_delta, 0.1);
  // The decision contract, spelled out: same verdict on every sample.
  for (const auto& x : held_out) {
    EXPECT_EQ(q.predict(x), model.predict(x));
  }
}

TEST(QuantizedLstm, GateNeverPassesOnEmptyCalibration) {
  const auto model = trained_trend_model();
  const auto q = nn::QuantizedLstm::quantize(model, calibration_set(77, 8));
  const auto report = nn::quant_gate_check(model, q, {}, 0.05);
  EXPECT_FALSE(report.pass);
  EXPECT_EQ(report.checked, 0u);
}

/// Calibration-style sequences cut to ragged lengths (3..12 steps), so a
/// group mixes lanes that end at different timesteps.
std::vector<FeatureSequence> ragged_set(std::uint64_t seed, std::size_t n) {
  std::vector<FeatureSequence> xs = calibration_set(seed, n);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i].steps = 3 + (i * 7) % 10;
    xs[i].values.resize(xs[i].steps * xs[i].dim);
  }
  return xs;
}

TEST(QuantizedLstm, BatchMatchesSingleBitwise) {
  // Group width must not change any sequence's logit: the serving dispatcher
  // mixes trajectories from different requests into one group, and batch
  // composition must stay out of the payload.  Every width 1..8 (one group)
  // and 13 (a full group plus a ragged tail) runs over every window of a
  // ragged set, against predict_proba and the pinned logits.  Two models:
  // the trained single-layer trend classifier (hidden 8) and a seeded,
  // untrained two-layer one at hidden 21, whose 4H = 84 gate rows leave a
  // partial weight group and whose hidden rows leave a partial vector.
  nn::LstmClassifierConfig stacked_cfg;
  stacked_cfg.hidden_dim = 21;
  stacked_cfg.num_layers = 2;
  const std::pair<const char*, nn::LstmClassifier> models[] = {
      {"trend hidden=8 layers=1", trained_trend_model()},
      {"seeded hidden=21 layers=2", nn::LstmClassifier(stacked_cfg, 3)}};
  const auto xs = ragged_set(555, 13);
  std::string golden;
  for (const auto& [name, model] : models) {
    const auto q = nn::QuantizedLstm::quantize(model, calibration_set(77, 8));
    golden += std::string(name) + '\n';
    std::vector<double> single(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      single[i] = q.predict_logit(xs[i]);
      golden += ts::canonical_double(single[i]) + '\n';
    }
    for (std::size_t width : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u}) {
      for (std::size_t start = 0; start + width <= xs.size(); ++start) {
        const std::vector<FeatureSequence> group(xs.begin() + start,
                                                 xs.begin() + start + width);
        const auto logits = q.predict_logit_batch(group);
        const auto probs = q.predict_proba_batch(group);
        ASSERT_EQ(logits.size(), width);
        ASSERT_EQ(probs.size(), width);
        for (std::size_t k = 0; k < width; ++k) {
          EXPECT_EQ(logits[k], single[start + k])
              << name << " width " << width << " start " << start;
          EXPECT_EQ(probs[k], q.predict_proba(xs[start + k]))
              << name << " width " << width << " start " << start;
        }
      }
    }
  }
  EXPECT_TRUE(ts::matches_golden("quant_logits.txt", golden));
}

// ---------------------------------------------------------------------------
// Calibration through the batched kernels vs the per-sample oracle.

/// Rewire every layer so that zero input drives h toward 1 while inputs near
/// 1 on feature 0 keep it near 0: all weights zero except -1 from input 0
/// into each candidate gate, whose bias is +1, and biases of +5 on the
/// input, forget and output gates.  A group's dead lanes and the padded
/// steps past a short sequence's end see zero input, so on this model a max
/// that counted them would differ from the live one.  (A Glorot model keeps
/// h at exactly 0 from zero state and zero input, which would hide that.)
void excite_on_zero_input(nn::LstmClassifier& model) {
  for (auto& layer : nn::reference::ClassifierAccess::layers(model)) {
    const std::size_t H = layer.hidden_dim();
    layer.weights().zero();
    layer.bias().zero();
    for (std::size_t k = 0; k < H; ++k) {
      layer.bias()(k, 0) = 5.0;
      layer.bias()(H + k, 0) = 5.0;
      layer.bias()(2 * H + k, 0) = 1.0;
      layer.bias()(3 * H + k, 0) = 5.0;
      layer.weights()(2 * H + k, 0) = -1.0;
    }
  }
  nn::reference::ClassifierAccess::rebuild_packs(model);
}

TEST(QuantCalibration, MatchesPerSampleOracle) {
  // 13 sequences of 3..12 steps: a full group and a group of 5 with three
  // dead lanes, both ragged.
  for (const std::size_t hidden : {5u, 64u}) {
    for (const std::size_t layers : {1u, 2u}) {
      for (const bool excited : {false, true}) {
        SCOPED_TRACE("hidden " + std::to_string(hidden) + " layers " +
                     std::to_string(layers) + (excited ? " excited" : " glorot"));
        nn::LstmClassifierConfig cfg;
        cfg.hidden_dim = hidden;
        cfg.num_layers = layers;
        nn::LstmClassifier model(cfg, 40 + hidden + layers);
        std::vector<FeatureSequence> xs = ragged_set(303, 13);
        if (excited) {
          excite_on_zero_input(model);
          Rng rng(hidden + layers);
          for (auto& x : xs) {
            for (std::size_t t = 0; t < x.steps; ++t) {
              x.values[t * x.dim] = 1.0 + rng.uniform(-0.02, 0.02);
            }
          }
        }
        const nn::CalibrationPass want = nn::reference::calibration_pass(model, xs);
        const nn::CalibrationPass got = model.calibration_pass(xs);
        EXPECT_EQ(got.logits, want.logits);
        EXPECT_EQ(got.max_input, want.max_input);
        EXPECT_EQ(got.max_hidden, want.max_hidden);
        EXPECT_EQ(packed_image(nn::QuantizedLstm::quantize(model, xs)),
                  packed_image(nn::QuantizedLstm::quantize(model, want)));
        if (excited) {
          // The same sequences zero-padded to 12 steps: the padded steps
          // raise the maxima, so the live-only rule is what keeps them equal.
          std::vector<FeatureSequence> padded = xs;
          for (auto& x : padded) {
            x.steps = 12;
            x.values.resize(x.steps * x.dim, 0.0);
          }
          const nn::CalibrationPass dead = nn::reference::calibration_pass(model, padded);
          EXPECT_GT(dead.max_hidden[0], want.max_hidden[0]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Motion epoch markers: recovery, compaction, follower shipping.

void remove_crowd_store(const std::string& dir) {
  for (const char* name : {"/crowd.snapshot", "/crowd.snapshot.tmp",
                           "/crowd.journal", "/crowd.journal.tmp"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(QuantizedLstm, MotionEpochMarkerSurvivesRecoveryAndCompaction) {
  const std::string dir = "quant_motion_epoch_store";
  remove_crowd_store(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->observed_motion_epoch(), 0u);
    ASSERT_TRUE(store.value()->append_control({Kind::kMotionEpoch, 3}).has_value());
    EXPECT_EQ(store.value()->observed_motion_epoch(), 3u);
    // Monotone: a stale marker never lowers the observed epoch.
    ASSERT_TRUE(store.value()->append_control({Kind::kMotionEpoch, 2}).has_value());
    EXPECT_EQ(store.value()->observed_motion_epoch(), 3u);
    // Independent of the RSSI detector's model epoch.
    ASSERT_TRUE(store.value()->append_control({Kind::kEpoch, 9}).has_value());
    EXPECT_EQ(store.value()->observed_epoch(), 9u);
    EXPECT_EQ(store.value()->observed_motion_epoch(), 3u);
  }
  {
    // Journal replay restores it.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->observed_motion_epoch(), 3u);
    // Compaction folds it into the snapshot meta.
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->observed_motion_epoch(), 3u);
    EXPECT_EQ(store.value()->observed_epoch(), 9u);
  }
  remove_crowd_store(dir);
}

TEST(QuantizedLstm, MotionEpochMarkerShipsToFollower) {
  const std::string leader_dir = "quant_ship_leader";
  const std::string follower_dir = "quant_ship_follower";
  remove_crowd_store(leader_dir);
  remove_crowd_store(follower_dir);

  auto leader = serve::ShardService::open_leader(0, leader_dir);
  ASSERT_TRUE(leader.has_value()) << leader.error();
  auto follower = serve::ShardReplica::open(follower_dir);
  ASSERT_TRUE(follower.has_value()) << follower.error();
  leader.value()->attach_follower(follower.value().get());

  const auto seq = leader.value()->ship_control({Kind::kMotionEpoch, 5});
  ASSERT_TRUE(seq.has_value()) << seq.error();
  // The ack contract: by the time shipping returns, the follower holds the
  // marker durably and has applied it.
  EXPECT_EQ(leader.value()->store()->observed_motion_epoch(), 5u);
  EXPECT_EQ(follower.value()->store().observed_motion_epoch(), 5u);

  remove_crowd_store(leader_dir);
  remove_crowd_store(follower_dir);
}

// ---------------------------------------------------------------------------
// Serving integration: the gated quant lane behind MotionPolicy.

TEST(ServeQuant, ArmQuantizedInstallsOnlyOnGatePass) {
  serve::MotionPolicy policy;
  // Unarmed policy: arming is a no-op that reports failure.
  EXPECT_FALSE(policy.arm_quantized({}).pass);
  EXPECT_FALSE(policy.quant_armed());

  policy.model = std::make_shared<nn::LstmClassifier>(trained_trend_model());
  policy.encoder = std::make_shared<DistAngleEncoder>();
  // Empty calibration can never pass the gate; fp64 keeps serving.
  EXPECT_FALSE(policy.arm_quantized({}).pass);
  EXPECT_FALSE(policy.quant_armed());
  EXPECT_EQ(policy.quant, nullptr);

  // The bound is per-deployment tuning: this toy model's int8 logit deltas
  // sit near 0.11, so arm with an explicit budget above them.
  const auto report = policy.arm_quantized(calibration_set(77, 24),
                                           nn::QuantMode::kInt8, 0.15);
  EXPECT_TRUE(report.pass) << "max delta " << report.max_abs_logit_delta;
  EXPECT_TRUE(policy.quant_armed());
  ASSERT_NE(policy.quant, nullptr);
  EXPECT_EQ(policy.quant_gate.verdict_checksum, report.verdict_checksum);
}

TEST(ServeQuant, ArmQuantizedReportEqualsGateCheck) {
  // Arming runs one fp64 pass for both the scales and the gate; its image
  // and report must equal quantize + quant_gate_check run separately, on a
  // passing bound and on a failing one.
  const auto model = std::make_shared<nn::LstmClassifier>(trained_trend_model());
  const auto calibration = calibration_set(77, 24);
  const auto q = nn::QuantizedLstm::quantize(*model, calibration);
  for (const double bound : {0.15, 1e-9}) {
    SCOPED_TRACE("bound " + std::to_string(bound));
    serve::MotionPolicy policy;
    policy.model = model;
    policy.encoder = std::make_shared<DistAngleEncoder>();
    const auto armed = policy.arm_quantized(calibration, nn::QuantMode::kInt8, bound);
    const auto gate = nn::quant_gate_check(*model, q, calibration, bound);
    EXPECT_EQ(armed.pass, gate.pass);
    EXPECT_EQ(armed.checked, gate.checked);
    EXPECT_EQ(armed.disagreements, gate.disagreements);
    EXPECT_EQ(armed.max_abs_logit_delta, gate.max_abs_logit_delta);
    EXPECT_EQ(armed.logit_delta_bound, gate.logit_delta_bound);
    EXPECT_EQ(armed.threshold, gate.threshold);
    EXPECT_EQ(armed.verdict_checksum, gate.verdict_checksum);
    EXPECT_EQ(policy.quant_armed(), gate.pass);
    if (gate.pass) {
      ASSERT_NE(policy.quant, nullptr);
      EXPECT_EQ(packed_image(*policy.quant), packed_image(q));
    } else {
      EXPECT_EQ(policy.quant, nullptr);
    }
  }
  // The logits-taking form wants one fp64 logit per sequence.
  EXPECT_THROW(nn::quant_gate_check(std::vector<double>(3), q, calibration, 0.15),
               std::invalid_argument);
}

TEST(ServeQuant, QuantLaneServesMotionVerdictsInService) {
  ts::LinearFieldWorld w;
  const auto probes = w.probe_mix(6);

  serve::VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.motion.model = std::make_shared<nn::LstmClassifier>(trained_trend_model());
  cfg.motion.encoder = std::make_shared<DistAngleEncoder>();
  // Calibrate on the encoder's view of this world's uploads — the
  // distribution the lane will actually serve.
  std::vector<FeatureSequence> calibration;
  for (const auto& u : w.probe_mix(16)) {
    calibration.push_back(cfg.motion.encoder->encode(u.positions));
  }
  const auto report = cfg.motion.arm_quantized(calibration);
  ASSERT_TRUE(report.pass) << "max delta " << report.max_abs_logit_delta;

  // fp64 twin of the same service for the decision-contract comparison.
  serve::VerifierServiceConfig fp_cfg;
  fp_cfg.auto_start = false;
  fp_cfg.motion.model = cfg.motion.model;
  fp_cfg.motion.encoder = cfg.motion.encoder;

  serve::VerifierService quant_service(w.detector(), cfg);
  serve::VerifierService fp_service(w.detector(), fp_cfg);
  std::vector<serve::VerificationRequest> requests;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    requests.push_back({i, probes[i], 0});
  }
  const auto qr = quant_service.verify_batch(requests);
  const auto fr = fp_service.verify_batch(requests);
  ASSERT_EQ(qr.size(), fr.size());
  for (std::size_t i = 0; i < qr.size(); ++i) {
    ASSERT_EQ(qr[i].outcome, serve::Outcome::kOk) << qr[i].error;
    ASSERT_TRUE(qr[i].has_motion_p_real);
    ASSERT_TRUE(fr[i].has_motion_p_real);
    // Not bit-identical — that is the point of the gate.  The *verdict* at
    // the serving threshold must agree, and the probability must sit within
    // the gate's logit budget.
    EXPECT_EQ(qr[i].motion_p_real >= 0.5, fr[i].motion_p_real >= 0.5)
        << "request " << i;
    EXPECT_NEAR(qr[i].motion_p_real, fr[i].motion_p_real, 0.05) << i;
  }
  EXPECT_EQ(quant_service.counters().motion_quant_batches, 1u);
  EXPECT_EQ(fp_service.counters().motion_quant_batches, 0u);

  // The dispatcher path: a started copy of the quant service answers the same
  // requests through submit() with the same discrete verdicts.
  serve::VerifierServiceConfig started_cfg = cfg;
  started_cfg.auto_start = true;
  serve::VerifierService started(w.detector(), started_cfg);
  std::vector<std::future<serve::VerdictResponse>> futures;
  for (const auto& request : requests) futures.push_back(started.submit(request));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto response = futures[i].get();
    ASSERT_EQ(response.outcome, serve::Outcome::kOk) << response.error;
    EXPECT_EQ(response.report.canonical_string(), fr[i].report.canonical_string())
        << "request " << i;
    ASSERT_TRUE(response.has_motion_p_real);
    EXPECT_EQ(response.motion_p_real >= 0.5, fr[i].motion_p_real >= 0.5)
        << "request " << i;
  }
  started.stop();
  EXPECT_GT(started.counters().motion_quant_batches, 0u);
}

}  // namespace
}  // namespace trajkit

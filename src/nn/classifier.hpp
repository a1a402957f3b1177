// LSTM-based binary trajectory classifier.
//
// This is the paper's target model C (1 LSTM layer + sigmoid head over the
// final hidden state) and, with num_layers = 2, the LSTM-2 variant of
// Sec. IV-A4.  Label convention: 1 = real trajectory, 0 = fake.
//
// Besides train/predict, the classifier exposes
// loss_and_input_gradient() — the cross-entropy loss toward a target label
// together with its gradient w.r.t. the input feature sequence, which is the
// model-side half of the C&W adversarial attack (Sec. II-B).
//
// Every pass runs on the packed-GEMM batched kernels (nn/kernels), which pack
// up to kernels::kLanes sequences per timestep into one GEMM and reuse
// workspace arenas instead of allocating per call.  The per-sample oracle
// they reproduce bit for bit lives beside the tests (tests/reference).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/rnn_batched.hpp"
#include "nn/lstm.hpp"
#include "traj/features.hpp"

namespace trajkit::nn {

namespace reference {
struct ClassifierAccess;
}  // namespace reference

struct LstmClassifierConfig {
  std::size_t input_dim = 2;
  std::size_t hidden_dim = 64;
  std::size_t num_layers = 1;  ///< 1 = classifier C, 2 = LSTM-2
  double learning_rate = 1e-3;
  double grad_clip = 5.0;      ///< global gradient-norm clip
  std::size_t batch_size = 16;
};

/// Per-epoch training telemetry.
struct TrainReport {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_accuracy;
};

/// One fp64 pass over a calibration set: what the int8 quantizer needs
/// (nn/quant_classifier.hpp) and what its gate compares against.
struct CalibrationPass {
  std::vector<double> logits;      ///< per sequence, as predict_logit_batch
  std::vector<double> max_input;   ///< per layer: max |input| over live steps
  std::vector<double> max_hidden;  ///< per layer: max |h_t| over live steps
};

class LstmClassifier {
 public:
  LstmClassifier(LstmClassifierConfig config, std::uint64_t seed);

  const LstmClassifierConfig& config() const { return config_; }

  /// Mini-batch Adam training.  `xs[i]` must have dim == config.input_dim.
  /// `progress` (optional) is called after each epoch with (epoch, loss, acc).
  TrainReport train(const std::vector<FeatureSequence>& xs, const std::vector<int>& ys,
                    std::size_t epochs,
                    const std::function<void(std::size_t, double, double)>& progress = {});

  /// Probability that the sequence is a real trajectory.
  double predict_proba(const FeatureSequence& x) const;

  /// Probabilities for a whole set of sequences, grouped kernels::kLanes at a
  /// time (bit-identical to predict_proba per sequence).
  std::vector<double> predict_proba_batch(const std::vector<FeatureSequence>& xs) const;

  /// Pre-sigmoid head output (predict_proba == sigmoid of this).  Exposed so
  /// the quantized serving lane's QuantGate can bound its logit delta against
  /// this fp64 oracle (nn/quant_classifier.hpp).
  double predict_logit(const FeatureSequence& x) const;
  std::vector<double> predict_logit_batch(const std::vector<FeatureSequence>& xs) const;

  /// Logits and per-layer activation maxima of `xs` in one batched pass,
  /// kernels::kLanes sequences per group, the groups spread over the global
  /// pool.  The maxima cover live lanes and live steps only (a group's dead
  /// lanes and a short sequence's padded steps hold bounded garbage), and
  /// max-abs is order-free, so the result is bit-identical to the per-sample
  /// pass at any thread count.  Throws std::invalid_argument on an empty set
  /// or a sequence whose shape does not match the model.
  CalibrationPass calibration_pass(const std::vector<FeatureSequence>& xs) const;

  /// Read-only parameter access for derived inference artifacts (the int8
  /// quantizer reads the weights; its activation scales come from
  /// calibration_pass).
  std::size_t layer_count() const { return layers_.size(); }
  const LstmLayer& layer(std::size_t l) const { return layers_[l]; }
  const DenseLayer& head_layer() const { return head_; }

  /// Hard decision at the given threshold (1 = real, 0 = fake).
  int predict(const FeatureSequence& x, double threshold = 0.5) const;

  /// Cross-entropy of the model output toward `target_label`, plus its
  /// gradient w.r.t. the input features (overwritten into `dx` if non-null).
  /// Parameter gradients are left untouched.
  double loss_and_input_gradient(const FeatureSequence& x, int target_label,
                                 FeatureSequence* dx) const;

  /// Binary image (architecture + raw weights, layout in nn/serialize.cpp)
  /// and durable-file persistence.  save_file commits the image as the one
  /// record of a CRC-framed durable container, version 2, atomically
  /// (common/durable); that is the only file format try_load_file reads.
  /// Every malformed input — bad magic, truncation, CRC mismatch, version
  /// skew, implausible architecture, a shape the config does not imply, a
  /// non-finite weight, trailing bytes — comes back as a diagnostic string.
  std::string image() const;
  static Expected<LstmClassifier, std::string> decode(std::string_view image);
  void save_file(const std::string& path) const;
  static Expected<LstmClassifier, std::string> try_load_file(const std::string& path);

 private:
  // The per-sample oracle's train() (tests/reference) drives the same
  // parameters and pack cache through these private members.
  friend struct reference::ClassifierAccess;

  /// All-zero parameters and no packs: decode() fills every parameter and
  /// then builds the packs once.
  explicit LstmClassifier(LstmClassifierConfig config);

  /// Batched-kernel forward over a group of batch <= kernels::kLanes
  /// sequences.  Fills the per-layer traces, the batch spec (backed by
  /// steps_buf), h_last (batch x hidden, row-major) and one logit per sample.
  void forward_batched(const FeatureSequence* const* xs, std::size_t batch,
                       kernels::Workspace& ws,
                       std::vector<kernels::LstmBatchTrace>& traces,
                       kernels::BatchSpec& spec, std::size_t* steps_buf,
                       double* h_last, double* logits) const;
  /// Batched-kernel backward.  head_dw/head_db and layer_grads collect
  /// parameter gradients (sample-ascending, t-descending — the reference
  /// order); pass null/empty for the input-gradient-only path.  dx_blocks
  /// (optional) receives the bottom layer's input gradient in block layout.
  void backward_batched(const std::vector<kernels::LstmBatchTrace>& traces,
                        const kernels::BatchSpec& spec, const double* h_last,
                        const double* dlogits, Matrix* head_dw, Matrix* head_db,
                        const std::vector<kernels::LstmGrads>& layer_grads,
                        double* dx_blocks, kernels::Workspace& ws) const;

  /// Re-pack every layer's weights into pack_store_ (both orientations).
  /// Called at every point that mutates parameters — construction, each
  /// optimizer step, deserialisation — so const passes can use the cache
  /// without ever rebuilding it concurrently.
  void rebuild_packs();
  /// The cached packings of layer l, as workspace-free views into pack_store_.
  kernels::LstmPacks packs_of(std::size_t l) const;

  LstmClassifierConfig config_;
  // The Adam optimizer is created inside train() (it holds raw pointers into
  // the layers, which must not outlive a move of this object); calling
  // train() twice restarts the moment estimates.
  std::vector<LstmLayer> layers_;
  DenseLayer head_;

  // Cached packed weights for the batched kernels, rebuilt by rebuild_packs().
  // Offsets (not pointers) into pack_store_, so the default copy of a model
  // keeps a valid cache.  Parameters only change through this class (the
  // optimizer inside train(), serialize.cpp's load), so the cache cannot go
  // stale behind our back.
  kernels::AlignedVector pack_store_;
  std::vector<std::size_t> pack_offsets_;  ///< 2 entries per layer: rows, transpose
};

}  // namespace trajkit::nn

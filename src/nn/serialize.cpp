// LstmClassifier persistence: one binary image of the architecture and every
// parameter matrix.
//
//   "TKLSTM2\n"                       8-byte magic
//   u64 input_dim, u64 hidden_dim, u64 num_layers, f64 learning_rate,
//   f64 grad_clip, u64 batch_size     the config
//   per LSTM layer: weights, bias     4H x (in + H), 4H x 1
//   head weights, head bias           1 x H, 1 x 1
//
// Each matrix is u64 rows, u64 cols, then rows * cols raw f64 values in
// row-major order.  Integers and doubles are native little-endian, as in
// every durable format.  On disk the image is the one record of a CRC-framed
// durable container (version 2), committed atomically (common/durable), so a
// crash mid-save can never leave a torn model and a flipped byte is a clean
// load error.
//
// The config fixes every shape, so the loader checks each matrix header
// against it and each value block against the bytes that remain before
// allocating the model.  It refuses non-finite weights and bytes after the
// head bias, fills a model built without the Glorot draw, and packs the
// weights once.
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/durable/bytes.hpp"
#include "common/durable/durable_file.hpp"
#include "nn/classifier.hpp"

namespace trajkit::nn {
namespace {

constexpr char kMagic[8] = {'T', 'K', 'L', 'S', 'T', 'M', '2', '\n'};
constexpr const char* kDurableTag = "lstm_classifier";
constexpr std::uint32_t kDurableVersion = 2;

// Sanity bounds on a decoded architecture: generous multiples of anything
// this repo trains, tight enough that the shape arithmetic below cannot
// overflow.
constexpr std::size_t kMaxDim = 65536;
constexpr std::size_t kMaxLayers = 64;

using Result = Expected<LstmClassifier, std::string>;

void append_matrix(std::string& out, const Matrix& m) {
  durable::append_u64(out, m.rows());
  durable::append_u64(out, m.cols());
  durable::append_array(out, m.data(), m.size());
}

/// One matrix of the image as the config implies it.
struct Slot {
  std::string what;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

std::vector<Slot> slots_of(const LstmClassifierConfig& cfg) {
  const std::size_t H = cfg.hidden_dim;
  std::vector<Slot> slots;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    const std::size_t in = l == 0 ? cfg.input_dim : H;
    const std::string layer = "layer " + std::to_string(l);
    slots.push_back({layer + " weights", 4 * H, in + H});
    slots.push_back({layer + " bias", 4 * H, 1});
  }
  slots.push_back({"head weights", 1, H});
  slots.push_back({"head bias", 1, 1});
  return slots;
}

}  // namespace

std::string LstmClassifier::image() const {
  std::string out(kMagic, sizeof kMagic);
  durable::append_u64(out, config_.input_dim);
  durable::append_u64(out, config_.hidden_dim);
  durable::append_u64(out, config_.num_layers);
  durable::append_pod(out, config_.learning_rate);
  durable::append_pod(out, config_.grad_clip);
  durable::append_u64(out, config_.batch_size);
  for (const auto& layer : layers_) {
    append_matrix(out, layer.weights());
    append_matrix(out, layer.bias());
  }
  append_matrix(out, head_.weights());
  append_matrix(out, head_.bias());
  return out;
}

Result LstmClassifier::decode(std::string_view image) {
  durable::ByteCursor cur{image};
  char magic[sizeof kMagic];
  if (!cur.read_bytes(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return Result::failure("model load: bad magic (not an LSTM model image)");
  }
  LstmClassifierConfig cfg;
  std::uint64_t input = 0, hidden = 0, layers = 0, batch = 0;
  if (!(cur.read(input) && cur.read(hidden) && cur.read(layers) &&
        cur.read(cfg.learning_rate) && cur.read(cfg.grad_clip) && cur.read(batch))) {
    return Result::failure("model load: truncated config");
  }
  if (input == 0 || input > kMaxDim || hidden == 0 || hidden > kMaxDim ||
      layers == 0 || layers > kMaxLayers || batch == 0 ||
      !std::isfinite(cfg.learning_rate) || !std::isfinite(cfg.grad_clip)) {
    return Result::failure("model load: implausible architecture");
  }
  cfg.input_dim = static_cast<std::size_t>(input);
  cfg.hidden_dim = static_cast<std::size_t>(hidden);
  cfg.num_layers = static_cast<std::size_t>(layers);
  cfg.batch_size = static_cast<std::size_t>(batch);

  // Walk the headers first: every shape matches the config and every value
  // block lies inside the image, before the model allocates.
  const std::vector<Slot> slots = slots_of(cfg);
  std::vector<std::string_view> blocks(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    std::uint64_t rows = 0, cols = 0;
    if (!cur.read(rows) || !cur.read(cols)) {
      return Result::failure("model load: truncated " + slot.what + " header");
    }
    if (rows != slot.rows || cols != slot.cols) {
      return Result::failure("model load: shape mismatch in " + slot.what + ": " +
                             std::to_string(rows) + "x" + std::to_string(cols) +
                             ", the config implies " + std::to_string(slot.rows) +
                             "x" + std::to_string(slot.cols));
    }
    if (!cur.read_view(blocks[i], slot.rows * slot.cols * sizeof(double))) {
      return Result::failure("model load: truncated " + slot.what);
    }
  }
  if (cur.remaining() != 0) {
    return Result::failure("model load: " + std::to_string(cur.remaining()) +
                           " trailing bytes after the head bias");
  }

  try {
    LstmClassifier model(cfg);
    std::vector<Matrix*> dst;
    for (auto& layer : model.layers_) {
      dst.push_back(&layer.weights());
      dst.push_back(&layer.bias());
    }
    dst.push_back(&model.head_.weights());
    dst.push_back(&model.head_.bias());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Matrix& m = *dst[i];
      std::memcpy(m.data(), blocks[i].data(), blocks[i].size());
      for (std::size_t k = 0; k < m.size(); ++k) {
        if (!std::isfinite(m.data()[k])) {
          return Result::failure("model load: non-finite weight in " + slots[i].what);
        }
      }
    }
    model.rebuild_packs();  // the batched kernels read cached packed weights
    return Result(std::move(model));
  } catch (const std::exception& e) {
    return Result::failure(std::string("model load: ") + e.what());
  }
}

void LstmClassifier::save_file(const std::string& path) const {
  durable::DurableWriter writer(kDurableTag, kDurableVersion);
  writer.add_record(image());
  auto committed = writer.commit(path);
  if (!committed) {
    throw std::runtime_error("model save: " + committed.error());
  }
}

Result LstmClassifier::try_load_file(const std::string& path) {
  auto records = durable::read_durable_file(path, kDurableTag, kDurableVersion);
  if (!records) return Result::failure("model load: " + records.error());
  if (records.value().size() != 1) {
    return Result::failure("model load: unexpected record count");
  }
  return decode(records.value()[0]);
}

}  // namespace trajkit::nn

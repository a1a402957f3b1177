// Text (de)serialisation of LstmClassifier: architecture line followed by all
// weight matrices in full precision.  Human-inspectable and
// platform-independent; model files are small (hidden sizes are modest).
//
// On disk the text payload is wrapped in a CRC-framed durable container and
// committed atomically (common/durable), so a crash mid-save can never leave
// a torn model and a flipped byte is a clean load error.
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/durable/durable_file.hpp"
#include "nn/classifier.hpp"

namespace trajkit::nn {
namespace {

constexpr const char* kMagic = "trajkit_lstm_classifier_v1";
constexpr const char* kDurableTag = "lstm_classifier";
constexpr std::uint32_t kDurableVersion = 1;

// Sanity bounds on a deserialised architecture: generous multiples of
// anything this repo trains, tight enough that a corrupt header cannot make
// the loader allocate gigabytes before the first weight fails to parse.
constexpr std::size_t kMaxDim = 65536;
constexpr std::size_t kMaxLayers = 64;
constexpr std::size_t kMaxMatrixElements = std::size_t{1} << 26;

void write_matrix(std::ostream& os, const Matrix& m) {
  os << m.rows() << ' ' << m.cols() << '\n';
  os << std::setprecision(17);
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << m.data()[i] << (((i + 1) % 8 == 0) ? '\n' : ' ');
  }
  os << '\n';
}

Matrix read_matrix(std::istream& is) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  if (!(is >> rows >> cols)) throw std::runtime_error("bad matrix header");
  if (rows == 0 || cols == 0 || rows > kMaxMatrixElements ||
      cols > kMaxMatrixElements || rows > kMaxMatrixElements / cols) {
    throw std::runtime_error("implausible matrix shape");
  }
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!(is >> m.data()[i])) throw std::runtime_error("truncated matrix");
    if (!std::isfinite(m.data()[i])) {
      throw std::runtime_error("non-finite weight");
    }
  }
  return m;
}

void copy_into(Matrix& dst, const Matrix& src, const char* what) {
  if (dst.rows() != src.rows() || dst.cols() != src.cols()) {
    throw std::runtime_error(std::string("shape mismatch in ") + what);
  }
  dst = src;
}

}  // namespace

void LstmClassifier::save(std::ostream& os) const {
  os << kMagic << '\n';
  os << config_.input_dim << ' ' << config_.hidden_dim << ' ' << config_.num_layers
     << ' ' << config_.learning_rate << ' ' << config_.grad_clip << ' '
     << config_.batch_size << '\n';
  for (const auto& layer : layers_) {
    write_matrix(os, layer.weights());
    write_matrix(os, layer.bias());
  }
  write_matrix(os, head_.weights());
  write_matrix(os, head_.bias());
}

Expected<LstmClassifier, std::string> LstmClassifier::try_load(std::istream& is) {
  using Result = Expected<LstmClassifier, std::string>;
  std::string magic;
  if (!(is >> magic) || magic != kMagic) {
    return Result::failure("model load: bad magic");
  }
  LstmClassifierConfig cfg;
  if (!(is >> cfg.input_dim >> cfg.hidden_dim >> cfg.num_layers >> cfg.learning_rate >>
        cfg.grad_clip >> cfg.batch_size)) {
    return Result::failure("model load: bad config line");
  }
  if (cfg.input_dim == 0 || cfg.input_dim > kMaxDim || cfg.hidden_dim == 0 ||
      cfg.hidden_dim > kMaxDim || cfg.num_layers == 0 ||
      cfg.num_layers > kMaxLayers || cfg.batch_size == 0 ||
      !std::isfinite(cfg.learning_rate) || !std::isfinite(cfg.grad_clip)) {
    return Result::failure("model load: implausible architecture");
  }
  try {
    LstmClassifier model(cfg, /*seed=*/0);
    for (auto& layer : model.layers_) {
      copy_into(layer.weights(), read_matrix(is), "lstm weights");
      copy_into(layer.bias(), read_matrix(is), "lstm bias");
    }
    copy_into(model.head_.weights(), read_matrix(is), "head weights");
    copy_into(model.head_.bias(), read_matrix(is), "head bias");
    model.rebuild_packs();  // the batched kernels read cached packed weights
    return Result(std::move(model));
  } catch (const std::exception& e) {
    return Result::failure(std::string("model load: ") + e.what());
  }
}

void LstmClassifier::save_file(const std::string& path) const {
  std::ostringstream payload;
  save(payload);
  durable::DurableWriter writer(kDurableTag, kDurableVersion);
  writer.add_record(payload.str());
  auto committed = writer.commit(path);
  if (!committed) {
    throw std::runtime_error("model save: " + committed.error());
  }
}

Expected<LstmClassifier, std::string> LstmClassifier::try_load_file(
    const std::string& path) {
  using Result = Expected<LstmClassifier, std::string>;
  auto records = durable::read_durable_file(path, kDurableTag, kDurableVersion);
  if (!records) return Result::failure("model load: " + records.error());
  if (records.value().size() != 1) {
    return Result::failure("model load: unexpected record count");
  }
  std::istringstream is(records.value()[0]);
  return try_load(is);
}

}  // namespace trajkit::nn

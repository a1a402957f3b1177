#include "world.hpp"

#include <stdexcept>

namespace servebench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

World build_world(const WorldSpec& spec, const std::string& dir) {
  World w;
  w.scenario = std::make_unique<core::Scenario>(core::ScenarioConfig::for_mode(Mode::kWalking));
  w.collected = w.scenario->scanned_real(spec.trajectories, spec.points, 2.0);
  w.history_count = w.collected.size() * 3 / 4;

  std::vector<wifi::ScannedUpload> history_uploads;
  for (std::size_t i = 0; i < w.history_count; ++i) {
    history_uploads.push_back(core::to_upload(w.collected[i]));
  }
  w.history = wifi::flatten_history(history_uploads);
  w.oracle = std::make_unique<wifi::RssiDetector>(w.history, wifi::RssiDetectorConfig{});

  // Training set: 3/4 of the history as genuine (own trajectory excluded
  // from its reference circle), the rest forged.
  Rng& rng = w.scenario->rng();
  const double min_d = attack::paper_mind(Mode::kWalking);
  std::vector<wifi::ScannedUpload> train;
  std::vector<int> labels;
  const std::size_t train_real = w.history_count * 3 / 4;
  for (std::size_t i = 0; i < w.history_count; ++i) {
    if (i < train_real) {
      auto upload = core::to_upload(w.collected[i]);
      upload.source_traj_id = static_cast<std::uint32_t>(i);
      train.push_back(std::move(upload));
      labels.push_back(1);
    } else {
      train.push_back(core::forge_upload(w.collected[i], min_d + 0.1, 1, rng));
      labels.push_back(0);
    }
  }
  w.oracle->train(train, labels);
  w.detector_path = dir + "/detector.model";
  w.oracle->save_file(w.detector_path);

  if (spec.motion) {
    w.encoder = std::make_shared<DistAngleEncoder>();
    std::vector<FeatureSequence> xs;
    for (const auto& upload : train) xs.push_back(w.encoder->encode(upload.positions));
    nn::LstmClassifierConfig mcfg;
    mcfg.hidden_dim = spec.motion_hidden;
    w.motion_model = std::make_shared<nn::LstmClassifier>(mcfg, 5);
    w.motion_model->train(xs, labels, 1);
    w.motion_path = dir + "/motion.model";
    w.motion_model->save_file(w.motion_path);
    for (std::size_t i = 0; i < xs.size() && w.calibration.size() < 48; i += 2) {
      w.calibration.push_back(xs[i]);
    }
  }
  return w;
}

RequestPool make_pool(World& world, std::size_t reals, std::size_t forgeries) {
  RequestPool pool;
  Rng& rng = world.scenario->rng();
  rng = Rng(mix_seed(world.scenario->config().seed, 1));
  const std::size_t points = world.collected.front().scans.size();
  for (const auto& traj : world.scenario->scanned_real(reals, points, 2.0)) {
    pool.uploads.push_back(core::to_upload(traj));
    pool.forged.push_back(0);
  }
  const double min_d = attack::paper_mind(Mode::kWalking);
  for (std::size_t i = 0; i < forgeries; ++i) {
    const auto& source = world.collected[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(world.history_count) - 1))];
    pool.uploads.push_back(core::forge_upload(source, min_d + 0.1, 1, rng));
    pool.forged.push_back(1);
  }
  return pool;
}

CrowdBatch make_crowd(World& world, std::size_t trajectories, std::uint64_t seed) {
  CrowdBatch batch;
  world.scenario->rng() = Rng(mix_seed(seed, 2));
  const std::size_t points = world.collected.front().scans.size();
  const auto trajs = world.scenario->scanned_real(trajectories, points, 2.0);
  for (std::size_t t = 0; t < trajs.size(); ++t) {
    const auto upload = core::to_upload(trajs[t]);
    for (std::size_t i = 0; i < upload.positions.size(); ++i) {
      wifi::ReferencePoint point;
      point.pos = upload.positions[i];
      point.scan = upload.scans[i];
      batch.points.push_back(std::move(point));
      batch.uploaders.push_back(static_cast<wifi::UploaderId>(1000 + t));
    }
  }
  return batch;
}

}  // namespace servebench

#include "support/fixtures.hpp"

#include <cmath>
#include <utility>

namespace trajkit::test_support {

LinearFieldWorld::LinearFieldWorld(const LinearWorldConfig& config)
    : config_(config), rng_(config.seed) {
  std::vector<wifi::ReferencePoint> history;
  for (int i = 0; i < config_.history_points; ++i) {
    const Enu p{rng_.uniform(0, config_.area_m), rng_.uniform(0, config_.area_m)};
    history.push_back({p,
                       {{1, field_rssi(p)}},
                       static_cast<std::uint32_t>(i) / config_.points_per_trajectory});
  }
  wifi::RssiDetectorConfig cfg;
  cfg.confidence.reference_radius_m = config_.reference_radius_m;
  cfg.confidence.top_k = config_.top_k;
  cfg.classifier.num_trees = config_.trees;
  detector_ = std::make_unique<wifi::RssiDetector>(std::move(history), cfg);

  std::vector<wifi::ScannedUpload> train;
  std::vector<int> labels;
  for (int i = 0; i < config_.train_pairs; ++i) {
    train.push_back(upload(true));
    labels.push_back(1);
    train.push_back(upload(false));
    labels.push_back(0);
  }
  detector_->train(train, labels);
}

int LinearFieldWorld::field_rssi(const Enu& p) {
  return static_cast<int>(std::lround(-40.0 - p.east));
}

wifi::ScannedUpload LinearFieldWorld::upload(bool real) {
  return upload(real, rng_);
}

wifi::ScannedUpload LinearFieldWorld::upload(bool real, Rng& rng) const {
  const double lo = config_.margin_m;
  const double hi = config_.area_m - config_.margin_m;
  wifi::ScannedUpload u;
  for (std::size_t j = 0; j < config_.upload_points; ++j) {
    const Enu p{rng.uniform(lo, hi), rng.uniform(lo, hi)};
    u.positions.push_back(p);
    const Enu heard = real ? p : Enu{p.east + config_.fake_shift_m, p.north};
    u.scans.push_back({{1, field_rssi(heard)}});
  }
  return u;
}

std::vector<wifi::ScannedUpload> LinearFieldWorld::probe_mix(std::size_t n) {
  std::vector<wifi::ScannedUpload> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) probes.push_back(upload(i % 2 == 0));
  return probes;
}

ScenarioServiceWorld::ScenarioServiceWorld(const ScenarioWorldConfig& config) {
  scenario = std::make_unique<core::Scenario>(small_scenario_config());
  const auto batch =
      scenario->scanned_real(config.total, config.points, config.interval_s);
  Rng& rng = scenario->rng();

  std::vector<wifi::ScannedUpload> history;
  for (std::size_t i = 0; i < config.history; ++i) {
    history.push_back(core::to_upload(batch[i]));
  }
  wifi::RssiDetectorConfig cfg;
  cfg.classifier.num_trees = config.trees;
  detector = std::make_unique<wifi::RssiDetector>(wifi::flatten_history(history), cfg);

  std::vector<wifi::ScannedUpload> train;
  std::vector<int> labels;
  for (std::size_t i = 0; i < config.history; ++i) {
    auto upload = core::to_upload(batch[i]);
    upload.source_traj_id = static_cast<std::uint32_t>(i);
    train.push_back(std::move(upload));
    labels.push_back(1);
  }
  for (std::size_t i = config.history; i < config.total; ++i) {
    train.push_back(core::forge_upload(batch[i], config.forge_offset_m, 1, rng));
    labels.push_back(0);
  }
  detector->train(train, labels);

  for (std::size_t i = 0; i < config.fresh_probes; ++i) {
    probes.push_back(core::to_upload(batch[config.history + i]));
  }
  for (std::size_t i = 0; i < config.forged_probes; ++i) {
    probes.push_back(core::forge_upload(batch[i], config.forge_offset_m, 1, rng));
  }
}

core::ScenarioConfig small_scenario_config() {
  return core::ScenarioConfig::for_mode(Mode::kWalking);
}

std::vector<Enu> random_walk_enu(Rng& rng, std::size_t n, double max_step_m,
                                 Enu start) {
  std::vector<Enu> pts;
  pts.reserve(n);
  Enu p = start;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(p);
    const double step = rng.uniform(0.0, max_step_m);
    const double heading = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    p.east += step * std::cos(heading);
    p.north += step * std::sin(heading);
  }
  return pts;
}

wifi::ProvenanceGrid fold_provenance(const wifi::CrowdStore& store) {
  wifi::ProvenanceGrid grid;
  for (std::size_t h = 0; h < store.arrays().size(); ++h) {
    grid.add(store.point(h), store.uploaders()[h]);
  }
  return grid;
}

}  // namespace trajkit::test_support

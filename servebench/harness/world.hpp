// Fixture worlds and seeded request streams.
//
// A world is the simulated evaluation area (the paper's area A: walking,
// 3.4 hm^2), the provider's crowdsourced history H over it, a trained
// detector J and, when asked for, the motion classifier C.  Worlds are built
// from the scenario's fixed seed, so every run of a workload serves the same
// model; the workload seed only draws the uploads the load generator sends.
// Simulation and training are fixture steps, outside every timer; the
// trained models are persisted so a timed cold start can open them.  The
// request pool is part of the fixture too: a workload is a fixed traffic mix
// over a fixed city, and the seed draws the order the uploads arrive in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trajkit.hpp"
#include "wifi/provenance.hpp"

namespace servebench {

using namespace trajkit;

struct WorldSpec {
  std::size_t trajectories = 200;  ///< simulated; 3/4 become history H
  std::size_t points = 30;         ///< points per trajectory and per upload
  bool motion = false;             ///< also train the motion classifier
  std::size_t motion_hidden = 384;
};

struct World {
  std::unique_ptr<core::Scenario> scenario;
  std::vector<sim::ScannedTrajectory> collected;
  std::size_t history_count = 0;
  std::vector<wifi::ReferencePoint> history;  ///< flattened H
  /// The trained detector, kept in memory as the oracle.
  std::unique_ptr<wifi::RssiDetector> oracle;
  std::string detector_path;
  /// Motion classifier (fp64 oracle lane) and its persisted copy.
  std::shared_ptr<nn::LstmClassifier> motion_model;
  std::shared_ptr<DistAngleEncoder> encoder;
  std::vector<FeatureSequence> calibration;  ///< quant calibration set
  std::string motion_path;
};

/// Simulate, train and persist a world under directory `dir`.
World build_world(const WorldSpec& spec, const std::string& dir);

/// Uploads the load generator draws from: fresh genuine trajectories plus
/// forgeries of history trajectories (the paper's attack: a replay shifted
/// to just past the minimum DTW distance, RSSIs disturbed by 1 dB).
struct RequestPool {
  std::vector<wifi::ScannedUpload> uploads;
  std::vector<char> forged;  ///< parallel to uploads
};
RequestPool make_pool(World& world, std::size_t reals, std::size_t forgeries);

/// Fresh crowd scans for ingestion: `trajectories` new genuine trajectories,
/// flattened, each point stamped with its trajectory's uploader id.
struct CrowdBatch {
  std::vector<wifi::ReferencePoint> points;
  std::vector<wifi::UploaderId> uploaders;
};
CrowdBatch make_crowd(World& world, std::size_t trajectories, std::uint64_t seed);

/// splitmix64: derives independent stream seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace servebench

// Shared test fixtures and property-based generators.
//
// Before this toolkit existed, serve_test, wifi_test and determinism_test
// each carried a private copy of the same synthetic world: a linear RSSI
// field over a small area, real uploads scanned where they claim to be, and
// fakes whose claimed positions are shifted east of where the (genuine)
// scans were heard.  The copies drifted in area size, shift distance and
// training volume, so a fixture bug had to be fixed N times.  This header is
// the one copy, parameterised:
//
//   * LinearFieldWorld — the cheap analytic world (field value = -40 - east
//     dBm) with a trained detector and real/forged upload generators.  Fully
//     deterministic for a fixed config, which is what lets golden_test pin
//     its feature vectors.
//   * ScenarioServiceWorld — the expensive simulator-backed world
//     (core::Scenario) with a trained detector and a mixed probe set, the
//     shape the serving determinism and chaos tests drive.
//   * random_walk_enu / random_upload_pair — property-style generators for
//     tests that sweep many random inputs rather than one fixture.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/rssi_pipeline.hpp"
#include "core/scenario.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/detector.hpp"

namespace trajkit::test_support {

// ---------------------------------------------------------------------------
// Linear-field world

struct LinearWorldConfig {
  std::uint64_t seed = 7;
  double area_m = 30.0;       ///< world is [0, area_m]^2
  double margin_m = 2.0;      ///< uploads keep this far from the edges
  int history_points = 600;   ///< crowdsourced reference points
  std::uint32_t points_per_trajectory = 10;  ///< history traj-id granularity
  std::size_t upload_points = 6;             ///< points per generated upload
  double fake_shift_m = 15.0; ///< forged scans heard this far east of claim
  int train_pairs = 30;       ///< (real, fake) pairs used to train
  int trees = 15;             ///< classifier size
  double reference_radius_m = 3.0;
  int top_k = 2;
};

class LinearFieldWorld {
 public:
  LinearFieldWorld() : LinearFieldWorld(LinearWorldConfig{}) {}
  explicit LinearFieldWorld(const LinearWorldConfig& config);

  /// The analytic RSSI field: 1 dB per metre east.
  static int field_rssi(const Enu& p);

  /// Draw an upload from the world's own stream (stateful, deterministic in
  /// call order).
  wifi::ScannedUpload upload(bool real);
  /// Draw an upload from a caller-owned stream (property-based sweeps).
  wifi::ScannedUpload upload(bool real, Rng& rng) const;
  /// n uploads alternating real/forged, starting real.
  std::vector<wifi::ScannedUpload> probe_mix(std::size_t n);

  wifi::RssiDetector& detector() { return *detector_; }
  const LinearWorldConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

 private:
  LinearWorldConfig config_;
  Rng rng_;
  std::unique_ptr<wifi::RssiDetector> detector_;
};

// ---------------------------------------------------------------------------
// Scenario-backed serving world

struct ScenarioWorldConfig {
  std::size_t total = 12;      ///< scanned trajectories collected
  std::size_t points = 15;     ///< points per trajectory
  double interval_s = 2.0;
  std::size_t history = 9;     ///< collected[0, history) become the store
  int trees = 10;
  std::size_t fresh_probes = 3;   ///< collected tail served as real probes
  std::size_t forged_probes = 3;  ///< forged replays of history as probes
  double forge_offset_m = 2.0;
};

/// Simulator world + trained detector + probe mix, built once and shared by
/// the serving determinism and chaos tests.
struct ScenarioServiceWorld {
  ScenarioServiceWorld() : ScenarioServiceWorld(ScenarioWorldConfig{}) {}
  explicit ScenarioServiceWorld(const ScenarioWorldConfig& config);

  std::unique_ptr<core::Scenario> scenario;
  std::unique_ptr<wifi::RssiDetector> detector;
  std::vector<wifi::ScannedUpload> probes;
};

/// The shared small walking-mode scenario (integration/determinism tests).
core::ScenarioConfig small_scenario_config();

// ---------------------------------------------------------------------------
// Property-style generators

/// Random-walk ENU trajectory: n points, uniform step length in
/// [0, max_step_m], uniform heading, starting at `start`.
std::vector<Enu> random_walk_enu(Rng& rng, std::size_t n, double max_step_m,
                                 Enu start = {});

// ---------------------------------------------------------------------------
// Crowd store

/// The provenance grid `store`'s arrays() and uploaders() fold to, in
/// ingestion order: what CrowdStore::open must rebuild from a snapshot.
wifi::ProvenanceGrid fold_provenance(const wifi::CrowdStore& store);

}  // namespace trajkit::test_support

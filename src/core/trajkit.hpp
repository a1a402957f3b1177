// Umbrella header: the full trajkit public API.
//
// trajkit reproduces "Are You Moving as You Claim: GPS Trajectory Forgery and
// Detection in Location-Based Services" (ICDCS 2022).  Quick tour:
//
//   core::Scenario           — a simulated evaluation area (map + GPS + WiFi)
//   core::MotionModels       — the paper's four motion classifiers
//   attack::CwAttacker       — adversarial trajectory forgery (Sec. II)
//   attack::naive_noise_attack / smooth_replay_perturbation — baseline attacks
//   wifi::RssiDetector       — the RSSI-based defense J(T, H) (Sec. III)
//   serve::VerifierService   — batched serving layer around a trained detector
//   core::run_rssi_experiment— the Sec. IV-B evaluation protocol
//
// See examples/quickstart.cpp for a end-to-end walkthrough.
#pragma once

#include "attack/cw.hpp"
#include "attack/gradient_baselines.hpp"
#include "attack/spsa.hpp"
#include "attack/mind.hpp"
#include "attack/naive.hpp"
#include "attack/replay.hpp"
#include "baseline/accel_check.hpp"
#include "baseline/replay_check.hpp"
#include "baseline/rssi_similarity.hpp"
#include "baseline/rule_based.hpp"
#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/motion_pipeline.hpp"
#include "core/rssi_pipeline.hpp"
#include "core/scenario.hpp"
#include "dtw/dtw.hpp"
#include "gbt/booster.hpp"
#include "geo/geo.hpp"
#include "map/city.hpp"
#include "map/matcher.hpp"
#include "map/nav.hpp"
#include "nn/classifier.hpp"
#include "serve/service.hpp"
#include "sim/accelerometer.hpp"
#include "sim/dataset.hpp"
#include "traj/features.hpp"
#include "traj/io.hpp"
#include "traj/trajectory.hpp"
#include "wifi/detector.hpp"

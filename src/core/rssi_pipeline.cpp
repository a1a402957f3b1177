#include "core/rssi_pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "attack/mind.hpp"
#include "attack/replay.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "serve/service.hpp"

namespace trajkit::core {
namespace {

/// Thin a scan to `keep` fraction of its APs (random deletion, Fig. 6).
wifi::WifiScan thin_scan(const wifi::WifiScan& scan, double keep, Rng& rng) {
  if (keep >= 1.0) return scan;
  wifi::WifiScan out;
  for (const auto& obs : scan) {
    if (rng.chance(keep)) out.push_back(obs);
  }
  // Never drop the whole scan — real clients always report what they heard.
  if (out.empty() && !scan.empty()) out.push_back(scan.front());
  return out;
}

void thin_upload(wifi::ScannedUpload& upload, double keep, Rng& rng) {
  if (keep >= 1.0) return;
  for (auto& scan : upload.scans) scan = thin_scan(scan, keep, rng);
}

}  // namespace

wifi::ScannedUpload to_upload(const sim::ScannedTrajectory& traj) {
  wifi::ScannedUpload upload;
  upload.positions = traj.reported.to_enu(sim::sim_projection());
  upload.scans = traj.scans;
  return upload;
}

wifi::ScannedUpload forge_upload(const sim::ScannedTrajectory& historical,
                                 double dtw_offset_m, int disturbance_db, Rng& rng) {
  wifi::ScannedUpload upload;
  const auto hist_pts = historical.reported.to_enu(sim::sim_projection());
  // Same displacement smoothness as the C&W attack's iterates (cw.hpp
  // init_correlation): the RSSI experiment judges the forgeries the motion
  // attack actually produces.
  upload.positions =
      attack::smooth_replay_perturbation(hist_pts, dtw_offset_m, rng, 0.997);
  upload.scans = historical.scans;
  for (auto& scan : upload.scans) {
    for (auto& obs : scan) {
      obs.rssi_dbm += static_cast<int>(
          rng.uniform_int(-disturbance_db, disturbance_db));
    }
  }
  return upload;
}

RssiExperimentResult run_rssi_experiment(Scenario& scenario,
                                         const RssiExperimentConfig& config) {
  return run_rssi_experiment_on(scenario, collect_rssi_dataset(scenario, config),
                                config);
}

std::vector<sim::ScannedTrajectory> collect_rssi_dataset(
    Scenario& scenario, const RssiExperimentConfig& config) {
  if (config.total < 20) {
    throw std::invalid_argument("collect_rssi_dataset: total too small");
  }
  return scenario.scanned_real(config.total, config.points, config.interval_s);
}

RssiExperimentResult run_rssi_experiment_on(
    Scenario& scenario, const std::vector<sim::ScannedTrajectory>& collected,
    const RssiExperimentConfig& config) {
  if (collected.size() < 20) {
    throw std::invalid_argument("run_rssi_experiment_on: dataset too small");
  }
  Rng& rng = scenario.rng();
  const double replay_offset =
      config.replay_offset_m > 0.0
          ? config.replay_offset_m
          : attack::paper_mind(scenario.mode()) + 0.1;

  // 2. Split: 80% history, 20% fresh (the paper's 4,000 / 1,000).
  const std::size_t hist_count = collected.size() * 4 / 5;
  const std::vector<sim::ScannedTrajectory> history(collected.begin(),
                                                    collected.begin() + hist_count);
  const std::vector<sim::ScannedTrajectory> fresh(collected.begin() + hist_count,
                                                  collected.end());

  // Crowdsourced reference store, optionally thinned (Fig. 5).
  std::vector<wifi::ReferencePoint> refs;
  for (std::size_t t = 0; t < history.size(); ++t) {
    const auto pts = history[t].reported.to_enu(sim::sim_projection());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (config.reference_keep >= 1.0 || rng.chance(config.reference_keep)) {
        refs.push_back({pts[i], history[t].scans[i], static_cast<std::uint32_t>(t)});
      }
    }
  }

  wifi::RssiDetectorConfig det_cfg = config.detector;
  det_cfg.confidence.reference_radius_m = config.reference_radius_m;
  det_cfg.confidence.top_k = config.top_k;
  wifi::RssiDetector detector(std::move(refs), det_cfg);

  // 3. Training set: 60% of history as normal uploads, the next 20% forged
  //    twice each (replay + navigation-style).
  const std::size_t train_real_count = hist_count * 3 / 4;  // 3,000 of 4,000

  std::vector<wifi::ScannedUpload> train;
  std::vector<int> train_labels;
  for (std::size_t i = 0; i < train_real_count; ++i) {
    auto upload = to_upload(history[i]);
    upload.source_traj_id = static_cast<std::uint32_t>(i);  // no self-voting
    train.push_back(std::move(upload));
    train_labels.push_back(1);
  }
  for (std::size_t i = train_real_count; i < hist_count; ++i) {
    train.push_back(
        forge_upload(history[i], replay_offset, config.rssi_disturbance_db, rng));
    train_labels.push_back(0);
    train.push_back(forge_upload(history[i], config.navigation_offset_m,
                                 config.rssi_disturbance_db, rng));
    train_labels.push_back(0);
  }

  // 4. Test set: fresh reals + equally many fakes from random history.
  std::vector<wifi::ScannedUpload> test;
  std::vector<int> test_labels;
  for (const auto& traj : fresh) {
    test.push_back(to_upload(traj));
    test_labels.push_back(1);
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const auto& source = history[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hist_count) - 1))];
    const bool replay_style = rng.chance(0.5);
    test.push_back(forge_upload(
        source, replay_style ? replay_offset : config.navigation_offset_m,
        config.rssi_disturbance_db, rng));
    test_labels.push_back(0);
  }

  // Fig. 6 knob: thin every upload's scans.
  for (auto& upload : train) thin_upload(upload, config.ap_keep, rng);
  for (auto& upload : test) thin_upload(upload, config.ap_keep, rng);

  // 5. Train, then evaluate through the serving layer.  The service is the
  // production face of the detector, so the experiment scores its test set the
  // same way a deployment would: one micro-batched verify_batch call.
  // verify_batch fans out per upload on the deterministic pool and returns
  // responses in request order, so the serial running-stat fold below is
  // identical for every thread count.
  detector.train(train, train_labels);

  serve::VerifierServiceConfig serve_cfg;
  serve_cfg.auto_start = false;  // sync path only; no dispatcher thread
  serve::VerifierService service(detector, serve_cfg);

  std::vector<serve::VerificationRequest> requests;
  requests.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    requests.push_back({static_cast<std::uint64_t>(i), std::move(test[i]), 0});
  }
  const std::vector<serve::VerdictResponse> responses =
      service.verify_batch(requests);

  // Side statistics (scan sizes, reference coverage) are not part of the
  // verdict; compute them from the same uploads in a second read-only pass.
  struct EvalRow {
    std::vector<double> scan_sizes;
    std::vector<double> ref_counts;
  };
  std::vector<EvalRow> rows(requests.size());
  parallel_for(0, requests.size(), 1, [&](std::size_t i) {
    EvalRow& row = rows[i];
    const wifi::ScannedUpload& upload = requests[i].upload;
    row.scan_sizes.reserve(upload.scans.size());
    for (const auto& scan : upload.scans) {
      row.scan_sizes.push_back(static_cast<double>(scan.size()));
    }
    row.ref_counts.reserve(upload.positions.size());
    for (const auto& pos : upload.positions) {
      row.ref_counts.push_back(
          static_cast<double>(detector.confidence().reference_count(pos)));
    }
  });

  RssiExperimentResult result;
  RunningStats k_stats;
  RunningStats ref_stats;
  std::vector<double> k_values;
  std::vector<double> scores;
  scores.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (responses[i].outcome != serve::Outcome::kOk) {
      throw std::runtime_error("run_rssi_experiment_on: verification failed: " +
                               responses[i].error);
    }
    scores.push_back(responses[i].report.p_real);
    result.confusion.add(test_labels[i], responses[i].report.verdict);
    for (const double k : rows[i].scan_sizes) {
      k_stats.add(k);
      k_values.push_back(k);
    }
    for (const double c : rows[i].ref_counts) ref_stats.add(c);
  }
  result.auc = roc_auc(test_labels, scores);
  result.avg_k = k_stats.mean();
  result.min_k = k_stats.min();
  result.k_p10 = percentile(std::move(k_values), 10.0);
  result.avg_refs_per_point = ref_stats.mean();
  const double area = M_PI * config.reference_radius_m * config.reference_radius_m;
  result.ref_density_per_m2 = ref_stats.mean() / area;
  return result;
}

}  // namespace trajkit::core

// Micro-benchmarks (google-benchmark): the hot paths of the library.
//   * DTW (distance-only, banded, and the normalised gradient the attack
//     runs) at trajectory sizes used by the attack
//   * LSTM forward and forward+backward per sequence
//   * spatial-grid radius queries of the reference index
//   * point-confidence computation (Eqs. 4-7) on a uniform reference set
//     and on trajectory-clustered ones of 300, 1,000 and 3,000 trajectories
//   * booster training on Eq. 8-sized feature vectors
//   * detector model save and load (save_file / try_load_file) at 9,000
//     and 135,000 reference points
//   * crowd store open (snapshot read, decode, provenance refold) at 4,500
//     and 45,000 points, the provenance fold alone on the same histories,
//     stamped crowd appends (journal, reputation scoring, fold) and an
//     unfiltered epoch publish over the whole store
//   * motion-model load and arming the int8 motion lane (calibration pass,
//     quantize, gate) at servebench's hidden-384 shape
//   * the shard segment RPC codec: a 16-point request and its top_k = 8
//     response, encoded and decoded
//   * A* vs Dijkstra on the synthetic city
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "common/durable/durable_file.hpp"
#include "core/trajkit.hpp"
#include "net/rpc.hpp"
#include "wifi/crowd_store.hpp"

using namespace trajkit;

namespace {

std::vector<Enu> random_walk(Rng& rng, std::size_t n) {
  std::vector<Enu> pts = {{0, 0}};
  for (std::size_t i = 1; i < n; ++i) {
    pts.push_back({pts.back().east + rng.uniform(-2, 3),
                   pts.back().north + rng.uniform(-2, 2)});
  }
  return pts;
}

void BM_DtwFull(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_walk(rng, n);
  const auto b = random_walk(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw_distance(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DtwFull)->Arg(30)->Arg(100)->Arg(400)->Complexity(benchmark::oNSquared);

void BM_DtwBanded(benchmark::State& state) {
  Rng rng(2);
  const auto a = random_walk(rng, 400);
  const auto b = random_walk(rng, 400);
  const auto band = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw_banded(a, b, band).distance);
  }
}
BENCHMARK(BM_DtwBanded)->Arg(10)->Arg(50)->Arg(400);

void BM_DtwGradient(benchmark::State& state) {
  Rng rng(3);
  const auto a = random_walk(rng, 100);
  const auto b = random_walk(rng, 100);
  std::vector<Enu> grad(b.size());
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), Enu{});
    benchmark::DoNotOptimize(dtw_normalized_gradient(a, b, grad));
  }
}
BENCHMARK(BM_DtwGradient);

void BM_LstmForward(benchmark::State& state) {
  nn::LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = static_cast<std::size_t>(state.range(0));
  nn::LstmClassifier model(cfg, 1);
  Rng rng(4);
  FeatureSequence x;
  x.steps = 100;
  x.dim = 2;
  x.values.resize(200);
  for (auto& v : x.values) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(x));
  }
}
BENCHMARK(BM_LstmForward)->Arg(32)->Arg(64)->Arg(128);

void BM_LstmForwardBackward(benchmark::State& state) {
  nn::LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = static_cast<std::size_t>(state.range(0));
  nn::LstmClassifier model(cfg, 1);
  Rng rng(5);
  FeatureSequence x;
  x.steps = 100;
  x.dim = 2;
  x.values.resize(200);
  for (auto& v : x.values) v = rng.uniform(-1, 1);
  FeatureSequence dx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.loss_and_input_gradient(x, 1, &dx));
  }
}
BENCHMARK(BM_LstmForwardBackward)->Arg(32)->Arg(64);

class WifiFixtureData {
 public:
  static const WifiFixtureData& get() {
    static WifiFixtureData data;
    return data;
  }
  std::unique_ptr<wifi::ReferenceIndex> index;
  std::unique_ptr<wifi::ConfidenceEstimator> estimator;
  wifi::WifiScan scan;

 private:
  WifiFixtureData() {
    Rng rng(6);
    std::vector<wifi::ReferencePoint> pts;
    for (int i = 0; i < 30000; ++i) {
      wifi::WifiScan s;
      for (int a = 0; a < 15; ++a) {
        s.push_back({static_cast<std::uint64_t>(rng.uniform_int(0, 400)),
                     static_cast<int>(rng.uniform_int(-80, -40))});
      }
      pts.push_back({{rng.uniform(0, 250), rng.uniform(0, 250)}, std::move(s)});
    }
    index = std::make_unique<wifi::ReferenceIndex>(std::move(pts));
    estimator = std::make_unique<wifi::ConfidenceEstimator>(*index);
    for (int a = 0; a < 10; ++a) {
      scan.push_back({static_cast<std::uint64_t>(a), -50 - a});
    }
  }
};

void BM_GridRadiusQuery(benchmark::State& state) {
  const auto& data = WifiFixtureData::get();
  Rng rng(7);
  const double radius = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const Enu p{rng.uniform(0, 250), rng.uniform(0, 250)};
    benchmark::DoNotOptimize(data.index->within(p, radius));
  }
}
BENCHMARK(BM_GridRadiusQuery)->Arg(1)->Arg(3)->Arg(10);

/// Walking-scenario density: `history` simulated trajectories of 30 points
/// as the reference set (300 is servebench metro-miss's history, 9k points
/// clustered along the city's roads), probed at the points and scans of 25
/// fresh trajectories.
class TrajectoryFixtureData {
 public:
  static const TrajectoryFixtureData& get(std::size_t history) {
    static std::map<std::size_t, std::unique_ptr<TrajectoryFixtureData>> by_history;
    auto& data = by_history[history];
    if (!data) data.reset(new TrajectoryFixtureData(history));
    return *data;
  }
  std::unique_ptr<wifi::ReferenceIndex> index;
  std::unique_ptr<wifi::ConfidenceEstimator> estimator;
  std::vector<Enu> probes;
  std::vector<wifi::WifiScan> scans;

 private:
  explicit TrajectoryFixtureData(std::size_t history_size) {
    core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
    std::vector<wifi::ScannedUpload> history;
    for (const auto& t : scenario.scanned_real(history_size, 30, 2.0)) {
      history.push_back(core::to_upload(t));
    }
    index = std::make_unique<wifi::ReferenceIndex>(wifi::flatten_history(history));
    estimator = std::make_unique<wifi::ConfidenceEstimator>(*index);
    for (const auto& t : scenario.scanned_real(25, 30, 2.0)) {
      const auto upload = core::to_upload(t);
      probes.insert(probes.end(), upload.positions.begin(), upload.positions.end());
      scans.insert(scans.end(), upload.scans.begin(), upload.scans.end());
    }
  }
};

/// Per-point means over `probes`: references in C_O(r), neighbours per
/// C_H(R), and distinct points across a point's C_H(R)s.
void set_density_counters(benchmark::State& state, const wifi::ConfidenceEstimator& est,
                          const wifi::ReferenceIndex& index, const std::vector<Enu>& probes) {
  const auto& params = est.params();
  double refs = 0.0;
  double neighbours = 0.0;
  double distinct = 0.0;
  for (const Enu& p : probes) {
    const auto found = index.within(p, params.reference_radius_m);
    std::vector<std::size_t> all;
    for (const std::size_t h : found) {
      const auto circle = index.within(index.pos(h), params.rpd.counting_radius_m);
      neighbours += static_cast<double>(circle.size());
      all.insert(all.end(), circle.begin(), circle.end());
    }
    std::sort(all.begin(), all.end());
    refs += static_cast<double>(found.size());
    distinct += static_cast<double>(std::unique(all.begin(), all.end()) - all.begin());
  }
  const auto n = static_cast<double>(probes.size());
  state.counters["refs"] = refs / n;
  state.counters["neighbours"] = refs > 0.0 ? neighbours / refs : 0.0;
  state.counters["distinct"] = distinct / n;
}

/// Arg 0: 30k points scattered uniformly (~9 references per point).
/// Arg N > 0: the trajectory fixture over a history of N trajectories.
void BM_PointConfidence(benchmark::State& state) {
  if (state.range(0) == 0) {
    const auto& data = WifiFixtureData::get();
    Rng rng(8);
    for (auto _ : state) {
      const Enu p{rng.uniform(0, 250), rng.uniform(0, 250)};
      benchmark::DoNotOptimize(data.estimator->point_confidence(p, data.scan));
    }
    std::vector<Enu> probes;
    Rng again(8);  // the loop's first 1,000 probes
    for (int i = 0; i < 1000; ++i) probes.push_back({again.uniform(0, 250), again.uniform(0, 250)});
    set_density_counters(state, *data.estimator, *data.index, probes);
  } else {
    const auto& data = TrajectoryFixtureData::get(static_cast<std::size_t>(state.range(0)));
    std::size_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(data.estimator->point_confidence(data.probes[i], data.scans[i]));
      i = (i + 1) % data.probes.size();
    }
    set_density_counters(state, *data.estimator, *data.index, data.probes);
  }
}
BENCHMARK(BM_PointConfidence)->Arg(0)->Arg(300)->Arg(1000)->Arg(3000);

/// count_circles() alone over the trajectory fixture of Arg trajectories:
/// C_O(r) and the top-k lane windows are found before the timed loop, so
/// this times the Eq. 4 stages of BM_PointConfidence (gather, match counts,
/// presence, masks and sums) without the C_O(r) query and Eq. 7.
void BM_CountCircles(benchmark::State& state) {
  const auto& data = TrajectoryFixtureData::get(static_cast<std::size_t>(state.range(0)));
  const auto& params = data.estimator->params();
  const std::int64_t tol = params.rpd.rssi_tolerance_db;
  std::vector<std::vector<std::size_t>> refs;
  std::vector<std::vector<wifi::ReferenceIndex::MatchLane>> lanes(data.probes.size());
  for (std::size_t p = 0; p < data.probes.size(); ++p) {
    refs.push_back(data.index->within(data.probes[p], params.reference_radius_m));
    const auto& scan = data.scans[p];
    for (std::size_t a = 0; a < std::min(params.top_k, scan.size()); ++a) {
      lanes[p].push_back({scan[a].mac, scan[a].rssi_dbm - tol, scan[a].rssi_dbm + tol});
    }
  }
  wifi::ReferenceIndex::CircleCounts counts;
  std::size_t i = 0;
  for (auto _ : state) {
    data.index->count_circles(data.probes[i], refs[i], params.rpd.counting_radius_m, lanes[i],
                              counts);
    benchmark::ClobberMemory();
    i = (i + 1) % data.probes.size();
  }
}
BENCHMARK(BM_CountCircles)->Arg(300)->Arg(1000)->Arg(3000);

void BM_BoosterTrain(benchmark::State& state) {
  Rng rng(9);
  const auto rows = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> x(rows, std::vector<double>(480));
  std::vector<int> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& v : x[r]) v = rng.uniform(0, 1);
    y[r] = x[r][3] > 0.5 ? 1 : 0;
  }
  gbt::GbtConfig cfg;
  cfg.num_trees = 20;
  for (auto _ : state) {
    gbt::GbtClassifier model(cfg);
    model.train(x, y);
    benchmark::DoNotOptimize(model.tree_count());
  }
}
BENCHMARK(BM_BoosterTrain)->Arg(500)->Unit(benchmark::kMillisecond);

/// A trained detector over Arg uniformly scattered reference points of 30
/// observations each, drawn from 2,000 MACs, at ~10 m^2 per point: the store
/// the model file's cold start reads.  The classifier is a 20-tree GBT on
/// two features.
class DetectorFixture {
 public:
  static const wifi::RssiDetector& get(std::size_t points) {
    static std::map<std::size_t, std::unique_ptr<wifi::RssiDetector>> by_points;
    auto& detector = by_points[points];
    if (!detector) detector = build(points);
    return *detector;
  }

 private:
  static std::unique_ptr<wifi::RssiDetector> build(std::size_t points) {
    Rng rng(13);
    const double side = std::sqrt(10.0 * static_cast<double>(points));
    std::vector<wifi::ReferencePoint> refs(points);
    for (std::size_t i = 0; i < points; ++i) {
      refs[i].pos = {rng.uniform(0, side), rng.uniform(0, side)};
      refs[i].traj_id = static_cast<std::uint32_t>(i / 30);
      for (int a = 0; a < 30; ++a) {
        refs[i].scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(0, 1999)),
                                static_cast<int>(rng.uniform_int(-95, -30))});
      }
    }
    std::vector<std::vector<double>> x;
    std::vector<int> y;
    for (int r = 0; r < 200; ++r) {
      x.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
      y.push_back(x.back()[0] > 0.5 ? 1 : 0);
    }
    gbt::GbtConfig cfg;
    cfg.num_trees = 20;
    gbt::GbtClassifier classifier(cfg);
    classifier.train(x, y);
    return wifi::RssiDetector::assemble(std::move(refs), {}, std::move(classifier), 1);
  }
};

constexpr const char* kDetectorBenchPath = "bench_micro_detector.model";

/// save_file (durable container, fsync and rename included) of the fixture.
void BM_DetectorSave(benchmark::State& state) {
  const auto& detector = DetectorFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) detector.save_file(kDetectorBenchPath);
  state.counters["file_MB"] =
      static_cast<double>(durable::read_file(kDetectorBenchPath).value().size()) / 1e6;
  std::remove(kDetectorBenchPath);
}
BENCHMARK(BM_DetectorSave)->Arg(9000)->Arg(135000)->Unit(benchmark::kMillisecond);

/// try_load_file of the fixture's saved model: the serving cold start's
/// model read.
void BM_DetectorLoad(benchmark::State& state) {
  DetectorFixture::get(static_cast<std::size_t>(state.range(0))).save_file(kDetectorBenchPath);
  for (auto _ : state) {
    auto loaded = wifi::RssiDetector::try_load_file(kDetectorBenchPath);
    if (!loaded) {
      state.SkipWithError(loaded.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded.value()->index().size());
  }
  std::remove(kDetectorBenchPath);
}
BENCHMARK(BM_DetectorLoad)->Arg(9000)->Arg(135000)->Unit(benchmark::kMillisecond);

constexpr const char* kCrowdBenchDir = "bench_micro_crowd_store";

/// A walking-scenario history of `points` reference points (points / 30
/// trajectories of 30 points), built once per size.
const std::vector<wifi::ReferencePoint>& walking_history(std::size_t points) {
  static std::map<std::size_t, std::vector<wifi::ReferencePoint>> by_points;
  auto& history = by_points[points];
  if (history.empty()) {
    core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
    std::vector<wifi::ScannedUpload> uploads;
    for (const auto& t : scenario.scanned_real(points / 30, 30, 2.0)) {
      uploads.push_back(core::to_upload(t));
    }
    history = wifi::flatten_history(uploads);
  }
  return history;
}

/// A fresh store at kCrowdBenchDir (sync off) holding walking_history(points)
/// appended anonymously, as servebench's ingest-publish world is, and
/// compacted once.  Null after SkipWithError.
std::unique_ptr<wifi::CrowdStore> compacted_store(benchmark::State& state,
                                                  std::size_t points) {
  std::filesystem::remove_all(kCrowdBenchDir);
  auto store = wifi::CrowdStore::open(kCrowdBenchDir, /*sync_each_append=*/false);
  if (!store) {
    state.SkipWithError(store.error().c_str());
    return nullptr;
  }
  for (const auto& p : walking_history(points)) {
    auto seq = store.value()->append(p);
    if (!seq) {
      state.SkipWithError(seq.error().c_str());
      return nullptr;
    }
  }
  auto compacted = store.value()->compact();
  if (!compacted) {
    state.SkipWithError(compacted.error().c_str());
    return nullptr;
  }
  return std::move(store).value();
}

/// CrowdStore::open of a store compacted once over walking_history(Arg)
/// (4,500 points in servebench's ingest-publish world): the snapshot read,
/// its decode and the provenance refold that a serving process's cold start
/// pays per open.
void BM_CrowdStoreOpen(benchmark::State& state) {
  if (!compacted_store(state, static_cast<std::size_t>(state.range(0)))) return;
  for (auto _ : state) {
    auto store = wifi::CrowdStore::open(kCrowdBenchDir, /*sync_each_append=*/false);
    if (!store) {
      state.SkipWithError(store.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(store.value()->arrays().size());
  }
  state.counters["file_MB"] =
      static_cast<double>(std::filesystem::file_size(
          wifi::CrowdStore::snapshot_path(kCrowdBenchDir))) / 1e6;
  std::filesystem::remove_all(kCrowdBenchDir);
}
BENCHMARK(BM_CrowdStoreOpen)->Arg(4500)->Arg(45000)->Unit(benchmark::kMillisecond);

/// VerifierService::publish_epoch of the store compacted once over
/// walking_history(Arg), with no artifact store and sync off: the epoch build
/// over the whole store (its points, keyed, plus the grid under the serving
/// bounds), the "#epoch N" marker and the flip.  The service starts from a
/// detector over the same points with a stub classifier.
void BM_EpochPublish(benchmark::State& state) {
  auto store = compacted_store(state, static_cast<std::size_t>(state.range(0)));
  if (!store) return;
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int r = 0; r < 40; ++r) {
    x.push_back({r % 2 ? 1.0 : 0.0, 0.5});
    y.push_back(r % 2);
  }
  gbt::GbtConfig cfg;
  cfg.num_trees = 2;
  gbt::GbtClassifier classifier(cfg);
  classifier.train(x, y);
  serve::VerifierServiceConfig config;
  config.auto_start = false;
  serve::VerifierService service(
      wifi::RssiDetector::assemble(store->points(), {}, std::move(classifier), 1), config);
  for (auto _ : state) {
    auto epoch = service.publish_epoch(*store);
    if (!epoch) {
      state.SkipWithError(epoch.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(epoch.value());
  }
  state.counters["points"] = static_cast<double>(service.published_points());
  store.reset();
  std::filesystem::remove_all(kCrowdBenchDir);
}
BENCHMARK(BM_EpochPublish)->Arg(4500)->Arg(45000)->Unit(benchmark::kMillisecond);

/// The provenance fold alone over walking_history(Arg), anonymously: the
/// refold stage of BM_CrowdStoreOpen.
void BM_ProvenanceFold(benchmark::State& state) {
  const auto& history = walking_history(static_cast<std::size_t>(state.range(0)));
  auto fold = [&] {
    wifi::ProvenanceGrid grid;
    for (const auto& p : history) grid.add(p, wifi::kAnonymousUploader);
    return grid;
  };
  for (auto _ : state) benchmark::DoNotOptimize(fold().point_count());
  state.counters["keys"] = static_cast<double>(fold().keys().size());
}
BENCHMARK(BM_ProvenanceFold)->Arg(4500)->Arg(45000)->Unit(benchmark::kMillisecond);

/// CrowdStore::append with sync off onto the 4,500-point store of
/// BM_CrowdStoreOpen: 64 fresh walks (1,920 points, one iteration each),
/// walk t stamped by uploader 1000 + t % 8, so every append is journaled,
/// scored against the other witnesses' consensus and folded.  `scored`
/// counts the appends that found a consensus to score against.
void BM_CrowdStoreAppend(benchmark::State& state) {
  static const std::vector<wifi::ReferencePoint> fresh = [] {
    core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
    scenario.rng() = Rng(77);
    std::vector<wifi::ScannedUpload> uploads;
    for (const auto& t : scenario.scanned_real(64, 30, 2.0)) {
      uploads.push_back(core::to_upload(t));
    }
    return wifi::flatten_history(uploads);
  }();
  auto store = compacted_store(state, 4500);
  if (!store) return;
  std::size_t i = 0;
  for (auto _ : state) {
    auto seq = store->append(fresh[i], 1000 + (i / 30) % 8);
    if (!seq) {
      state.SkipWithError(seq.error().c_str());
      break;
    }
    ++i;
  }
  std::uint64_t scored = 0;
  for (wifi::UploaderId u = 1000; u < 1008; ++u) {
    scored += store->reputation().record(u).observations;
  }
  state.counters["scored"] = static_cast<double>(scored);
  store.reset();
  std::filesystem::remove_all(kCrowdBenchDir);
}
BENCHMARK(BM_CrowdStoreAppend)->Iterations(1920)->Unit(benchmark::kMicrosecond);

/// servebench's motion-lane shape: an input-2, hidden-384 classifier and 48
/// calibration sequences of 30 steps.
class MotionFixture {
 public:
  static const MotionFixture& get() {
    static MotionFixture f;
    return f;
  }
  std::shared_ptr<const nn::LstmClassifier> model;
  std::vector<FeatureSequence> calibration;

 private:
  MotionFixture() {
    nn::LstmClassifierConfig cfg;
    cfg.input_dim = 2;
    cfg.hidden_dim = 384;
    model = std::make_shared<nn::LstmClassifier>(cfg, 5);
    Rng rng(12);
    for (int i = 0; i < 48; ++i) {
      FeatureSequence x;
      x.dim = 2;
      x.steps = 30;
      x.values.resize(x.steps * x.dim);
      for (auto& v : x.values) v = rng.uniform(-1, 1);
      calibration.push_back(std::move(x));
    }
  }
};

constexpr const char* kLstmBenchPath = "bench_micro_lstm.model";

/// try_load_file of the motion model: the motion lane's cold-start read.
void BM_LstmLoad(benchmark::State& state) {
  MotionFixture::get().model->save_file(kLstmBenchPath);
  for (auto _ : state) {
    auto loaded = nn::LstmClassifier::try_load_file(kLstmBenchPath);
    if (!loaded) {
      state.SkipWithError(loaded.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded.value().layer_count());
  }
  std::remove(kLstmBenchPath);
}
BENCHMARK(BM_LstmLoad)->Unit(benchmark::kMillisecond);

/// MotionPolicy::arm_quantized on the calibration set: the fp64 calibration
/// pass, the int8 image and the gate, as a cold start arms the lane.
void BM_ArmQuantized(benchmark::State& state) {
  const auto& fixture = MotionFixture::get();
  for (auto _ : state) {
    serve::MotionPolicy policy;
    policy.model = fixture.model;
    benchmark::DoNotOptimize(
        policy.arm_quantized(fixture.calibration, nn::QuantMode::kInt8, 0.1).checked);
  }
}
BENCHMARK(BM_ArmQuantized)->Unit(benchmark::kMillisecond);

/// One segment RPC through the codec: encode and decode a 16-point request
/// (20 APs per scan) and its top_k = 8 response (256 features, 16 scores).
void BM_SegmentRpc(benchmark::State& state) {
  constexpr std::size_t kPoints = 16;
  constexpr std::size_t kTopK = 8;
  Rng rng(14);
  net::SegmentRequest request;
  request.top_k = kTopK;
  request.upload.source_traj_id = 77;
  for (std::size_t i = 0; i < kPoints; ++i) {
    request.upload.positions.push_back(
        {rng.uniform(-2000.0, 2000.0), rng.uniform(-2000.0, 2000.0)});
    wifi::WifiScan scan;
    for (int a = 0; a < 20; ++a) {
      scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30)),
                      -static_cast<int>(rng.uniform_int(30, 95))});
    }
    request.upload.scans.push_back(std::move(scan));
  }
  net::SegmentResponse response;
  for (std::size_t i = 0; i < 2 * kTopK * kPoints; ++i) {
    response.features.push_back(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < kPoints; ++i) {
    response.scores.push_back(rng.uniform(0.0, 1.0));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string wire_request = net::encode_segment(request);
    auto decoded = net::decode_segment(wire_request);
    const std::string wire_response = net::encode_segment_response(response);
    auto answer = net::decode_segment_response(wire_response);
    if (!decoded || !answer) {
      state.SkipWithError("segment rpc decode failed");
      break;
    }
    benchmark::DoNotOptimize(answer.value().scores.data());
    bytes = wire_request.size() + wire_response.size();
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SegmentRpc)->Unit(benchmark::kMicrosecond);

class CityFixture {
 public:
  static const CityFixture& get() {
    static CityFixture f;
    return f;
  }
  map::RoadNetwork net;

 private:
  CityFixture() {
    Rng rng(10);
    net = map::make_city({.blocks_x = 20, .blocks_y = 20}, rng);
  }
};

void BM_Dijkstra(benchmark::State& state) {
  const auto& net = CityFixture::get().net;
  Rng rng(11);
  for (auto _ : state) {
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.node_count()) - 1));
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.node_count()) - 1));
    benchmark::DoNotOptimize(map::shortest_path(net, a, b, Mode::kDriving));
  }
}
BENCHMARK(BM_Dijkstra);

void BM_AStar(benchmark::State& state) {
  const auto& net = CityFixture::get().net;
  Rng rng(11);  // same seed: identical query sequence as BM_Dijkstra
  for (auto _ : state) {
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.node_count()) - 1));
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.node_count()) - 1));
    benchmark::DoNotOptimize(map::astar_path(net, a, b, Mode::kDriving));
  }
}
BENCHMARK(BM_AStar);

void BM_MobilitySimulation(benchmark::State& state) {
  Rng rng(12);
  std::vector<Enu> route = {{0, 0}};
  for (int i = 1; i < 20; ++i) {
    route.push_back({route.back().east + 40.0, route.back().north + (i % 2) * 30.0});
  }
  const auto params = sim::MobilityParams::for_mode(Mode::kWalking);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_motion(route, params, 1.0, 100, rng));
  }
}
BENCHMARK(BM_MobilitySimulation);

}  // namespace

BENCHMARK_MAIN();

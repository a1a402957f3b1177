// trajkit command-line tool.
//
// A thin operational wrapper over the library for users who want to play
// with the attack/defense pipeline without writing C++:
//
//   trajkit_cli simulate     --mode=walking --count=50 --out=real.csv
//   trajkit_cli simulate     --kind=navigation --count=50 --out=nav.csv
//   trajkit_cli train-motion --real=real.csv --fake=nav.csv --model=c.model
//   trajkit_cli classify     --model=c.model --in=some.csv
//   trajkit_cli forge        --model=c.model --in=real.csv --out=forged.csv
//   trajkit_cli mind         --mode=cycling
//   trajkit_cli match        --mode=walking --in=forged.csv
//
// Trajectory CSVs use the library interchange format
// (traj_id,mode,lat,lon,time_s) in the simulated world's frame; worlds are
// reproducible from --mode and --seed.
#include <cstdio>
#include <string>

#include "core/trajkit.hpp"

using namespace trajkit;

namespace {

Mode parse_mode(const std::string& name) {
  if (name == "walking") return Mode::kWalking;
  if (name == "cycling") return Mode::kCycling;
  if (name == "driving") return Mode::kDriving;
  throw std::invalid_argument("unknown mode: " + name);
}

core::Scenario make_scenario(const CliFlags& flags) {
  auto cfg = core::ScenarioConfig::for_mode(parse_mode(flags.get("mode", "walking")));
  if (flags.has("seed")) cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  return core::Scenario(cfg);
}

nn::LstmClassifier load_model(const CliFlags& flags) {
  auto model = nn::LstmClassifier::try_load_file(flags.get("model", "motion.model"));
  if (!model) throw std::runtime_error(model.error());
  return std::move(model).value();
}

int cmd_simulate(const CliFlags& flags) {
  core::Scenario scenario = make_scenario(flags);
  const auto count = static_cast<std::size_t>(flags.get_int("count", 50));
  const auto points = static_cast<std::size_t>(flags.get_int("points", 48));
  const double interval = flags.get_double("interval", 1.0);
  const std::string kind = flags.get("kind", "real");
  const std::string out = flags.get("out", "trajectories.csv");

  TrajectoryList list;
  if (kind == "real") {
    for (auto& t : scenario.real_trajectories(count, points, interval)) {
      list.push_back(std::move(t.reported));
    }
  } else if (kind == "navigation") {
    for (auto& t : scenario.navigation_trajectories(count, points, interval)) {
      list.push_back(std::move(t.reported));
    }
  } else {
    throw std::invalid_argument("simulate: --kind must be real or navigation");
  }
  write_csv_file(out, list);
  std::printf("wrote %zu %s trajectories (%zu points each) to %s\n", list.size(),
              kind.c_str(), points, out.c_str());
  return 0;
}

int cmd_train_motion(const CliFlags& flags) {
  const auto real = read_csv_file(flags.get("real", "real.csv"));
  const auto fake = read_csv_file(flags.get("fake", "fake.csv"));
  if (real.empty() || fake.empty()) {
    throw std::runtime_error("train-motion: empty input dataset");
  }
  const DistAngleEncoder encoder;
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  for (const auto& t : real) {
    xs.push_back(encoder.encode(t.to_enu(sim::sim_projection())));
    ys.push_back(1);
  }
  for (const auto& t : fake) {
    xs.push_back(encoder.encode(t.to_enu(sim::sim_projection())));
    ys.push_back(0);
  }
  nn::LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = static_cast<std::size_t>(flags.get_int("hidden", 32));
  cfg.learning_rate = flags.get_double("lr", 3e-3);
  nn::LstmClassifier model(cfg, static_cast<std::uint64_t>(flags.get_int("seed", 17)));
  const auto epochs = static_cast<std::size_t>(flags.get_int("epochs", 30));
  std::printf("training on %zu real + %zu fake trajectories, %zu epochs...\n",
              real.size(), fake.size(), epochs);
  const auto report = model.train(xs, ys, epochs, [](std::size_t e, double l, double a) {
    if (e % 5 == 0) std::printf("  epoch %zu loss=%.4f acc=%.4f\n", e, l, a);
  });
  const std::string path = flags.get("model", "motion.model");
  model.save_file(path);
  std::printf("final train accuracy %.4f; model saved to %s\n",
              report.epoch_accuracy.back(), path.c_str());
  return 0;
}

int cmd_classify(const CliFlags& flags) {
  const auto model = load_model(flags);
  const auto trajs = read_csv_file(flags.get("in", "trajectories.csv"));
  const DistAngleEncoder encoder;
  std::size_t real_count = 0;
  for (std::size_t i = 0; i < trajs.size(); ++i) {
    const double p =
        model.predict_proba(encoder.encode(trajs[i].to_enu(sim::sim_projection())));
    real_count += p >= 0.5;
    std::printf("traj %zu: p(real)=%.4f -> %s\n", i, p, p >= 0.5 ? "REAL" : "FORGED");
  }
  std::printf("%zu/%zu judged real\n", real_count, trajs.size());
  return 0;
}

int cmd_forge(const CliFlags& flags) {
  const auto model = load_model(flags);
  const auto trajs = read_csv_file(flags.get("in", "real.csv"));
  if (trajs.empty()) throw std::runtime_error("forge: empty input");
  const DistAngleEncoder encoder;

  attack::CwConfig cfg;
  cfg.iterations = static_cast<std::size_t>(flags.get_int("iterations", 400));
  const attack::CwAttacker attacker(model, encoder, cfg);

  TrajectoryList forged_list;
  std::size_t adversarial = 0;
  for (const auto& t : trajs) {
    const double min_d = flags.get_double("mind", attack::paper_mind(t.mode()));
    const auto result =
        attacker.forge_replay(t.to_enu(sim::sim_projection()), min_d);
    adversarial += result.adversarial;
    auto forged = Trajectory::from_enu(result.points, sim::sim_projection(), t.mode(),
                                       t.interval_s(), t.front().time_s);
    forged_list.push_back(std::move(forged));
    std::printf("forged traj %zu: adversarial=%s p(real)=%.3f DTW=%.2f m/step\n",
                forged_list.size() - 1, result.adversarial ? "yes" : "no",
                result.p_real, result.dtw_norm);
  }
  const std::string out = flags.get("out", "forged.csv");
  write_csv_file(out, forged_list);
  std::printf("%zu/%zu adversarial; wrote %s\n", adversarial, trajs.size(),
              out.c_str());
  return 0;
}

int cmd_mind(const CliFlags& flags) {
  core::Scenario scenario = make_scenario(flags);
  const Mode mode = scenario.mode();
  const auto repetitions = static_cast<std::size_t>(flags.get_int("repetitions", 50));
  const double route_m = flags.get_double("route_m", 200.0);
  const double speed = sim::MobilityParams::for_mode(mode).mean_speed_mps;
  const auto points = static_cast<std::size_t>(route_m / speed) + 10;
  const auto est = attack::estimate_mind(scenario.simulator(), mode, route_m,
                                         repetitions, points, 1.0, scenario.rng());
  std::printf("%s: MinD=%.2f m/step (mean %.2f, max %.2f over %zu repetitions; "
              "paper %.1f)\n",
              mode_name(mode), est.min_d, est.mean_d, est.max_d, est.repetitions,
              attack::paper_mind(mode));
  return 0;
}

int cmd_match(const CliFlags& flags) {
  core::Scenario scenario = make_scenario(flags);
  const auto trajs = read_csv_file(flags.get("in", "trajectories.csv"));
  const map::MapMatcher matcher(scenario.network());
  for (std::size_t i = 0; i < trajs.size(); ++i) {
    const auto result = matcher.match(trajs[i].to_enu(sim::sim_projection()));
    if (!result) {
      std::printf("traj %zu: OFF-MAP (no candidate roads)\n", i);
    } else {
      std::printf("traj %zu: mean offset %.2f m, max %.2f m -> %s\n", i,
                  result->mean_offset_m, result->max_offset_m,
                  result->mean_offset_m < 5.0 ? "route-rational" : "suspicious");
    }
  }
  return 0;
}

int cmd_stats(const CliFlags& flags) {
  const auto trajs = read_csv_file(flags.get("in", "trajectories.csv"));
  if (trajs.empty()) {
    std::printf("no trajectories\n");
    return 0;
  }
  std::vector<double> lengths;
  std::vector<double> durations;
  std::vector<double> speeds;
  for (const auto& t : trajs) {
    lengths.push_back(t.length_m());
    durations.push_back(t.duration_s());
    for (double v : t.speeds_mps()) speeds.push_back(v);
  }
  std::printf("trajectories: %zu (%s, %zu points each)\n", trajs.size(),
              mode_name(trajs.front().mode()), trajs.front().size());
  std::printf("length  (m): mean %.1f  min %.1f  max %.1f\n", mean(lengths),
              min_of(lengths), max_of(lengths));
  std::printf("duration(s): mean %.1f  min %.1f  max %.1f\n", mean(durations),
              min_of(durations), max_of(durations));
  std::printf("speed (m/s): mean %.2f  std %.2f  p95 %.2f\n", mean(speeds),
              stddev(speeds), percentile(speeds, 95.0));
  return 0;
}

int cmd_help() {
  std::printf(
      "trajkit_cli <command> [--key=value ...]\n\n"
      "commands:\n"
      "  simulate      generate real/navigation trajectories to CSV\n"
      "                  --mode --seed --count --points --interval --kind --out\n"
      "  train-motion  train the LSTM motion classifier from CSVs\n"
      "                  --real --fake --model --hidden --epochs --lr --seed\n"
      "  classify      score trajectories with a saved model\n"
      "                  --model --in\n"
      "  forge         C&W replay attack on each trajectory of a CSV\n"
      "                  --model --in --out --iterations --mind\n"
      "  mind          measure the same-route MinD bound of a world\n"
      "                  --mode --seed --repetitions --route_m\n"
      "  match         map-match trajectories against the world's roads\n"
      "                  --mode --seed --in\n"
      "  stats         summary statistics of a trajectory CSV\n"
      "                  --in\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return cmd_help();
  const std::string command = argv[1];
  try {
    const CliFlags flags(argc - 1, argv + 1);
    if (command == "simulate") return cmd_simulate(flags);
    if (command == "train-motion") return cmd_train_motion(flags);
    if (command == "classify") return cmd_classify(flags);
    if (command == "forge") return cmd_forge(flags);
    if (command == "mind") return cmd_mind(flags);
    if (command == "match") return cmd_match(flags);
    if (command == "stats") return cmd_stats(flags);
    if (command == "help" || command == "--help") return cmd_help();
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    cmd_help();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

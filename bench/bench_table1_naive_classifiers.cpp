// Table I — Classification performance against naive attacks.
//
// Paper protocol (Sec. IV-A2): train the four detection models on real
// trajectories vs naive replay/navigation fakes, report accuracy, precision,
// recall and F1 on a held-out test set.  Paper numbers (at 20k/10k train,
// 400-point trajectories): all four models ~0.95-0.99 on every metric.
//
// Scaled-down defaults keep one run short on a 4-core box; rescale with
//   --train_real=20000 --train_fake=10000 --points=400 --epochs=100 --hidden=256
#include <cstdio>
#include <iostream>

#include "core/trajkit.hpp"

using namespace trajkit;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const std::string mode_name_arg = flags.get("mode", "walking");
  Mode mode = Mode::kWalking;
  if (mode_name_arg == "cycling") mode = Mode::kCycling;
  if (mode_name_arg == "driving") mode = Mode::kDriving;

  core::Scenario scenario(core::ScenarioConfig::for_mode(mode));

  core::MotionDatasetConfig dcfg;
  dcfg.train_real = flags.get_int("train_real", 500);
  dcfg.train_fake = flags.get_int("train_fake", 300);
  dcfg.test_real = flags.get_int("test_real", 150);
  dcfg.test_fake = flags.get_int("test_fake", 150);
  dcfg.points = flags.get_int("points", 64);

  core::MotionModelConfig mcfg;
  mcfg.hidden = flags.get_int("hidden", 32);
  mcfg.epochs = flags.get_int("epochs", 45);
  mcfg.verbose = flags.get_bool("verbose", false);

  std::printf("== Table I: classification performance against naive attacks ==\n");
  std::printf("mode=%s train=%zu+%zu test=%zu+%zu points=%zu hidden=%zu epochs=%zu\n\n",
              mode_name(mode), dcfg.train_real, dcfg.train_fake, dcfg.test_real,
              dcfg.test_fake, dcfg.points, mcfg.hidden, mcfg.epochs);

  std::printf("building dataset...\n");
  const auto dataset = core::build_motion_dataset(scenario, dcfg);
  std::printf("training C, LSTM-1, LSTM-2, XGBoost...\n");
  const core::MotionModels models(dataset, mcfg);
  const auto evals = core::evaluate_models(models, dataset.test);

  TextTable table({"Classifiers", "Accuracy", "Precision", "Recall", "F1-score"});
  for (const auto& e : evals) {
    table.add_row({e.name, TextTable::num(e.confusion.accuracy()),
                   TextTable::num(e.confusion.precision()),
                   TextTable::num(e.confusion.recall()),
                   TextTable::num(e.confusion.f1())});
  }
  table.print(std::cout);
  std::printf("\npaper (Table I): C 0.9886 / XGBoost 0.9542 / LSTM-1 0.9874 / "
              "LSTM-2 0.9909 accuracy\n");
  return 0;
}

// Kernel-layer benchmark: the batched GEMM nn stack, the pruned-exact DTW,
// the int8 quant lane and the fused GBT scorer, each against the oracle it
// replaced.
//
// Five legs, each guarded by a checksum or a gate:
//
//   * LSTM training — the per-sample oracle (tests/reference, reference::train)
//     vs the batched kernels (seconds per epoch); predictions after training
//     must match bitwise, and the batched leg must digest identically at
//     --threads 1 and --threads N;
//   * C&W attack inner loop — batched kernels + pruned DTW (iterations/sec),
//     digested into attack_checksum.  Its bit-identity to the full-DP attack
//     is pinned by Golden.CwAttackOutputIsPinned, not re-run here;
//   * DTW — the unpruned DP (tests/reference, reference::dtw) vs the
//     banded-bound pruned DP on attack-shaped pairs (calls/sec; distance and
//     path must match bitwise);
//   * LSTM inference — fp64 batched vs the int8 quant lane (sequences/sec),
//     held to the QuantGate decision contract instead of bit-identity; plus
//     the int8 lane alone at the served shape (hidden 384, 29 steps), in µs
//     per sequence for a lone sequence (width 1) and a full group (width 8),
//     whose logits must be bit-identical at both widths;
//   * GBT scoring — pointer-walk oracle (tests/reference,
//     gbt::reference::predict_proba) vs the fused flat scorer (rows/sec,
//     bitwise).
//
// Every timed leg runs --reps times.  The report gives the median and the
// interquartile range over the repetitions beside the best one (minimum time
// / maximum rate): on a shared or virtualised host a single run charges
// steal and OS jitter to whichever leg it lands on, and the spread says how
// far to trust a figure.  Speedups are ratios of medians.  Checksums
// accumulate over all repetitions, so identity covers every run.
//
// Results are printed as a table and written to BENCH_nn.json in the working
// directory, with a host block (online CPUs, AVX-512 flags, build type,
// commit).  The committed root file is regenerated, with the defaults, by
// running from the repository root:
//
//   build/bench/bench_nn
//
// Exit is non-zero if any checksum diverges or the quant gate fails —
// speedups are hardware-dependent and only reported, identity is the
// contract.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "attack/cw.hpp"
#include "common/durable/durable_file.hpp"
#include "common/parallel.hpp"
#include "core/trajkit.hpp"
#include "dtw/dtw.hpp"
#include "gbt/booster.hpp"
#include "nn/quant_classifier.hpp"
#include "reference/dtw_reference.hpp"
#include "reference/gbt_reference.hpp"
#include "reference/nn_reference.hpp"

#ifndef TRAJKIT_BUILD_TYPE
#define TRAJKIT_BUILD_TYPE "unknown"
#endif

using namespace trajkit;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// FNV-1a over raw double bits: any single-ulp difference changes the digest.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Best, median and interquartile range of one leg's repetitions.
struct Spread {
  double best = 0.0;
  double median = 0.0;
  double iqr = 0.0;
};

/// Linear-interpolated quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Run `leg` reps times; `lower_is_better` picks the best run (times) or the
/// highest (rates).
template <typename Leg>
Spread repeat(std::size_t reps, bool lower_is_better, Leg&& leg) {
  std::vector<double> v;
  for (std::size_t r = 0; r < reps; ++r) v.push_back(leg());
  std::sort(v.begin(), v.end());
  return Spread{lower_is_better ? v.front() : v.back(), quantile(v, 0.5),
                quantile(v, 0.75) - quantile(v, 0.25)};
}

std::string spread_json(const Spread& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"best\": %.6g, \"median\": %.6g, \"iqr\": %.6g}",
                s.best, s.median, s.iqr);
  return buf;
}

std::string spread_cell(const Spread& s) {
  return TextTable::num(s.median, 3) + " +-" + TextTable::num(s.iqr, 3);
}

/// True when /proc/cpuinfo lists `flag` for the first CPU.
bool cpu_has_flag(const std::string& flag) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string word;
    while (words >> word) {
      if (word == flag) return true;
    }
    return false;
  }
  return false;
}

/// The checked-out commit (with -dirty for local edits), or "unknown"
/// outside a git checkout.
std::string source_commit() {
  FILE* p = ::popen("git describe --always --dirty --abbrev=12 2>/dev/null", "r");
  if (!p) return "unknown";
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  ::pclose(p);
  std::string id = got ? buf : "";
  while (!id.empty() && (id.back() == '\n' || id.back() == '\r')) id.pop_back();
  return id.empty() ? "unknown" : id;
}

std::vector<Enu> make_walk(Rng& rng, std::size_t n, double step) {
  std::vector<Enu> pts = {{0.0, 0.0}};
  for (std::size_t i = 1; i < n; ++i) {
    pts.push_back({pts.back().east + rng.uniform(0.5, step),
                   pts.back().north + rng.uniform(-step / 2, step / 2)});
  }
  return pts;
}

struct Dataset {
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  std::vector<Enu> attack_route;
};

Dataset make_dataset(const DistAngleEncoder& encoder, std::size_t train,
                     std::size_t points) {
  Rng rng(4242);
  Dataset ds;
  for (std::size_t i = 0; i < train; ++i) {
    const std::size_t n =
        points + static_cast<std::size_t>(rng.uniform_int(0, 8));
    const bool real = i % 2 == 0;
    ds.xs.push_back(encoder.encode(make_walk(rng, n, real ? 4.0 : 1.0)));
    ds.ys.push_back(real ? 1 : 0);
  }
  ds.attack_route = make_walk(rng, points, 4.0);
  return ds;
}

nn::LstmClassifierConfig model_config() {
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 32;
  cfg.batch_size = 16;
  return cfg;
}

/// Train a fresh same-seed model (through the oracle or the batched kernels)
/// and digest its post-training predictions.
double train_leg(bool oracle, const Dataset& ds, std::size_t epochs, Fnv& digest,
                 nn::LstmClassifier* keep = nullptr) {
  nn::LstmClassifier model(model_config(), 5);
  const double t0 = now_s();
  if (oracle) {
    nn::reference::train(model, ds.xs, ds.ys, epochs);
  } else {
    model.train(ds.xs, ds.ys, epochs);
  }
  const double epoch_s = (now_s() - t0) / static_cast<double>(epochs);
  for (const double p : model.predict_proba_batch(ds.xs)) digest.add(p);
  if (keep) *keep = std::move(model);
  return epoch_s;
}

double attack_leg(const nn::LstmClassifier& trained, const DistAngleEncoder& encoder,
                  const Dataset& ds, std::size_t iters, Fnv& digest) {
  attack::CwConfig ac;
  ac.iterations = iters;
  ac.history_stride = iters;
  const attack::CwAttacker attacker(trained, encoder, ac);
  const double t0 = now_s();
  const auto result = attacker.forge_navigation(ds.attack_route);
  const double iters_per_s = static_cast<double>(iters) / (now_s() - t0);
  for (const auto& p : result.points) {
    digest.add(p.east);
    digest.add(p.north);
  }
  digest.add(result.p_real);
  digest.add(result.dtw_norm);
  return iters_per_s;
}

double dtw_leg(const Dataset& ds, std::size_t calls, bool pruned, Fnv& digest) {
  // Attack-shaped pair: the iterate is a perturbation of the reference, so
  // the pruned variant runs with the attack's band (CwConfig::dtw_band).
  const std::size_t band = attack::CwConfig{}.dtw_band;
  Rng rng(99);
  auto other = ds.attack_route;
  for (auto& p : other) {
    p.east += rng.uniform(-2.0, 2.0);
    p.north += rng.uniform(-2.0, 2.0);
  }
  const double t0 = now_s();
  for (std::size_t i = 0; i < calls; ++i) {
    const auto r = pruned ? dtw_pruned(ds.attack_route, other, band)
                          : reference::dtw(ds.attack_route, other);
    if (i == 0) {
      digest.add(r.distance);
      digest.add(static_cast<double>(r.path.size()));
      for (const auto& pair : r.path) {
        digest.add(static_cast<double>(pair.i));
        digest.add(static_cast<double>(pair.j));
      }
    }
  }
  return static_cast<double>(calls) / (now_s() - t0);
}

/// Sequences/sec of one inference path over the dataset (several passes per
/// timing so the clock resolution never dominates at smoke sizes).
template <typename Predict>
double infer_rate(const Dataset& ds, const Predict& predict) {
  constexpr std::size_t kPasses = 8;
  const double t0 = now_s();
  double sink = 0.0;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (const double v : predict(ds.xs)) sink += v;
  }
  const double rate =
      static_cast<double>(kPasses * ds.xs.size()) / (now_s() - t0);
  // Keep the optimizer honest without polluting the table.
  if (sink == std::numeric_limits<double>::infinity()) std::printf(" ");
  return rate;
}

/// The served motion model's shape: hidden 384 over 30-point uploads.
constexpr std::size_t kServedHidden = 384;
constexpr std::size_t kServedPoints = 30;

/// µs per sequence of the int8 lane on one group of sequences (one
/// predict_proba_batch call per group, several calls per timing).
double quant_us_per_seq(const nn::QuantizedLstm& quant,
                        const std::vector<FeatureSequence>& group) {
  constexpr std::size_t kCalls = 16;
  const double t0 = now_s();
  double sink = 0.0;
  for (std::size_t c = 0; c < kCalls; ++c) sink += quant.predict_proba_batch(group)[0];
  const double us = (now_s() - t0) * 1e6 / static_cast<double>(kCalls * group.size());
  if (sink == std::numeric_limits<double>::infinity()) std::printf(" ");
  return us;
}

/// Rows/sec of one GBT scoring path; first pass digested for the
/// bit-identity check.
template <typename Score>
double gbt_rate(const std::vector<std::vector<double>>& rows,
                const Score& score, Fnv& digest) {
  constexpr std::size_t kPasses = 20;
  const double t0 = now_s();
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (const auto& row : rows) {
      const double v = score(row);
      if (p == 0) digest.add(v);
    }
  }
  return static_cast<double>(kPasses * rows.size()) / (now_s() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);  // wires --threads into set_global_threads
  const auto train = static_cast<std::size_t>(flags.get_int("train", 64));
  const auto points = static_cast<std::size_t>(flags.get_int("points", 64));
  const auto epochs = static_cast<std::size_t>(flags.get_int("epochs", 2));
  const auto attack_iters =
      static_cast<std::size_t>(flags.get_int("attack_iters", 60));
  const auto dtw_calls = static_cast<std::size_t>(flags.get_int("dtw_calls", 200));
  const auto reps = std::max<std::size_t>(1, flags.get_int("reps", 5));
  const std::size_t parallel_threads = global_threads();
  constexpr bool kTime = true;   // lower is better
  constexpr bool kRate = false;  // higher is better

  std::printf("== nn kernel layer: batched GEMM + pruned DTW vs reference ==\n");
  std::printf("%zu train seqs x ~%zu steps, %zu epochs; attack %zu iters; "
              "dtw %zu calls; %zu reps\n\n",
              train, points, epochs, attack_iters, dtw_calls, reps);

  const DistAngleEncoder encoder;
  const Dataset ds = make_dataset(encoder, train, points);

  // -- Training: oracle vs batched (single thread: kernel throughput). --
  set_global_threads(1);
  Fnv train_ref_digest;
  Fnv train_bat_digest;
  const Spread epoch_ref = repeat(reps, kTime, [&] {
    return train_leg(true, ds, epochs, train_ref_digest);
  });
  nn::LstmClassifier trained(model_config(), 5);
  const Spread epoch_bat = repeat(reps, kTime, [&] {
    return train_leg(false, ds, epochs, train_bat_digest, &trained);
  });

  // -- Thread invariance of the batched path. --
  set_global_threads(parallel_threads);
  Fnv train_mt_digest;
  for (std::size_t r = 0; r < reps; ++r) {
    train_leg(false, ds, epochs, train_mt_digest);
  }
  set_global_threads(1);

  // -- Attack inner loop: batched kernels + pruned DTW. --
  Fnv attack_digest;
  const Spread attack_ips = repeat(reps, kRate, [&] {
    return attack_leg(trained, encoder, ds, attack_iters, attack_digest);
  });

  // -- DTW in isolation. --
  Fnv dtw_full_digest;
  Fnv dtw_pruned_digest;
  const Spread dtw_full_cps =
      repeat(reps, kRate, [&] { return dtw_leg(ds, dtw_calls, false, dtw_full_digest); });
  const Spread dtw_pruned_cps =
      repeat(reps, kRate, [&] { return dtw_leg(ds, dtw_calls, true, dtw_pruned_digest); });

  // -- Quantized LSTM inference: fp64 batched vs the int8 serving lane. --
  // The quant lane is NOT bit-identical (int rounding + polynomial
  // activations); the QuantGate is the contract: zero thresholded-verdict
  // disagreements and a bounded logit delta against the fp64 oracle, digested
  // into one verdict checksum.
  const auto quant8 = nn::QuantizedLstm::quantize(trained, ds.xs);
  const auto gate8 = nn::quant_gate_check(trained, quant8, ds.xs, 0.1);
  const Spread infer_fp64_sps = repeat(reps, kRate, [&] {
    return infer_rate(ds, [&](const std::vector<FeatureSequence>& xs) {
      return trained.predict_proba_batch(xs);
    });
  });
  const Spread infer_q8_sps = repeat(reps, kRate, [&] {
    return infer_rate(ds, [&](const std::vector<FeatureSequence>& xs) {
      return quant8.predict_proba_batch(xs);
    });
  });

  // -- The int8 lane at the served shape: a lone upload (width 1) against a
  // full group (width 8).  The group's logits must equal each sequence's
  // lone logit bit for bit. --
  nn::LstmClassifierConfig served_cfg;
  served_cfg.hidden_dim = kServedHidden;
  const nn::LstmClassifier served_model(served_cfg, 11);
  std::vector<FeatureSequence> served_xs;
  {
    Rng rng(2024);
    for (std::size_t i = 0; i < nn::kernels::kLanes; ++i) {
      served_xs.push_back(encoder.encode(make_walk(rng, kServedPoints, 4.0)));
    }
  }
  const auto served_q8 = nn::QuantizedLstm::quantize(served_model, served_xs);
  const std::size_t served_steps = served_xs[0].steps;
  bool served_ok = true;
  const std::vector<double> served_group = served_q8.predict_logit_batch(served_xs);
  for (std::size_t i = 0; i < served_xs.size(); ++i) {
    served_ok = served_ok && served_group[i] == served_q8.predict_logit(served_xs[i]);
  }
  const std::vector<FeatureSequence> served_lone(served_xs.begin(), served_xs.begin() + 1);
  const Spread served_w1_us =
      repeat(reps, kTime, [&] { return quant_us_per_seq(served_q8, served_lone); });
  const Spread served_w8_us =
      repeat(reps, kTime, [&] { return quant_us_per_seq(served_q8, served_xs); });

  // -- GBT scoring: scalar pointer-chasing walk vs the fused flat scorer
  // (bit-identical by construction; asserted through the digests). --
  gbt::GbtConfig gc;
  gc.num_trees = 60;
  gc.max_depth = 4;
  std::vector<std::vector<double>> gbt_rows;
  std::vector<int> gbt_labels;
  {
    Rng rng(777);
    for (std::size_t i = 0; i < 400; ++i) {
      std::vector<double> row(16);
      double s = 0.0;
      for (auto& v : row) {
        v = rng.uniform(-1.0, 1.0);
        s += v;
      }
      gbt_rows.push_back(std::move(row));
      gbt_labels.push_back(s > 0.0 ? 1 : 0);
    }
  }
  gbt::GbtClassifier gbt_model(gc);
  gbt_model.train(gbt_rows, gbt_labels);
  Fnv gbt_ref_digest;
  Fnv gbt_fused_digest;
  const Spread gbt_ref_rps = repeat(reps, kRate, [&] {
    Fnv fresh;
    const double r = gbt_rate(
        gbt_rows,
        [&](const std::vector<double>& row) {
          return gbt::reference::predict_proba(gbt_model, row);
        },
        fresh);
    gbt_ref_digest = fresh;
    return r;
  });
  const Spread gbt_fused_rps = repeat(reps, kRate, [&] {
    Fnv fresh;
    const double r = gbt_rate(
        gbt_rows,
        [&](const std::vector<double>& row) { return gbt_model.predict_proba(row); },
        fresh);
    gbt_fused_digest = fresh;
    return r;
  });
  set_global_threads(0);

  const bool train_ok = train_ref_digest.h == train_bat_digest.h;
  const bool threads_ok = train_bat_digest.h == train_mt_digest.h;
  const bool dtw_ok = dtw_full_digest.h == dtw_pruned_digest.h;
  const bool gbt_ok = gbt_ref_digest.h == gbt_fused_digest.h;
  const double epoch_speedup = epoch_ref.median / epoch_bat.median;
  const double dtw_speedup = dtw_pruned_cps.median / dtw_full_cps.median;
  const double quant8_speedup = infer_q8_sps.median / infer_fp64_sps.median;
  const double gbt_speedup = gbt_fused_rps.median / gbt_ref_rps.median;

  std::printf("median +-IQR over %zu reps (best run in BENCH_nn.json)\n", reps);
  TextTable table({"stage", "reference", "fast", "speedup", "check"});
  table.add_row({"lstm epoch (s)", spread_cell(epoch_ref), spread_cell(epoch_bat),
                 TextTable::num(epoch_speedup, 2) + "x",
                 train_ok ? "bit-identical" : "DIVERGED"});
  table.add_row({"attack (iter/s)", "-", spread_cell(attack_ips), "-", "golden"});
  table.add_row({"dtw (call/s)", spread_cell(dtw_full_cps), spread_cell(dtw_pruned_cps),
                 TextTable::num(dtw_speedup, 2) + "x",
                 dtw_ok ? "bit-identical" : "DIVERGED"});
  // The quant lane trades bit-identity for the QuantGate's decision contract,
  // so its last column reports the gate, not bitwise equality.
  table.add_row({"lstm infer int8 (seq/s)", spread_cell(infer_fp64_sps),
                 spread_cell(infer_q8_sps), TextTable::num(quant8_speedup, 2) + "x",
                 gate8.pass ? "gate pass" : "GATE FAIL"});
  table.add_row({"gbt score (row/s)", spread_cell(gbt_ref_rps),
                 spread_cell(gbt_fused_rps), TextTable::num(gbt_speedup, 2) + "x",
                 gbt_ok ? "bit-identical" : "DIVERGED"});
  table.print(std::cout);
  std::printf("\ntrain checksum ref/batched = %s / %s\n",
              train_ref_digest.hex().c_str(), train_bat_digest.hex().c_str());
  std::printf("batched at %zu thread(s)   = %s (%s)\n", parallel_threads,
              train_mt_digest.hex().c_str(),
              threads_ok ? "thread-count invariant" : "DIVERGED");
  std::printf("attack checksum            = %s\n", attack_digest.hex().c_str());
  std::printf("dtw checksum full/pruned   = %s / %s\n",
              dtw_full_digest.hex().c_str(), dtw_pruned_digest.hex().c_str());
  std::printf("gbt checksum ref/fused     = %s / %s\n",
              gbt_ref_digest.hex().c_str(), gbt_fused_digest.hex().c_str());
  std::printf("int8 served shape          = hidden %zu, %zu steps: width 1 %s us/seq, "
              "width %zu %s us/seq (%s)\n",
              kServedHidden, served_steps, spread_cell(served_w1_us).c_str(),
              served_xs.size(), spread_cell(served_w8_us).c_str(),
              served_ok ? "bit-identical across widths" : "DIVERGED");
  std::printf("quant gate int8            = max logit delta %.2e, "
              "disagreements %zu, verdict checksum %016llx\n",
              gate8.max_abs_logit_delta, gate8.disagreements,
              static_cast<unsigned long long>(gate8.verdict_checksum));

  // Emitted atomically (temp + rename): a crash or a concurrent reader can
  // see the previous complete report or the new one, never a torn JSON.
  char head[1024];
  std::snprintf(head, sizeof head,
                "{\n"
                "  \"host\": {\"online_cpus\": %ld, \"avx512f\": %s, "
                "\"avx512_vnni\": %s, \"build_type\": \"%s\", \"commit\": \"%s\"},\n"
                "  \"config\": {\"train\": %zu, \"points\": %zu, \"epochs\": %zu, "
                "\"attack_iters\": %zu, \"dtw_calls\": %zu, \"reps\": %zu, "
                "\"threads\": %zu, \"served_hidden\": %zu, \"served_steps\": %zu},\n",
                ::sysconf(_SC_NPROCESSORS_ONLN),
                cpu_has_flag("avx512f") ? "true" : "false",
                cpu_has_flag("avx512_vnni") ? "true" : "false", TRAJKIT_BUILD_TYPE,
                source_commit().c_str(), train, points, epochs, attack_iters,
                dtw_calls, reps, parallel_threads, kServedHidden, served_steps);
  std::string json = head;
  json += "  \"legs\": {\n";
  const std::pair<const char*, const Spread*> legs[] = {
      {"lstm_epoch_s_reference", &epoch_ref},
      {"lstm_epoch_s_batched", &epoch_bat},
      {"attack_iters_per_sec", &attack_ips},
      {"dtw_calls_per_sec_full", &dtw_full_cps},
      {"dtw_calls_per_sec_pruned", &dtw_pruned_cps},
      {"lstm_infer_seqs_per_sec_fp64", &infer_fp64_sps},
      {"lstm_infer_seqs_per_sec_int8", &infer_q8_sps},
      {"quant_served_us_per_seq_width1", &served_w1_us},
      {"quant_served_us_per_seq_width8", &served_w8_us},
      {"gbt_rows_per_sec_reference", &gbt_ref_rps},
      {"gbt_rows_per_sec_fused", &gbt_fused_rps},
  };
  for (std::size_t i = 0; i < std::size(legs); ++i) {
    json += std::string("    \"") + legs[i].first + "\": " + spread_json(*legs[i].second);
    json += i + 1 < std::size(legs) ? ",\n" : "\n";
  }
  json += "  },\n";
  char tail[2048];
  std::snprintf(tail, sizeof tail,
                "  \"lstm_epoch_speedup\": %.3f,\n"
                "  \"dtw_speedup\": %.3f,\n"
                "  \"quant_int8_speedup\": %.3f,\n"
                "  \"gbt_speedup\": %.3f,\n"
                "  \"quant_int8_max_logit_delta\": %.6e,\n"
                "  \"quant_verdict_checksum\": \"%016llx\",\n"
                "  \"quant_gate_pass\": %s,\n"
                "  \"quant_served_width_invariant\": %s,\n"
                "  \"gbt_bit_identical\": %s,\n"
                "  \"train_checksum\": \"%s\",\n"
                "  \"attack_checksum\": \"%s\",\n"
                "  \"dtw_checksum\": \"%s\",\n"
                "  \"bit_identical\": %s,\n"
                "  \"thread_invariant\": %s\n"
                "}\n",
                epoch_speedup, dtw_speedup, quant8_speedup, gbt_speedup,
                gate8.max_abs_logit_delta,
                static_cast<unsigned long long>(gate8.verdict_checksum),
                gate8.pass ? "true" : "false", served_ok ? "true" : "false",
                gbt_ok ? "true" : "false",
                train_bat_digest.hex().c_str(), attack_digest.hex().c_str(),
                dtw_pruned_digest.hex().c_str(),
                train_ok && dtw_ok && gbt_ok ? "true" : "false",
                threads_ok ? "true" : "false");
  json += tail;
  if (trajkit::durable::write_file_atomic("BENCH_nn.json", json)) {
    std::printf("\nwrote BENCH_nn.json\n");
  }

  if (!(train_ok && dtw_ok && threads_ok && gbt_ok && served_ok)) {
    std::printf("FAILED: fast paths are not bit-identical\n");
    return 1;
  }
  if (!gate8.pass) {
    std::printf("FAILED: the quantized lane did not pass the QuantGate\n");
    return 1;
  }
  return 0;
}

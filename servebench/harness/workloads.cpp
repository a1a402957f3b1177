#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "common/parallel.hpp"
#include "layers.hpp"
#include "net/uds.hpp"
#include "serve/net_shard.hpp"
#include "serve/shard_router.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "wifi/crowd_store.hpp"
#include "world.hpp"

namespace servebench {
namespace {

using serve::Outcome;
using serve::VerdictResponse;

/// Distinct pool uploads whose served payloads are checked against the
/// oracle in every run.
constexpr std::size_t kOracleSamples = 24;
/// Oracle evaluations at most per run (ingest-publish samples per epoch).
constexpr std::size_t kOracleChecks = 64;
/// Requests the traced run replays layer by layer.
constexpr std::size_t kReplaySamples = 24;
constexpr std::size_t kSetupRepeats = 5;
/// RPC deadline for shard segment reads: far above the ~20 ms scheduling
/// stalls a shared VM shows, so steal cannot turn into a degraded verdict.
constexpr std::int64_t kRpcDeadlineUs = 2'000'000;

struct Spec {
  std::string name;
  WorldSpec world;
  std::size_t reals = 200;
  std::size_t forgeries = 200;
  /// Execution lanes of the global pool, counting the thread that calls
  /// into it (the service dispatcher, or each shard client inline).
  std::size_t pool_threads = 3;
  /// Busy load-generator threads beside the pool.
  std::size_t generator_threads = 1;
  std::size_t cache_capacity = 1 << 16;
  std::size_t max_batch = 16;
  std::size_t closed_window = 32;  ///< requests in flight in the closed loop
  double open_rate = 100.0;        ///< offered verdicts/s in the open loop
  std::size_t warmup = 0;          ///< warm-up requests; 0 = the whole pool
  std::size_t appends_per_epoch = 0;  ///< ingest-publish only
  std::size_t epochs = 0;             ///< publishes per run
  std::size_t shards = 0;             ///< shard-uds only
  double tile_m = 8.0;                ///< shard-uds geo-tile edge
};

/// Threads the workload keeps busy: the pool's lanes plus the load
/// generators.  shard-uds clients run their one-lane pool inline, so there
/// the client threads are the whole budget.
std::size_t busy_threads(const Spec& spec) {
  return spec.shards ? spec.generator_threads : spec.pool_threads + spec.generator_threads;
}

Spec spec_for(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "district-motion") {
    s.world = {.trajectories = 200, .points = 30, .motion = true, .motion_hidden = 384};
    s.open_rate = 120.0;
  } else if (name == "metro-miss") {
    // Working set several times the cache: a 9k-point world (300 history
    // trajectories of 30 points) behind a 2,048-entry RPD cache, read by a
    // 50-upload pool.
    s.world = {.trajectories = 400, .points = 30};
    s.reals = 25;
    s.forgeries = 25;
    s.cache_capacity = 2048;
    // One lane: a lone request's points then run on one thread.  Spread
    // over three lanes, the per-request fan-out made the open-loop median
    // swing by a factor of two with the host's load.
    s.pool_threads = 1;
    // The open loop sends the whole pool once (at 20 s per run).
    s.open_rate = 5.0;
    s.warmup = 8;
  } else if (name == "shard-uds") {
    s.world = {.trajectories = 200, .points = 30};
    s.pool_threads = 1;
    s.generator_threads = 3;  // client threads
    s.shards = 4;
    // 24 m tiles: a 30-point walk (~80 m) crosses a few shard boundaries, so
    // each verdict fans out to ~4 segment RPCs.  At 8 m tiles (~9 RPCs) the
    // open-loop latency was mostly thread hand-offs, which vary with the
    // host's vCPU wake-up delays far more than with the program.
    s.tile_m = 24.0;
    s.open_rate = 60.0;
    s.warmup = 16;
  } else if (name == "ingest-publish") {
    s.world = {.trajectories = 200, .points = 30};
    s.pool_threads = 2;
    s.generator_threads = 2;  // read generator + appender/publisher (open loop)
    s.open_rate = 120.0;
    s.appends_per_epoch = 256;
    s.epochs = 4;
    // A short warm-up: the whole pool through two lanes made set-up wall
    // time swing by 60% with host steal (a stolen lane stalls each batch),
    // far more than the serial store replay and index build it follows.
    s.warmup = 32;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Per-request bookkeeping

std::uint64_t bits_of(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// Hash of everything canonical_string() renders, plus the motion sidecar.
std::uint64_t payload_hash(const VerdictResponse& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t w) {
    h ^= w;
    h *= 1099511628211ull;
    h ^= h >> 29;
  };
  mix(static_cast<std::uint64_t>(r.outcome));
  mix(static_cast<std::uint64_t>(r.report.verdict));
  mix(bits_of(r.report.p_real));
  mix(bits_of(r.report.threshold));
  mix(r.report.features.size());
  for (const double f : r.report.features) mix(bits_of(f));
  mix(r.report.point_scores.size());
  for (const double s : r.report.point_scores) mix(bits_of(s));
  mix(r.has_motion_p_real ? 1 : 0);
  mix(bits_of(r.motion_p_real));
  return h;
}

struct Served {
  std::uint32_t idx = 0;
  bool ok = false;
  int verdict = 0;
  std::uint64_t hash = 0;
  /// Epochs current at submission and at completion (ingest-publish); the
  /// serving epoch lies between them.
  std::uint64_t epoch_lo = 0;
  std::uint64_t epoch_hi = 0;
};

struct Sample {
  std::uint32_t idx = 0;
  std::uint64_t epoch_lo = 0;
  std::uint64_t epoch_hi = 0;
  VerdictResponse response;
};

struct PhaseLog {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<Served> served;
  std::vector<std::int64_t> done_ns;  ///< completion time of each kOk answer
  std::vector<OpenLoopSample> open;
  std::vector<double> queue_ms;
  std::vector<Sample> samples;

  void record(const std::vector<char>& sampled, std::uint32_t idx, VerdictResponse& r,
              std::int64_t done, std::uint64_t epoch_lo, std::uint64_t epoch_hi) {
    const bool ok = r.outcome == Outcome::kOk;
    served.push_back({idx, ok, r.report.verdict, payload_hash(r), epoch_lo, epoch_hi});
    if (ok) {
      done_ns.push_back(done);
      queue_ms.push_back(static_cast<double>(r.queue_us) * 1e-3);
    }
    if (!sampled[idx]) return;
    for (const Sample& s : samples) {
      if (s.idx == idx && s.epoch_lo == epoch_lo && s.epoch_hi == epoch_hi) return;
    }
    samples.push_back({idx, epoch_lo, epoch_hi, std::move(r)});
  }

  void merge(PhaseLog&& other) {
    const auto append = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    append(served, other.served);
    append(done_ns, other.done_ns);
    append(open, other.open);
    append(queue_ms, other.queue_ms);
    append(samples, other.samples);
  }
};

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

/// The closed loop's seeded order: the pool in a fresh random permutation
/// each cycle, so every upload is served equally often and a run's mix does
/// not depend on luck of the draw.
std::vector<std::uint32_t> request_order(std::size_t pool_size, std::uint64_t seed) {
  Rng rng(mix_seed(seed, 3));
  std::vector<std::uint32_t> cycle(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) cycle[i] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> order;
  while (order.size() < (std::size_t{1} << 16)) {
    std::shuffle(cycle.begin(), cycle.end(), rng);
    order.insert(order.end(), cycle.begin(), cycle.end());
  }
  return order;
}

/// The open loop's order: the pool as stored, cycled.  Seeded orders make
/// each upload's cost depend on which uploads ran just before it (they decide
/// what the RPD cache holds), which moved the open-loop median by 10-15%
/// between seeds on metro-miss; in a fixed order only the host moves it.
std::vector<std::uint32_t> pool_order(std::size_t pool_size) {
  std::vector<std::uint32_t> order(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) order[i] = static_cast<std::uint32_t>(i);
  return order;
}

/// Seeded choice of distinct pool indices.
std::vector<char> sample_indices(std::size_t pool_size, std::size_t count, std::uint64_t seed,
                                 std::uint64_t salt) {
  std::vector<std::uint32_t> all(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) all[i] = static_cast<std::uint32_t>(i);
  Rng rng(mix_seed(seed, salt));
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<char> out(pool_size, 0);
  for (std::size_t i = 0; i < std::min(count, pool_size); ++i) out[all[i]] = 1;
  return out;
}

/// What the measured phases add up to.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Distinct forged uploads answered, and those judged real (a verdict is
  /// a pure function of the upload, so each counts once).
  std::uint64_t forged = 0;
  std::uint64_t forged_accepted = 0;
  std::vector<std::string> errors;
};

/// Outcome and determinism checks over every served request: each must be
/// kOk, and every answer for one upload at one epoch must carry the same
/// payload.  Oracle mismatches are added by the caller.
Tally tally(const std::vector<const PhaseLog*>& phases, const RequestPool& pool) {
  Tally t;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> first;
  std::set<std::uint32_t> forged_seen;
  for (const PhaseLog* phase : phases) {
    for (const Served& s : phase->served) {
      ++t.attempted;
      if (!s.ok) {
        ++t.failed;
        continue;
      }
      if (s.epoch_lo == s.epoch_hi) {
        const auto [it, fresh] = first.emplace(std::make_pair(s.idx, s.epoch_lo), s.hash);
        if (!fresh && it->second != s.hash) {
          ++t.failed;
          t.errors.push_back("upload " + std::to_string(s.idx) +
                             " answered with two different payloads");
          continue;
        }
      }
      if (pool.forged[s.idx] && forged_seen.insert(s.idx).second) {
        ++t.forged;
        if (s.verdict == 1) ++t.forged_accepted;
      }
    }
  }
  return t;
}

std::string oracle_payload(wifi::RssiDetector& oracle, const wifi::ScannedUpload& upload) {
  // The oracle detector is private to the checker; a fresh dense cache per
  // call keeps the serving cache out of the comparison entirely.
  oracle.set_rpd_cache(std::make_shared<wifi::DenseRpdStatsCache>(oracle.index().size()));
  return oracle.analyze(upload).canonical_string();
}

/// Sampled oracle checks.  `oracle_for(epoch)` gives the detector serving
/// that epoch.  Returns the number of served requests that the mismatches
/// invalidate (every answer for a mismatching upload).
std::uint64_t check_oracle(const std::vector<const PhaseLog*>& phases, const RequestPool& pool,
                           const World& world,
                           const std::function<wifi::RssiDetector&(std::uint64_t)>& oracle_for,
                           bool motion, std::uint64_t seed, Tally& t) {
  std::vector<const Sample*> samples;
  for (const PhaseLog* phase : phases) {
    for (const Sample& s : phase->samples) {
      bool dup = false;
      for (const Sample* other : samples) {
        dup = dup || (other->idx == s.idx && other->epoch_lo == s.epoch_lo &&
                      other->epoch_hi == s.epoch_hi);
      }
      if (!dup && s.response.outcome == Outcome::kOk) samples.push_back(&s);
    }
  }
  if (samples.size() > kOracleChecks) {
    Rng rng(mix_seed(seed, 9));
    std::shuffle(samples.begin(), samples.end(), rng);
    samples.resize(kOracleChecks);
  }
  std::set<std::uint32_t> bad;
  for (const Sample* s : samples) {
    const auto& upload = pool.uploads[s->idx];
    const std::string served = s->response.report.canonical_string();
    bool match = false;
    for (std::uint64_t e = s->epoch_lo; e <= s->epoch_hi && !match; ++e) {
      match = oracle_payload(oracle_for(e), upload) == served;
    }
    if (!match) {
      bad.insert(s->idx);
      t.errors.push_back("upload " + std::to_string(s->idx) + ": RSSI payload differs from the oracle");
      continue;
    }
    if (motion) {
      const double p = world.motion_model->predict_proba(world.encoder->encode(upload.positions));
      if (!s->response.has_motion_p_real || (p >= 0.5) != (s->response.motion_p_real >= 0.5)) {
        bad.insert(s->idx);
        t.errors.push_back("upload " + std::to_string(s->idx) +
                           ": motion verdict differs from the fp64 lane");
      }
    }
  }
  std::uint64_t invalid = 0;
  for (const PhaseLog* phase : phases) {
    for (const Served& s : phase->served) {
      if (s.ok && bad.count(s.idx)) ++invalid;
    }
  }
  t.failed += invalid;
  std::fprintf(stderr, "oracle: %zu sampled payloads checked, %zu uploads mismatched\n",
               samples.size(), bad.size());
  return invalid;
}

/// Tail latency diagnostic: the p99 when the sample supports it, else the
/// highest supported percentile (logged with its rank).
double tail_ms(const std::vector<double>& samples, const char* what) {
  const auto q = highest_supported_percentile(samples.size());
  if (!q) return 0.0;
  const double q_used = std::min(*q, 99.0);
  const double v = *percentile(samples, q_used);
  std::fprintf(stderr, "%s: p%.1f = %.3f ms over %zu samples\n", what, q_used, v, samples.size());
  return v;
}

std::vector<double> latencies_ms(const PhaseLog& open) {
  std::vector<double> out;
  out.reserve(open.open.size());
  for (const auto& s : open.open) out.push_back(s.latency_ms());
  return out;
}

std::vector<double> lateness_ms(const PhaseLog& open) {
  std::vector<double> out;
  out.reserve(open.open.size());
  for (const auto& s : open.open) out.push_back(s.lateness_ms());
  return out;
}

// ---------------------------------------------------------------------------
// Traced replays: the benchmark itself calls each layer's public function
// for a sampled request and records one span per call.

std::vector<std::uint32_t> replay_requests(const std::vector<char>& sampled) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < sampled.size() && out.size() < kReplaySamples; ++i) {
    if (sampled[i]) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

struct ReplayCounts {
  std::uint64_t within_calls = 0;
  std::uint64_t candidates = 0;
};

/// Points [begin, end) of `upload` through the reference index and the Eq. 7
/// estimator of `det`.
void replay_points(SpanRecorder& rec, std::int32_t parent, std::uint64_t id,
                   const wifi::RssiDetector& det, const wifi::ScannedUpload& upload,
                   std::size_t begin, std::size_t end, ReplayCounts& counts) {
  const double r = det.confidence().params().reference_radius_m;
  for (std::size_t i = begin; i < end; ++i) {
    const auto found = rec.timed("wifi.refindex.within", parent, id,
                                 [&] { return det.index().within(upload.positions[i], r); });
    ++counts.within_calls;
    counts.candidates += found.size();
    rec.timed("wifi.confidence.point_confidence", parent, id, [&] {
      return det.confidence().point_confidence(upload.positions[i], upload.scans[i]);
    });
  }
}

/// Whole-verdict replay on a single detector: points, Eq. 8 assembly, GBT.
void replay_verdict(SpanRecorder& rec, std::uint64_t id, const wifi::RssiDetector& det,
                    const wifi::ScannedUpload& upload, ReplayCounts& counts) {
  const std::int32_t root = rec.begin("verdict", kNoParent, id);
  replay_points(rec, root, id, det, upload, 0, upload.positions.size(), counts);
  std::vector<double> features;
  std::vector<double> scores;
  rec.timed("wifi.segment_features", root, id,
            [&] { det.segment_features(upload, features, scores); });
  rec.timed("gbt.predict_proba", root, id, [&] { return det.classifier().predict_proba(features); });
  rec.end(root);
}

void write_spans(const SpanRecorder& rec, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  rec.write_jsonl(out);
  std::fprintf(stderr, "trace: %zu spans written to %s\n", rec.spans().size(), path.c_str());
}

/// Per-layer metric names and units.  Every name is reported on every
/// workload; a layer the workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"serve.queue_ms_p50", "ms"},          {"serve.batch_mean", "count"},
    {"rpd_cache.hit_rate", "fraction"},    {"rpd_cache.misses_per_verdict", "count"},
    {"rpd_cache.evictions_per_verdict", "count"}, {"wifi.rpd_build_us", "us"},
    {"wifi.refindex_within_us", "us"},     {"wifi.refindex_candidates", "count"},
    {"wifi.confidence_point_us", "us"},    {"gbt.predict_us", "us"},
    {"nn.motion_batch_us", "us"},          {"nn.quant_batch_frac", "fraction"},
    {"shard.segments_per_verdict", "count"}, {"shard.split_us", "us"},
    {"net.rpc_us_p50", "us"},              {"net.bytes_per_rpc", "bytes"},
    {"net.rpcs_per_verdict", "count"},     {"net.retries", "count"},
    {"net.timeouts", "count"},             {"net.hedges", "count"},
    {"net.degraded_frac", "fraction"},     {"durable.append_us_p50", "us"},
    {"durable.bytes_per_point", "bytes"},  {"publish.epoch_s", "s"},
    {"publish.affected_keys", "count"},    {"publish.carried_entries", "count"},
    {"publish.post_flip_misses", "count"}, {"harness.steal_frac", "fraction"},
    {"harness.gen_late_ms_p99", "ms"},     {"harness.p50_ms", "ms"},
    {"harness.p99_ms", "ms"},              {"harness.closed_loop_vps", "1/s"},
    {"harness.trace_overhead", "ratio"},
};

struct LayerMetrics {
  std::map<std::string, double> v;
  LayerMetrics() {
    for (const auto& [name, unit] : kLayerMetrics) v[name] = 0.0;
  }
  void set(const std::string& name, double value) {
    if (!v.count(name)) throw std::logic_error("unknown layer metric " + name);
    v[name] = value;
  }
  void from_spans(const SpanRecorder& rec, const ReplayCounts& counts) {
    const auto totals = layer_totals(rec.spans());
    const auto mean_self = [&](const char* span) {
      const auto it = totals.find(span);
      return it == totals.end() ? 0.0 : it->second.mean_self_us();
    };
    set("wifi.refindex_within_us", mean_self("wifi.refindex.within"));
    set("wifi.confidence_point_us", mean_self("wifi.confidence.point_confidence"));
    set("gbt.predict_us", mean_self("gbt.predict_proba"));
    set("nn.motion_batch_us", mean_self("nn.motion_batch"));
    set("shard.split_us", mean_self("shard.split"));
    if (counts.within_calls) {
      set("wifi.refindex_candidates", static_cast<double>(counts.candidates) /
                                          static_cast<double>(counts.within_calls));
    }
  }
  std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerMetrics) out.push_back({name, v.at(name), unit});
    return out;
  }
};

/// Measured-phase totals shared by every workload.
struct Measured {
  PhaseLog closed;
  PhaseLog open;
  double closed_cpu_s = 0.0;  ///< process CPU over the closed loop
  double open_cpu_s = 0.0;    ///< process CPU over the open loop
  double steal = 0.0;         ///< host-wide /proc/stat steal share over both phases
  std::vector<const PhaseLog*> phases() const { return {&closed, &open}; }
};

/// Process CPU of each phase, and host steal from construction to stop().
class Meter {
 public:
  void closed_done(Measured& m) {
    const double now = process_cpu_s();
    m.closed_cpu_s = now - cpu_;
    cpu_ = now;
  }
  void stop(Measured& m) const {
    m.open_cpu_s = process_cpu_s() - cpu_;
    m.steal = steal_fraction(jiffies0_, read_cpu_jiffies());
  }

 private:
  double cpu_ = process_cpu_s();
  CpuJiffies jiffies0_ = read_cpu_jiffies();
};

double verdicts_of(const Measured& m) {
  return static_cast<double>(m.closed.done_ns.size() + m.open.done_ns.size());
}

double phase_cpu_ms(double cpu_s, const PhaseLog& phase) {
  if (phase.done_ns.empty()) throw std::runtime_error("a measured phase answered nothing");
  return cpu_s * 1e3 / static_cast<double>(phase.done_ns.size());
}

/// Process CPU ms per kOk verdict: the mean of the closed and the open
/// loop's figures.  Pooling the phases would weight them by the closed
/// loop's verdict count, which moves with the host's wall-clock speed, and
/// an open-loop verdict (unbatched) costs up to two and a half times a
/// closed-loop one; the pooled figure is logged.
double cpu_ms_per_verdict(const Measured& m) {
  return 0.5 * (phase_cpu_ms(m.closed_cpu_s, m.closed) + phase_cpu_ms(m.open_cpu_s, m.open));
}

/// Wall-clock closed-loop capacity: kOk verdicts completed within the phase
/// per second.  A diagnostic: hypervisor steal moves it by tens of percent
/// between runs on a shared VM.
double closed_loop_vps(const Measured& m) {
  const auto in_phase = std::count_if(m.closed.done_ns.begin(), m.closed.done_ns.end(),
                                      [&](std::int64_t t) { return t <= m.closed.end_ns; });
  return static_cast<double>(in_phase) * 1e9 /
         static_cast<double>(m.closed.end_ns - m.closed.start_ns);
}

/// Open-loop median latency from intended send time, over every request of
/// the phase; 0 when the phase is too short for a median.  A diagnostic:
/// host steal spells moved it by up to 64% between runs on a shared VM.
double open_p50_ms(const Measured& m) {
  return percentile(latencies_ms(m.open), 50.0).value_or(0.0);
}

/// The end-to-end metric set (every name on every workload).
std::vector<Metric> end_to_end(const Measured& m, const Tally& t, double setup_s) {
  std::fprintf(stderr, "closed loop: %.2f verdicts/s wall-clock; open-loop p50 %.4f ms\n",
               closed_loop_vps(m), open_p50_ms(m));
  return {
      {"setup_s", setup_s, "s"},
      {"cpu_ms_per_verdict", cpu_ms_per_verdict(m), "ms"},
      {"ok_frac",
       t.attempted ? static_cast<double>(t.attempted - t.failed) / static_cast<double>(t.attempted)
                   : 0.0,
       "fraction"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"forged_accept_frac",
       t.forged ? static_cast<double>(t.forged_accepted) / static_cast<double>(t.forged) : 0.0,
       "fraction"},
  };
}

void log_phase_summary(const Measured& m) {
  const auto lat = latencies_ms(m.open);
  tail_ms(lat, "open-loop latency");
  tail_ms(lateness_ms(m.open), "generator lateness");
  std::fprintf(stderr,
               "phases: %zu closed-loop answers at %.4f ms CPU each, %zu open-loop at %.4f ms "
               "(pooled %.4f ms), steal %.4f\n",
               m.closed.served.size(), phase_cpu_ms(m.closed_cpu_s, m.closed), m.open.served.size(),
               phase_cpu_ms(m.open_cpu_s, m.open),
               (m.closed_cpu_s + m.open_cpu_s) * 1e3 / verdicts_of(m), m.steal);
}

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

/// Thread budget plus host and noise fingerprint of one run.
std::string fingerprint(const Spec& spec, const RunConfig& cfg, const Measured& m) {
  const auto late = lateness_ms(m.open);
  const auto q = highest_supported_percentile(late.size());
  const double late_tail = q ? *percentile(late, std::min(*q, 99.0)) : 0.0;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %s, "
                "\"nproc\": %zu, \"avx512_vnni\": %s, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"commit\": \"%s\", \"pool_threads\": %zu, "
                "\"generator_threads\": %zu, \"steal_frac\": %.5f, "
                "\"gen_late_ms_p99\": %.4f}",
                json_escape(spec.name).c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? "true" : "false", online_cpus(),
                cpu_has_flag("avx512_vnni") ? "true" : "false", SERVEBENCH_BUILD_TYPE,
                json_escape(std::string("gcc ") + __VERSION__).c_str(),
                json_escape(cfg.commit.empty() ? "unknown" : cfg.commit).c_str(),
                spec.pool_threads, spec.generator_threads, m.steal, late_tail);
  return buf;
}

RunResult finish(const Tally& t, std::vector<Metric> metrics, const Spec& spec,
                 const RunConfig& cfg, const Measured& m) {
  RunResult r;
  r.fingerprint = fingerprint(spec, cfg, m);
  r.attempted = t.attempted;
  r.failed = t.failed;
  r.correct = t.failed == 0 && t.errors.empty() && t.attempted > 0;
  for (const auto& e : t.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  r.metrics = std::move(metrics);
  return r;
}

/// Times one serving cold start in wall-clock seconds (process CPU is logged
/// beside it).
class SetupClock {
 public:
  double stop(std::size_t repeat) const {
    const double wall = static_cast<double>(now_ns() - wall0_) * 1e-9;
    std::fprintf(stderr, "setup %zu: %.4f s wall, %.4f s CPU\n", repeat, wall,
                 process_cpu_s() - cpu0_);
    return wall;
  }

 private:
  double cpu0_ = process_cpu_s();
  std::int64_t wall0_ = now_ns();
};

// ---------------------------------------------------------------------------
// VerifierService workloads: district-motion, metro-miss, ingest-publish.

/// Drives a VerifierService from one generator thread; one collector thread
/// waits on the answers in submission order and timestamps them.
class ServiceLoad {
 public:
  ServiceLoad(serve::VerifierService& service, const RequestPool& pool,
              const std::vector<char>& sampled, const std::vector<std::uint32_t>& order,
              bool track_epochs)
      : service_(service), pool_(pool), sampled_(sampled), order_(order),
        open_order_(pool_order(pool.uploads.size())), track_epochs_(track_epochs) {}

  PhaseLog closed(std::size_t window, double seconds) {
    return run(false, window, 0.0, seconds, order_);
  }
  PhaseLog open(double rate, double seconds) {
    cursor_ = 0;
    return run(true, 0, rate, seconds, open_order_);
  }

 private:
  struct Pending {
    std::future<VerdictResponse> future;
    std::uint32_t idx = 0;
    std::int64_t intended = 0;
    std::int64_t sent = 0;
    std::uint64_t epoch = 0;
  };

  PhaseLog run(bool open_loop, std::size_t window, double rate, double seconds,
               const std::vector<std::uint32_t>& order) {
    PhaseLog log;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool finished = false;
    std::size_t outstanding = 0;
    std::thread collector([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return finished || !queue.empty(); });
          if (queue.empty()) return;
          p = std::move(queue.front());
          queue.pop_front();
        }
        VerdictResponse r = p.future.get();
        const std::int64_t done = now_ns();
        const std::uint64_t epoch_hi = track_epochs_ ? service_.epoch() : 0;
        if (open_loop) log.open.push_back({p.intended, p.sent, done});
        log.record(sampled_, p.idx, r, done, p.epoch, epoch_hi);
        {
          std::lock_guard<std::mutex> lock(mu);
          --outstanding;
        }
        cv.notify_all();
      }
    });
    const auto submit = [&](std::int64_t intended) {
      Pending p;
      p.idx = order[cursor_++ % order.size()];
      p.intended = intended;
      p.epoch = track_epochs_ ? service_.epoch() : 0;
      p.sent = now_ns();
      p.future = service_.submit({next_id_++, pool_.uploads[p.idx], 0});
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(p));
        ++outstanding;
      }
      cv.notify_all();
    };
    log.start_ns = now_ns();
    const std::int64_t end = log.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    if (open_loop) {
      const auto schedule = fixed_rate_schedule(
          log.start_ns, rate, static_cast<std::size_t>(rate * seconds));
      for (const std::int64_t t : schedule) {
        sleep_until_ns(t);
        submit(t);
      }
    } else {
      while (now_ns() < end) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return outstanding < window; });
        }
        submit(0);
      }
    }
    log.end_ns = open_loop ? now_ns() : end;
    {
      std::lock_guard<std::mutex> lock(mu);
      finished = true;
    }
    cv.notify_all();
    collector.join();
    return log;
  }

  serve::VerifierService& service_;
  const RequestPool& pool_;
  const std::vector<char>& sampled_;
  const std::vector<std::uint32_t>& order_;
  const std::vector<std::uint32_t> open_order_;
  bool track_epochs_;
  std::size_t cursor_ = 0;
  std::uint64_t next_id_ = 0;
};

/// Fixed-rate stamped crowd appends with an epoch publish every
/// appends_per_epoch appends, beside the read phases.
struct IngestLog {
  std::vector<double> append_us;
  std::vector<double> publish_s;
  /// (epoch, points it covers), the serving epoch at cold start first.
  std::vector<std::pair<std::uint64_t, std::size_t>> epochs;
  std::uintmax_t journal_bytes = 0;
  std::uint64_t appended = 0;
  std::vector<double> affected;
  std::vector<double> carried;
  std::vector<double> post_flip_misses;
  wifi::RpdStatsCache::CacheStats cache;  ///< summed over every epoch's cache
  std::string error;
};

struct ServiceInstance {
  std::unique_ptr<serve::VerifierService> service;
  std::unique_ptr<wifi::CrowdStore> store;
  std::shared_ptr<TimingRpdCache> timing_cache;
  /// The gated quantized motion lane the service was armed with.
  std::shared_ptr<const nn::QuantizedLstm> quant;
};

class ServiceWorkload {
 public:
  ServiceWorkload(const Spec& spec, const RunConfig& cfg) : spec_(spec), cfg_(cfg) {
    world_ = build_world(spec.world, cfg.workdir);
    pool_ = make_pool(world_, spec.reals, spec.forgeries);
    order_ = request_order(pool_.uploads.size(), cfg.seed);
    sampled_ = sample_indices(pool_.uploads.size(), kOracleSamples, cfg.seed, 4);
    if (ingest()) {
      const std::size_t needed = spec.appends_per_epoch * spec.epochs;
      crowd_ = make_crowd(world_, needed / spec.world.points + 1, cfg.seed);
      store_dir_ = cfg.workdir + "/store";
    }
    if (!reset_peak_rss()) std::fprintf(stderr, "peak RSS includes the fixture\n");
  }

  RunResult run() {
    if (cfg_.trace) return run_traced();
    std::vector<double> setups;
    ServiceInstance inst;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      inst = ServiceInstance{};
      prepare_store();
      const SetupClock clock;
      inst = cold_start(false);
      setups.push_back(clock.stop(r));
    }
    IngestLog ingest_log;
    Measured m = measure(inst, false, ingest_log, cfg_.seconds);
    Tally t = verify(m, inst, ingest_log);
    log_phase_summary(m);
    return finish(t, end_to_end(m, t, median(setups)), spec_, cfg_, m);
  }

 private:
  bool ingest() const { return spec_.appends_per_epoch > 0; }

  void prepare_store() {
    if (!ingest()) return;
    std::filesystem::remove_all(store_dir_);
    auto store = wifi::CrowdStore::open(store_dir_, false);
    if (!store) throw std::runtime_error("crowd store: " + store.error());
    for (const auto& point : world_.history) {
      auto seq = store.value()->append(point);
      if (!seq) throw std::runtime_error("crowd store append: " + seq.error());
    }
    auto compacted = store.value()->compact();
    if (!compacted) throw std::runtime_error("crowd store compact: " + compacted.error());
  }

  /// Serving cold start: open the persisted artifacts, assemble the detector
  /// (index build), calibrate and gate the quantized motion lane, construct
  /// the service, and run the fixed warm-up pass.
  ServiceInstance cold_start(bool traced) {
    set_global_threads(spec_.pool_threads);
    serve::VerifierServiceConfig config;
    config.max_batch = spec_.max_batch;
    config.max_queue = std::size_t{1} << 20;  // never reject: rejection is not what we measure
    config.cache.capacity = spec_.cache_capacity;
    ServiceInstance inst;
    if (spec_.world.motion) {
      auto model = nn::LstmClassifier::try_load_file(world_.motion_path);
      if (!model) throw std::runtime_error("motion model: " + model.error());
      config.motion.model = std::make_shared<nn::LstmClassifier>(std::move(model).value());
      config.motion.encoder = world_.encoder;
      const auto gate = config.motion.arm_quantized(world_.calibration, nn::QuantMode::kInt8, 0.1);
      if (!gate.pass) throw std::runtime_error("quantized motion lane failed its gate");
      inst.quant = config.motion.quant;
    }
    if (ingest()) {
      auto service = serve::VerifierService::try_create_from_store(store_dir_,
                                                                   world_.detector_path, config);
      if (!service) throw std::runtime_error("cold start: " + service.error());
      inst.service = std::move(service).value();
      auto store = wifi::CrowdStore::open(store_dir_, false);
      if (!store) throw std::runtime_error("crowd store: " + store.error());
      inst.store = std::move(store).value();
    } else {
      auto detector = wifi::RssiDetector::try_load_file(world_.detector_path);
      if (!detector) throw std::runtime_error("detector: " + detector.error());
      auto det = std::move(detector).value();
      if (traced) {
        // Route the RPD statistics through a timing decorator over the same
        // bounded LRU the service would install.
        inst.timing_cache = std::make_shared<TimingRpdCache>(
            std::make_shared<serve::ShardedRpdLruCache>(config.cache));
        det->set_rpd_cache(inst.timing_cache);
        config.use_shared_cache = false;
      }
      inst.service = std::make_unique<serve::VerifierService>(std::move(det), config);
    }
    const std::size_t warm = spec_.warmup ? std::min(spec_.warmup, pool_.uploads.size())
                                          : pool_.uploads.size();
    std::vector<std::future<VerdictResponse>> futures;
    for (std::size_t i = 0; i < warm; ++i) {
      futures.push_back(inst.service->submit({i, pool_.uploads[i], 0}));
    }
    for (auto& f : futures) {
      if (f.get().outcome != Outcome::kOk) throw std::runtime_error("warm-up request failed");
    }
    return inst;
  }

  wifi::RpdStatsCache::CacheStats cache_stats(const ServiceInstance& inst) const {
    if (inst.timing_cache) return inst.timing_cache->stats();
    return inst.service->counters().cache;
  }

  Measured measure(ServiceInstance& inst, bool traced, IngestLog& ingest_log, double seconds) {
    Measured m;
    ServiceLoad load(*inst.service, pool_, sampled_, order_, ingest());
    const double half = seconds / 2.0;
    std::thread appender;
    Meter meter;
    m.closed = load.closed(spec_.closed_window, half);
    meter.closed_done(m);
    // ingest-publish appends and publishes beside the open loop only, so
    // every run does the same write work beside the same fixed-rate reads,
    // and the closed loop measures reads alone.
    if (ingest()) {
      ingest_log.epochs.emplace_back(inst.service->epoch(), inst.service->published_points());
      const std::int64_t start = now_ns();
      appender = std::thread([&] { append_and_publish(inst, start, half, traced, ingest_log); });
    }
    m.open = load.open(spec_.open_rate, half);
    if (appender.joinable()) appender.join();
    meter.stop(m);
    if (!ingest_log.error.empty()) throw std::runtime_error(ingest_log.error);
    return m;
  }

  void append_and_publish(ServiceInstance& inst, std::int64_t start, double seconds, bool traced,
                          IngestLog& log) {
    const std::size_t total = spec_.appends_per_epoch * spec_.epochs;
    const auto journal = wifi::CrowdStore::journal_path(store_dir_);
    const auto bytes0 = std::filesystem::file_size(journal);
    const auto schedule =
        fixed_rate_schedule(start, static_cast<double>(total) / seconds, total);
    // Each epoch serves from its own cache (a carried-forward clone starts
    // its counters at zero); the traced run sums them over the epochs.
    wifi::RpdStatsCache::CacheStats base;
    if (traced) base = inst.service->counters().cache;
    bool flipped = false;
    const auto close_epoch = [&] {
      const auto s = inst.service->counters().cache;
      log.cache.hits += s.hits - base.hits;
      log.cache.misses += s.misses - base.misses;
      log.cache.evictions += s.evictions - base.evictions;
      if (flipped) log.post_flip_misses.push_back(static_cast<double>(s.misses - base.misses));
    };
    std::size_t since_publish_from = inst.service->published_points();
    for (std::size_t k = 0; k < total; ++k) {
      sleep_until_ns(schedule[k]);
      const std::int64_t t0 = now_ns();
      auto seq = inst.store->append(crowd_.points[k], crowd_.uploaders[k]);
      log.append_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (!seq) {
        log.error = "append: " + seq.error();
        return;
      }
      ++log.appended;
      if ((k + 1) % spec_.appends_per_epoch != 0) continue;
      if (traced) {
        // Affected keys, recomputed from outside exactly as publish_epoch
        // derives them: serving-index points whose counting circle gains
        // one of the new scans.
        const auto serving = inst.service->detector_snapshot();
        const double radius = serving->confidence().rpd().params().counting_radius_m;
        std::set<std::size_t> affected;
        const auto& points = inst.store->points();
        for (std::size_t i = since_publish_from; i < points.size(); ++i) {
          for (const std::size_t h : serving->index().within(points[i].pos, radius)) {
            affected.insert(h);
          }
        }
        log.affected.push_back(static_cast<double>(affected.size()));
        close_epoch();
      }
      const std::int64_t p0 = now_ns();
      auto epoch = inst.service->publish_epoch(*inst.store);
      log.publish_s.push_back(static_cast<double>(now_ns() - p0) * 1e-9);
      if (!epoch) {
        log.error = "publish_epoch: " + epoch.error();
        return;
      }
      since_publish_from = inst.service->published_points();
      log.epochs.emplace_back(epoch.value(), since_publish_from);
      if (traced) {
        log.carried.push_back(static_cast<double>(inst.service->shared_cache()->size()));
        base = {};
        flipped = true;
      }
    }
    if (traced) close_epoch();
    log.journal_bytes = std::filesystem::file_size(journal) - bytes0;
  }

  Tally verify(const Measured& m, const ServiceInstance& inst, const IngestLog& ingest_log) {
    Tally t = tally(m.phases(), pool_);
    if (!ingest()) {
      check_oracle(m.phases(), pool_, world_,
                   [&](std::uint64_t) -> wifi::RssiDetector& { return *world_.oracle; },
                   spec_.world.motion, cfg_.seed, t);
      return t;
    }
    // Epoch-aware oracle: the detector an epoch serves is the store prefix
    // it covers, indexed under the bounds the first epoch pinned.
    const auto bounds = wifi::ReferenceIndex::natural_bounds(world_.history);
    std::map<std::uint64_t, std::unique_ptr<wifi::RssiDetector>> oracles;
    const auto oracle_for = [&](std::uint64_t epoch) -> wifi::RssiDetector& {
      auto& slot = oracles[epoch];
      if (!slot) {
        std::size_t covered = 0;
        for (const auto& [e, n] : ingest_log.epochs) {
          if (e == epoch) covered = n;
        }
        const auto& points = inst.store->points();
        slot = wifi::RssiDetector::assemble(
            std::vector<wifi::ReferencePoint>(points.begin(),
                                              points.begin() + static_cast<std::ptrdiff_t>(covered)),
            world_.oracle->config(), world_.oracle->classifier(),
            world_.oracle->trained_points(), bounds);
      }
      return *slot;
    };
    check_oracle(m.phases(), pool_, world_, oracle_for, false, cfg_.seed, t);
    return t;
  }

  /// CPU per verdict of an untraced pass, the base of the tracing overhead.
  /// It runs after the traced pass.
  double untraced_cpu_ms(double seconds) {
    prepare_store();
    ServiceInstance inst = cold_start(false);
    IngestLog ingest_log;
    return cpu_ms_per_verdict(measure(inst, false, ingest_log, seconds));
  }

  RunResult run_traced() {
    // The traced and untraced passes split the run's measuring time.
    const double seconds = cfg_.seconds / 2.0;
    prepare_store();
    ServiceInstance inst = cold_start(true);
    const auto counters0 = inst.service->counters();
    const auto cache0 = cache_stats(inst);
    IngestLog ingest_log;
    Measured m = measure(inst, true, ingest_log, seconds);
    const auto counters1 = inst.service->counters();
    const auto cache1 = cache_stats(inst);

    // Replays after the measured phases, so they never compete with them.
    SpanRecorder rec;
    ReplayCounts counts;
    const double cpu0 = process_cpu_s();
    const auto det = inst.service->detector_snapshot();
    const auto replayed = replay_requests(sampled_);
    for (const std::uint32_t idx : replayed) {
      replay_verdict(rec, idx, *det, pool_.uploads[idx], counts);
    }
    if (spec_.world.motion) {
      for (std::size_t b = 0; b < replayed.size(); b += spec_.max_batch) {
        const std::int32_t root = rec.begin("motion_batch", kNoParent, replayed[b]);
        std::vector<FeatureSequence> feats;
        for (std::size_t i = b; i < std::min(replayed.size(), b + spec_.max_batch); ++i) {
          feats.push_back(world_.encoder->encode(pool_.uploads[replayed[i]].positions));
        }
        rec.timed("nn.motion_batch", root, replayed[b],
                  [&] { return inst.quant->predict_proba_batch(feats); });
        rec.end(root);
      }
    }
    const double replay_cpu = process_cpu_s() - cpu0;
    write_spans(rec, cfg_.trace_out);

    Tally t = verify(m, inst, ingest_log);
    log_phase_summary(m);

    LayerMetrics L;
    L.from_spans(rec, counts);
    const double verdicts = verdicts_of(m);
    L.set("serve.queue_ms_p50", median(m.open.queue_ms));
    const double batches = static_cast<double>(counters1.batches - counters0.batches);
    const double completed = static_cast<double>(counters1.completed - counters0.completed);
    if (batches > 0) L.set("serve.batch_mean", completed / batches);
    if (batches > 0) {
      L.set("nn.quant_batch_frac",
            static_cast<double>(counters1.motion_quant_batches - counters0.motion_quant_batches) /
                batches);
    }
    wifi::RpdStatsCache::CacheStats cache{cache1.hits - cache0.hits,
                                          cache1.misses - cache0.misses,
                                          cache1.evictions - cache0.evictions};
    if (ingest()) cache = ingest_log.cache;
    L.set("rpd_cache.hit_rate", cache.hit_rate());
    L.set("rpd_cache.misses_per_verdict", static_cast<double>(cache.misses) / verdicts);
    L.set("rpd_cache.evictions_per_verdict", static_cast<double>(cache.evictions) / verdicts);
    if (inst.timing_cache) L.set("wifi.rpd_build_us", inst.timing_cache->build_us_mean());
    if (ingest()) {
      L.set("durable.append_us_p50", median(ingest_log.append_us));
      L.set("durable.bytes_per_point", static_cast<double>(ingest_log.journal_bytes) /
                                           static_cast<double>(ingest_log.appended));
      L.set("publish.epoch_s", median(ingest_log.publish_s));
      L.set("publish.affected_keys", median(ingest_log.affected));
      L.set("publish.carried_entries", median(ingest_log.carried));
      L.set("publish.post_flip_misses", median(ingest_log.post_flip_misses));
    }
    L.set("harness.steal_frac", m.steal);
    L.set("harness.gen_late_ms_p99", tail_ms(lateness_ms(m.open), "generator lateness"));
    L.set("harness.p50_ms", open_p50_ms(m));
    L.set("harness.p99_ms", tail_ms(latencies_ms(m.open), "open-loop latency"));
    L.set("harness.closed_loop_vps", closed_loop_vps(m));
    const double traced_cpu = cpu_ms_per_verdict(m) + replay_cpu * 1e3 / verdicts;
    inst = ServiceInstance{};
    L.set("harness.trace_overhead", traced_cpu / untraced_cpu_ms(seconds));
    return finish(t, L.metrics(), spec_, cfg_, m);
  }

  const Spec& spec_;
  const RunConfig& cfg_;
  World world_;
  RequestPool pool_;
  std::vector<std::uint32_t> order_;
  std::vector<char> sampled_;
  CrowdBatch crowd_;
  std::string store_dir_;
};

// ---------------------------------------------------------------------------
// shard-uds: a 4-shard ShardRouter whose segments are answered by in-process
// shard nodes over real Unix-domain sockets.

struct ShardInstance {
  std::unique_ptr<serve::ShardRouter> router;
  std::unique_ptr<net::UdsTransport> transport;
  std::unique_ptr<TimingTransport> timing;
  std::vector<std::unique_ptr<net::UdsServer>> servers;
  std::vector<std::shared_ptr<serve::RemoteSegmentClient>> clients;

  ShardInstance() = default;
  ShardInstance(const ShardInstance&) = delete;
  ShardInstance& operator=(const ShardInstance&) = delete;
  ShardInstance(ShardInstance&&) = default;
  ShardInstance& operator=(ShardInstance&& other) {
    teardown();
    router = std::move(other.router);
    transport = std::move(other.transport);
    timing = std::move(other.timing);
    servers = std::move(other.servers);
    clients = std::move(other.clients);
    return *this;
  }
  ~ShardInstance() { teardown(); }

  /// Servers answer from the router's shards and the clients call through
  /// the transport, so stop the servers first and drop the transport last.
  void teardown() {
    for (auto& server : servers) {
      server->stop();
      ::unlink(server->path().c_str());
    }
    servers.clear();
    router.reset();
    clients.clear();
    timing.reset();
    transport.reset();
  }
};

class ShardWorkload {
 public:
  ShardWorkload(const Spec& spec, const RunConfig& cfg) : spec_(spec), cfg_(cfg) {
    world_ = build_world(spec.world, cfg.workdir);
    pool_ = make_pool(world_, spec.reals, spec.forgeries);
    order_ = request_order(pool_.uploads.size(), cfg.seed);
    open_order_ = pool_order(pool_.uploads.size());
    sampled_ = sample_indices(pool_.uploads.size(), kOracleSamples, cfg.seed, 4);
    if (!reset_peak_rss()) std::fprintf(stderr, "peak RSS includes the fixture\n");
  }

  RunResult run() {
    if (cfg_.trace) return run_traced();
    std::vector<double> setups;
    ShardInstance inst;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      inst = ShardInstance{};
      const SetupClock clock;
      inst = cold_start(false);
      setups.push_back(clock.stop(r));
    }
    Measured m = measure(*inst.router, cfg_.seconds);
    Tally t = verify(m);
    log_phase_summary(m);
    return finish(t, end_to_end(m, t, median(setups)), spec_, cfg_, m);
  }

 private:
  /// Cold start: open the persisted detector, partition it into shard
  /// slices (index builds), bind one UDS server per shard, wire the router's
  /// remote evaluators, and run the warm-up pass.
  ShardInstance cold_start(bool traced) {
    set_global_threads(spec_.pool_threads);
    ShardInstance inst;
    auto detector = wifi::RssiDetector::try_load_file(world_.detector_path);
    if (!detector) throw std::runtime_error("detector: " + detector.error());
    serve::ShardRouterConfig rc;
    rc.shards = spec_.shards;
    rc.tile_m = spec_.tile_m;
    rc.cache.capacity = spec_.cache_capacity;
    inst.router = std::make_unique<serve::ShardRouter>(*detector.value(), rc);
    inst.transport = std::make_unique<net::UdsTransport>();
    net::Transport* transport = inst.transport.get();
    if (traced) {
      inst.timing = std::make_unique<TimingTransport>(*inst.transport);
      transport = inst.timing.get();
    }
    serve::NetCallPolicy policy;
    policy.rpc_deadline_us = kRpcDeadlineUs;
    const std::size_t top_k = detector.value()->config().confidence.top_k;
    for (std::size_t s = 0; s < spec_.shards; ++s) {
      const std::string path = cfg_.workdir + "/seg" + std::to_string(s) + ".sock";
      if (path.size() >= 100) throw std::runtime_error("socket path too long: " + path);
      inst.servers.push_back(std::make_unique<net::UdsServer>(
          path, serve::make_segment_handler(inst.router->shard(s))));
      auto started = inst.servers.back()->start();
      if (!started) throw std::runtime_error("uds server: " + started.error());
      inst.clients.push_back(std::make_shared<serve::RemoteSegmentClient>(
          *transport, std::vector<std::string>{path}, top_k, policy));
      inst.router->set_remote_evaluator(s, inst.clients.back());
    }
    for (std::size_t i = 0; i < std::min(spec_.warmup, pool_.uploads.size()); ++i) {
      if (inst.router->verify(pool_.uploads[i], i).outcome != Outcome::kOk) {
        throw std::runtime_error("warm-up request failed");
      }
    }
    return inst;
  }

  /// Closed loop: every client sends its next request when the last one
  /// returns.  Open loop: the clients share one fixed-rate schedule and
  /// time each request from its intended send time.
  PhaseLog drive(serve::ShardRouter& router, bool open_loop, double seconds) {
    std::vector<PhaseLog> logs(spec_.generator_threads);
    std::atomic<std::size_t> next{0};
    const std::size_t base = open_loop ? 0 : cursor_;
    const std::vector<std::uint32_t>& order = open_loop ? open_order_ : order_;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const auto schedule =
        open_loop ? fixed_rate_schedule(start, spec_.open_rate,
                                        static_cast<std::size_t>(spec_.open_rate * seconds))
                  : std::vector<std::int64_t>{};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < spec_.generator_threads; ++c) {
      threads.emplace_back([&, c] {
        PhaseLog& log = logs[c];
        for (;;) {
          const std::size_t k = next.fetch_add(1);
          std::int64_t intended = 0;
          if (open_loop) {
            if (k >= schedule.size()) return;
            intended = schedule[k];
            sleep_until_ns(intended);
          } else if (now_ns() >= end) {
            return;
          }
          const std::uint32_t idx = order[(base + k) % order.size()];
          const std::int64_t sent = now_ns();
          VerdictResponse r = router.verify(pool_.uploads[idx], base + k);
          const std::int64_t done = now_ns();
          if (open_loop) log.open.push_back({intended, sent, done});
          log.record(sampled_, idx, r, done, 0, 0);
        }
      });
    }
    for (auto& t : threads) t.join();
    PhaseLog out;
    out.start_ns = start;
    out.end_ns = open_loop ? now_ns() : end;
    for (auto& log : logs) out.merge(std::move(log));
    if (!open_loop) cursor_ = base + next.load();
    return out;
  }

  Measured measure(serve::ShardRouter& router, double seconds) {
    Measured m;
    Meter meter;
    m.closed = drive(router, false, seconds / 2.0);
    meter.closed_done(m);
    m.open = drive(router, true, seconds / 2.0);
    meter.stop(m);
    return m;
  }

  Tally verify(const Measured& m) {
    Tally t = tally(m.phases(), pool_);
    // The router's merged verdict must equal the single-shard oracle's.
    check_oracle(m.phases(), pool_, world_,
                 [&](std::uint64_t) -> wifi::RssiDetector& { return *world_.oracle; }, false,
                 cfg_.seed, t);
    return t;
  }

  RunResult run_traced() {
    // The traced and untraced passes split the run's measuring time; the
    // untraced one runs second (see ServiceWorkload::untraced_cpu_ms).
    const double seconds = cfg_.seconds / 2.0;
    ShardInstance inst = cold_start(true);
    const auto shard_cache = [&] {
      wifi::RpdStatsCache::CacheStats total;
      for (std::size_t i = 0; i < inst.router->shards(); ++i) {
        const auto st = inst.router->shard(i).cache()->stats();
        total.hits += st.hits;
        total.misses += st.misses;
        total.evictions += st.evictions;
      }
      return total;
    };
    const auto counters0 = inst.router->counters();
    const auto cache0 = shard_cache();
    Measured m = measure(*inst.router, seconds);
    const auto counters1 = inst.router->counters();
    const auto cache1 = shard_cache();
    const auto rpc_us = inst.timing->rpc_us();
    const auto rpc_bytes = inst.timing->bytes();

    SpanRecorder rec;
    ReplayCounts counts;
    const double cpu0 = process_cpu_s();
    const std::size_t top_k = world_.oracle->config().confidence.top_k;
    for (const std::uint32_t idx : replay_requests(sampled_)) {
      const auto& upload = pool_.uploads[idx];
      const std::int32_t root = rec.begin("verdict", kNoParent, idx);
      const auto segments =
          rec.timed("shard.split", root, idx, [&] { return inst.router->split(upload); });
      std::vector<double> features(2 * top_k * upload.positions.size());
      std::vector<double> scores(upload.positions.size());
      for (const auto& seg : segments) {
        rec.timed("net.rpc", root, idx, [&] {
          inst.clients[seg.shard]->evaluate(upload, seg.begin, seg.end,
                                            features.data() + 2 * top_k * seg.begin,
                                            scores.data() + seg.begin);
        });
        const auto shard_det = inst.router->shard(seg.shard).detector_snapshot();
        replay_points(rec, root, idx, *shard_det, upload, seg.begin, seg.end, counts);
      }
      const auto head = inst.router->shard(0).detector_snapshot();
      rec.timed("gbt.predict_proba", root, idx,
                [&] { return head->classifier().predict_proba(features); });
      rec.end(root);
    }
    const double replay_cpu = process_cpu_s() - cpu0;
    write_spans(rec, cfg_.trace_out);

    Tally t = verify(m);
    log_phase_summary(m);

    LayerMetrics L;
    L.from_spans(rec, counts);
    const double verdicts = verdicts_of(m);
    const double requests = static_cast<double>(counters1.requests - counters0.requests);
    const wifi::RpdStatsCache::CacheStats cache{cache1.hits - cache0.hits,
                                                cache1.misses - cache0.misses,
                                                cache1.evictions - cache0.evictions};
    L.set("rpd_cache.hit_rate", cache.hit_rate());
    L.set("rpd_cache.misses_per_verdict", static_cast<double>(cache.misses) / verdicts);
    L.set("rpd_cache.evictions_per_verdict", static_cast<double>(cache.evictions) / verdicts);
    L.set("shard.segments_per_verdict",
          static_cast<double>(counters1.segments - counters0.segments) / requests);
    double retries = 0, timeouts = 0, hedges = 0;
    for (std::size_t s = 0; s < counters1.per_shard_net.size(); ++s) {
      retries += static_cast<double>(counters1.per_shard_net[s].retries -
                                     counters0.per_shard_net[s].retries);
      timeouts += static_cast<double>(counters1.per_shard_net[s].timeouts -
                                      counters0.per_shard_net[s].timeouts);
      hedges += static_cast<double>(counters1.per_shard_net[s].hedges -
                                    counters0.per_shard_net[s].hedges);
    }
    L.set("net.rpc_us_p50", median(rpc_us));
    L.set("net.bytes_per_rpc",
          rpc_us.empty() ? 0.0 : static_cast<double>(rpc_bytes) / static_cast<double>(rpc_us.size()));
    L.set("net.rpcs_per_verdict", static_cast<double>(rpc_us.size()) / requests);
    L.set("net.retries", retries);
    L.set("net.timeouts", timeouts);
    L.set("net.hedges", hedges);
    L.set("net.degraded_frac", static_cast<double>(counters1.degraded_shard_verdicts -
                                                   counters0.degraded_shard_verdicts) /
                                   requests);
    L.set("harness.steal_frac", m.steal);
    L.set("harness.gen_late_ms_p99", tail_ms(lateness_ms(m.open), "generator lateness"));
    L.set("harness.p50_ms", open_p50_ms(m));
    L.set("harness.p99_ms", tail_ms(latencies_ms(m.open), "open-loop latency"));
    L.set("harness.closed_loop_vps", closed_loop_vps(m));
    const double traced_cpu = cpu_ms_per_verdict(m) + replay_cpu * 1e3 / verdicts;
    inst = ShardInstance{};
    const ShardInstance plain = cold_start(false);
    L.set("harness.trace_overhead",
          traced_cpu / cpu_ms_per_verdict(measure(*plain.router, seconds)));
    return finish(t, L.metrics(), spec_, cfg_, m);
  }

  const Spec& spec_;
  const RunConfig& cfg_;
  World world_;
  RequestPool pool_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> open_order_;
  std::vector<char> sampled_;
  std::size_t cursor_ = 0;
};

}  // namespace

RunResult run_workload(const RunConfig& config) {
  const Spec spec = spec_for(config.workload);
  const std::size_t budget = busy_threads(spec);
  if (budget > online_cpus()) {
    throw std::runtime_error("workload " + spec.name + " needs " + std::to_string(budget) +
                             " busy threads but only " + std::to_string(online_cpus()) +
                             " CPUs are online");
  }
  if (spec.shards) return ShardWorkload(spec, config).run();
  return ServiceWorkload(spec, config).run();
}

}  // namespace servebench

// Batched verification serving layer: the long-lived process face of the
// paper's J function.
//
// A VerifierService owns (or wraps) a trained RssiDetector and turns the
// one-upload-at-a-time library call into a service: callers submit
// VerificationRequests, the dispatcher micro-batches them through the
// deterministic thread pool (common/parallel), and every request comes back
// as a structured VerdictResponse with an explicit outcome.  No RPD state is
// shared between requests: each uploaded point counts Eq. 4 over its own
// reference neighbourhood (wifi/confidence.hpp), so a request's cost does not
// depend on what earlier requests touched.
//
// Admission control: a full queue rejects at submit time (kRejected, the
// caller should back off), and a request whose queueing time exceeded its
// deadline is answered kTimedOut without burning detector time on it.
//
// Partial failure is part of the contract, not an afterthought: the paper's
// detector leans on a crowdsourced RSSI store that is incomplete and noisy by
// assumption, so the service treats "the full pipeline is unavailable" as a
// normal operating mode.  Transient evaluation faults (FaultError — injected
// by the chaos harness or raised by flaky I/O) are retried with exponential
// backoff and deterministic jitter; persistent ones trip a circuit breaker;
// and when the detector cannot answer at all — faults exhausted, breaker
// open, or the model never loaded — the request degrades to the rule-based
// physical-plausibility checker (src/baseline) instead of being dropped:
// outcome kDegraded, with the reason recorded on the response and counted in
// the service counters.  Caller errors (malformed upload, untrained model)
// are still answered kError immediately — retrying cannot fix the input.
//
// Determinism contract (PR 1): a response's payload — verdict, probability,
// features, point scores — is a pure function of (model, upload) and, under
// an armed fault schedule, of (model, upload, fault seed).  Batch
// composition, arrival order and thread count cannot change it; only the
// timing fields, deadline-bound outcomes and breaker-induced degradations
// depend on the wall clock.  tests/determinism_test.cpp and
// tests/chaos_test.cpp assert byte-identical canonical payloads across
// thread counts and submission orders, faults included.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baseline/rule_based.hpp"
#include "common/clock.hpp"
#include "common/counters.hpp"
#include "common/durable/artifact_store.hpp"
#include "common/expected.hpp"
#include "nn/classifier.hpp"
#include "nn/quant_classifier.hpp"
#include "serve/epoched_detector.hpp"
#include "serve/rpd_lru_cache.hpp"
#include "traj/features.hpp"
#include "wifi/detector.hpp"

namespace trajkit::wifi {
class CrowdStore;
}

namespace trajkit::serve {

/// Fault point on the dispatch path, keyed by request id with an explicit
/// retry ordinal — fail_first = N makes every request's first N attempts
/// fail, proving the retry loop recovers deterministically at attempt N.
inline constexpr const char* kFaultDispatch = "serve.dispatch";

enum class Outcome {
  kOk,        ///< evaluated; see the report
  kDegraded,  ///< detector unavailable; rule-based fallback verdict in report
  kRejected,  ///< refused at admission (queue full)
  kTimedOut,  ///< deadline expired while queued; not evaluated
  kError,     ///< evaluation threw (e.g. upload length mismatch); see `error`
};

const char* outcome_name(Outcome outcome);

struct VerificationRequest {
  std::uint64_t id = 0;         ///< caller-chosen; echoed in the response
  wifi::ScannedUpload upload;
  /// Queueing budget in microseconds from submission; 0 = no deadline.
  std::int64_t deadline_us = 0;
};

struct VerdictResponse {
  std::uint64_t request_id = 0;
  Outcome outcome = Outcome::kError;
  wifi::VerdictReport report;  ///< meaningful when outcome == kOk/kDegraded
  std::string error;           ///< meaningful when outcome == kError
  /// Motion-model sidecar verdict (MotionPolicy): probability that the
  /// claimed positions move like a genuine trajectory.  Present only on kOk
  /// responses of a motion-armed service with >= 2 uploaded positions.
  bool has_motion_p_real = false;
  double motion_p_real = 0.0;
  /// Why the request degraded (kDegraded only): the final fault message,
  /// "breaker_open", or "detector_unavailable".
  std::string degraded_reason;
  std::int64_t queue_us = 0;   ///< time spent queued (0 on the sync paths)
  std::int64_t compute_us = 0; ///< detector time, retries and backoff included

  /// Deterministic rendering of the payload; excludes the timing fields.
  std::string canonical_string() const;
};

/// Bounded retry with exponential backoff for transient (FaultError)
/// evaluation failures.  Jitter is drawn from a counter-based sub-stream of
/// (jitter_seed, request id, attempt), so backoff durations — and therefore
/// fault decisions keyed on attempt ordinals — replay identically across
/// thread counts.
struct RetryPolicy {
  std::size_t max_retries = 2;        ///< re-evaluations after the first try
  std::int64_t backoff_base_us = 50;  ///< first retry delay before jitter
  double backoff_multiplier = 2.0;    ///< delay *= multiplier per attempt
  std::int64_t backoff_cap_us = 5000; ///< upper bound on any single delay
  std::uint64_t jitter_seed = 0;      ///< sub-stream key for the jitter draw
};

/// Delay before retry `attempt + 1` of the operation keyed `key` (a request
/// id, a frame seq, a hash of the RPC bytes): base * multiplier^attempt,
/// times a jitter in [0.5, 1.5) drawn from the (jitter_seed, key, attempt)
/// sub-stream, capped.  A pure function, so retry timing — and any fault
/// decision keyed on attempt ordinals — never depends on scheduling.  The
/// service's dispatch retries and every shard RPC retry share it.
std::int64_t backoff_delay_us(const RetryPolicy& retry, std::uint64_t key,
                              std::size_t attempt);

/// Circuit breaker over consecutive exhausted-retry failures.  While open,
/// requests skip the detector and degrade immediately ("breaker_open"), so a
/// dead dependency sheds load instead of burning max_retries per request.
/// Note the breaker couples a request's outcome to its neighbours' timing —
/// breaker-induced degradations are excluded from the cross-thread
/// determinism contract, like deadlines (keep failure_threshold = 0 in
/// schedules that assert byte-identical payloads).
struct BreakerPolicy {
  std::size_t failure_threshold = 0;   ///< consecutive failures to open; 0 = off
  std::int64_t cooldown_us = 100000;   ///< open duration before re-probing
};

/// Graceful degradation: answer through the rule-based physical-plausibility
/// checker when the RSSI detector cannot.  The fallback sees only the
/// claimed positions (scans need the reference store that just failed), so
/// it catches crude forgeries and keeps availability; p_real is the fraction
/// of points that fired no rule.
struct FallbackPolicy {
  bool enabled = true;
  /// Transport mode whose physical limits the rule checker applies.
  Mode mode = Mode::kWalking;
  /// Sampling interval assumed between upload points, seconds.
  double interval_s = 2.0;
  /// Permit construction without a working detector (try_create_from_file on
  /// an unloadable model): every request is answered by the fallback until
  /// the process is restarted with a healthy model.
  bool allow_degraded_start = false;
};

/// Optional motion-model sidecar: arm it with a trained LSTM classifier and
/// the encoder it was trained with, and every kOk response also carries the
/// motion model's probability that the claimed positions move like a human
/// (Sec. IV-A's classifier C serving next to the RSSI detector).  The whole
/// micro-batch is evaluated through the batched kernel path in one pass;
/// because the batched forward is bit-identical per sequence regardless of
/// grouping, motion_p_real stays a pure function of (model, upload) and the
/// determinism contract above extends to it unchanged.
struct MotionPolicy {
  std::shared_ptr<const nn::LstmClassifier> model;
  std::shared_ptr<const FeatureEncoder> encoder;
  /// Quantized serving lane (nn/quant_classifier): installed only when the
  /// verdict-agreement gate passed against `model` on a calibration set.  The
  /// fp64 model stays resident as the oracle and the per-model fallback —
  /// quant==nullptr (never armed, or gate failed) serves fp64 unchanged.
  std::shared_ptr<const nn::QuantizedLstm> quant;
  /// Gate evidence for the installed quant model (pass, max logit delta,
  /// verdict checksum); meaningful only when quant != nullptr.
  nn::QuantGateReport quant_gate;
  bool armed() const { return model != nullptr && encoder != nullptr; }
  bool quant_armed() const { return armed() && quant != nullptr && quant_gate.pass; }

  /// Quantize `model`, gate it against the fp64 oracle on `calibration`, and
  /// install the quantized lane only if the gate passes (zero verdict
  /// disagreements and max |logit delta| <= bound).  On gate failure the
  /// policy is left untouched — serving falls back to fp64 — and the failing
  /// report is returned so callers can log why.
  /// The unnamed QuantMode is an inert seam kept for servebench, which spells
  /// it: kInt8 is its only value and the lane is int8 only.
  nn::QuantGateReport arm_quantized(const std::vector<FeatureSequence>& calibration,
                                    nn::QuantMode /*mode*/ = nn::QuantMode::kInt8,
                                    double logit_delta_bound = 0.05,
                                    double threshold = 0.5) {
    nn::QuantGateReport report;
    // No model or no calibration data: nothing to gate against — report a
    // (default) failing gate instead of letting the calibration pass throw.
    if (!model || calibration.empty()) return report;
    // One fp64 pass serves both the activation scales and the gate's oracle
    // logits.
    const nn::CalibrationPass pass = model->calibration_pass(calibration);
    auto q = std::make_shared<nn::QuantizedLstm>(nn::QuantizedLstm::quantize(*model, pass));
    report = nn::quant_gate_check(pass.logits, *q, calibration, logit_delta_bound, threshold);
    if (report.pass) {
      quant = std::move(q);
      quant_gate = report;
    }
    return report;
  }
};

struct VerifierServiceConfig {
  std::size_t max_batch = 16;   ///< requests dispatched per micro-batch
  std::size_t max_queue = 1024; ///< admission limit; beyond -> kRejected
  bool auto_start = true;       ///< false: queue only until start() is called
  /// Inert seams kept for servebench; the service holds no RPD cache.
  bool use_shared_cache = true;
  ShardedRpdLruCache::Config cache;
  RetryPolicy retry;
  BreakerPolicy breaker;
  FallbackPolicy fallback;
  MotionPolicy motion;
};

/// Monotonically-increasing service counters plus latency quantiles.
struct ServiceCounters {
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::uint64_t degraded = 0;       ///< answered by the rule-based fallback
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;
  std::uint64_t motion_quant_batches = 0;  ///< micro-batches served by the int8 lane
  std::uint64_t retries = 0;        ///< re-evaluations after transient faults
  std::uint64_t breaker_opens = 0;  ///< times the circuit breaker tripped
  wifi::RpdStatsCache::CacheStats cache;  ///< inert seam kept for servebench: always zero
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

class VerifierService {
 public:
  /// Own the detector (the deployment shape: load once, serve forever).
  /// The detector must already be trained.
  explicit VerifierService(std::unique_ptr<wifi::RssiDetector> detector,
                           VerifierServiceConfig config = {},
                           const Clock* clock = nullptr);

  /// Wrap a caller-owned detector (embedding shape, e.g. the experiment
  /// pipeline).  The detector must outlive the service.
  explicit VerifierService(wifi::RssiDetector& detector,
                           VerifierServiceConfig config = {},
                           const Clock* clock = nullptr);

  /// Model-loading path: build a service straight from a persisted detector
  /// file, reporting failures as a string instead of throwing.  When the
  /// model cannot load and fallback.allow_degraded_start is set, a
  /// detector-less service is returned instead of an error: it answers every
  /// request kDegraded through the rule-based checker.
  static Expected<std::unique_ptr<VerifierService>, std::string> try_create_from_file(
      const std::string& model_path, VerifierServiceConfig config = {});

  /// Cold-start from a crowd store (wifi/crowd_store: durable snapshot +
  /// write-ahead journal) plus a persisted detector model whose classifier,
  /// config and trained-points count are reused over the store's reference
  /// set.  This is the crash-recovery path: the store recovers from any
  /// kill point, and the resulting service reproduces bit-identical verdicts.
  /// Degraded-start semantics match try_create_from_file.
  static Expected<std::unique_ptr<VerifierService>, std::string> try_create_from_store(
      const std::string& store_dir, const std::string& model_path,
      VerifierServiceConfig config = {});

  /// Cold-start from a versioned artifact store: loads whatever epoch the
  /// store's durable CURRENT pointer names for `kind` and serves it.  The
  /// epoch-aware counterpart of try_create_from_file — restart after a crash
  /// mid-publish comes back on the last fully-published epoch.  Degraded-start
  /// semantics match try_create_from_file, and wifi::kFaultDetectorLoad is
  /// consulted under the artifact file's path key.
  static Expected<std::unique_ptr<VerifierService>, std::string>
  try_create_from_artifacts(const std::string& artifact_dir,
                            VerifierServiceConfig config = {},
                            const std::string& kind = "detector");

  ~VerifierService();
  VerifierService(const VerifierService&) = delete;
  VerifierService& operator=(const VerifierService&) = delete;

  /// Async path: enqueue for the dispatcher.  Admission happens here — a
  /// full queue resolves the future immediately with kRejected.
  std::future<VerdictResponse> submit(VerificationRequest request);

  /// Sync path: evaluate a whole batch on the calling thread through the
  /// thread pool, bypassing the queue (no admission, no deadlines).
  /// Responses come back in request order.
  std::vector<VerdictResponse> verify_batch(
      const std::vector<VerificationRequest>& requests);

  /// Sync single-upload convenience: a one-request verify_batch, so it
  /// counts one micro-batch.
  VerdictResponse verify_now(const wifi::ScannedUpload& upload);

  void start();
  /// Drain the queue, then join the dispatcher.  Idempotent.
  void stop();
  bool running() const;

  /// False only for a degraded-start service (model never loaded).
  bool has_detector() const { return detector_snapshot() != nullptr; }
  /// Shared-ownership handle on the live detector (RCU snapshot): holders
  /// keep their epoch alive across a concurrent hot-swap.  Null on a
  /// degraded-start service.
  std::shared_ptr<const wifi::RssiDetector> detector_snapshot() const {
    return epoched_.detector();
  }
  /// The live detector; requires has_detector().  Prefer detector_snapshot()
  /// when a hot-swap may run concurrently — this reference does not pin the
  /// epoch it came from.
  const wifi::RssiDetector& detector() const { return *detector_snapshot(); }
  /// Inert seam kept for servebench: an always-empty cache, never null.
  const ShardedRpdLruCache* shared_cache() const {
    static const ShardedRpdLruCache kInert;
    return &kInert;
  }

  /// Model epoch currently serving (0 until the first publish/adopt).
  std::uint64_t epoch() const { return epoched_.epoch(); }
  /// Store points folded into the serving epoch's reference index.
  std::size_t published_points() const { return epoched_.published_points(); }

  /// Publish the store's current reference set as the next model epoch,
  /// without dropping a single in-flight request:
  ///
  ///   1. the epoch holder builds the replacement (EpochedDetector::
  ///      build_next: assembly under the pinned grid bounds);
  ///   2. when `artifacts` is given, the detector is committed there first
  ///      (crash before the CURRENT flip ⇒ restart serves the old epoch);
  ///   3. an "#epoch N" control frame is journaled through `store` so
  ///      WAL-shipping followers adopt it;
  ///   4. the RCU flip installs the new epoch.
  ///
  /// `exclude_quarantined` publishes the store's trusted_points() instead —
  /// the quarantine stage that holds suspected-poisoned uploaders out of the
  /// served model while review is pending.  A filtered set is not an
  /// append-only extension of the serving one, so neither a filtered publish
  /// nor the next publish after it is checked for append-only growth.  An
  /// unfiltered publish over an unfiltered epoch from a store holding fewer
  /// points than the serving epoch is refused.
  ///
  /// Returns the new epoch number.
  Expected<std::uint64_t, std::string> publish_epoch(
      wifi::CrowdStore& store, durable::ArtifactStore* artifacts = nullptr,
      bool exclude_quarantined = false);

  /// True while the circuit breaker is open (requests degrade immediately).
  bool breaker_open() const;

  ServiceCounters counters() const;
  /// Counters rendered through common/table for logs and operators.
  std::string counters_table() const;

 private:
  struct Pending {
    VerificationRequest request;
    std::promise<VerdictResponse> promise;
    std::int64_t enqueue_us = 0;
  };

  using ServiceOrError = Expected<std::unique_ptr<VerifierService>, std::string>;

  VerifierService(std::unique_ptr<wifi::RssiDetector> owned,
                  wifi::RssiDetector* borrowed, VerifierServiceConfig config,
                  const Clock* clock, std::uint64_t epoch = 0);

  /// Shared tail of the try_create_* factories: serve `detector` at `epoch`,
  /// or — when it failed to load and degraded start is allowed — a
  /// detector-less service that answers through the fallback.
  static ServiceOrError create_or_degrade(
      Expected<std::unique_ptr<wifi::RssiDetector>, std::string> detector,
      const VerifierServiceConfig& config, std::uint64_t epoch = 0);

  VerdictResponse evaluate(const VerificationRequest& request,
                           std::int64_t queue_us);
  /// Fill `response` with the rule-based fallback verdict (kDegraded), or
  /// kError when the fallback is disabled.
  void degrade(VerdictResponse& response, const VerificationRequest& request,
               std::string reason);
  wifi::VerdictReport fallback_report(const wifi::ScannedUpload& upload) const;
  /// Attach motion_p_real to the kOk responses of one batch (no-op unless
  /// config_.motion is armed).  requests[i] must belong to responses[i].
  void annotate_motion(const std::vector<const VerificationRequest*>& requests,
                       std::vector<VerdictResponse>& responses) const;
  /// The one batch path behind submit(), verify_batch and verify_now.
  /// queue_us[i] is request i's queue wait; empty means none waited.
  std::vector<VerdictResponse> run_batch(
      const std::vector<const VerificationRequest*>& requests,
      const std::vector<std::int64_t>& queue_us = {});
  void breaker_record_success();
  void breaker_record_failure();
  void dispatcher_loop();
  void reject_pending();

  // Detector and epoch; a borrowed (caller-owned) detector is held through a
  // no-op deleter.
  EpochedDetector epoched_;
  VerifierServiceConfig config_;
  const Clock* clock_;
  baseline::RuleBasedDetector fallback_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread dispatcher_;

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  // Incremented from annotate_motion (const path) — hence mutable.
  mutable std::atomic<std::uint64_t> motion_quant_batches_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> consecutive_failures_{0};
  std::atomic<std::int64_t> breaker_open_until_us_{0};
  LatencyHistogram latency_;
};

}  // namespace trajkit::serve

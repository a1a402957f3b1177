#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/durable/durable_file.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/validate.hpp"

namespace trajkit::serve {

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kRejected: return "rejected";
    case Outcome::kTimedOut: return "timed_out";
    case Outcome::kError: return "error";
  }
  return "unknown";
}

std::string VerdictResponse::canonical_string() const {
  std::string out = "id=" + std::to_string(request_id) + " outcome=";
  out += outcome_name(outcome);
  if (outcome == Outcome::kOk || outcome == Outcome::kDegraded) {
    out += ' ';
    out += report.canonical_string();
  }
  if (has_motion_p_real) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " motion_p_real=%.17g", motion_p_real);
    out += buf;
  }
  if (outcome == Outcome::kDegraded && !degraded_reason.empty()) {
    out += " reason=";
    out += degraded_reason;
  }
  if (outcome == Outcome::kError && !error.empty()) {
    out += " error=";
    out += error;
  }
  return out;
}

VerifierService::VerifierService(std::unique_ptr<wifi::RssiDetector> detector,
                                 VerifierServiceConfig config, const Clock* clock)
    : VerifierService(std::move(detector), nullptr, config, clock) {}

VerifierService::VerifierService(wifi::RssiDetector& detector,
                                 VerifierServiceConfig config, const Clock* clock)
    : VerifierService(nullptr, &detector, config, clock) {}

VerifierService::VerifierService(std::unique_ptr<wifi::RssiDetector> owned,
                                 wifi::RssiDetector* borrowed,
                                 VerifierServiceConfig config, const Clock* clock,
                                 std::uint64_t epoch)
    : config_(config),
      clock_(clock ? clock : &steady_clock()),
      fallback_(baseline::RuleBasedDetector::for_mode(config.fallback.mode)) {
  EpochBuild initial;
  if (owned) {
    initial.detector = std::move(owned);
  } else if (borrowed) {
    // Caller-owned detector: share without owning (no-op deleter) so the RCU
    // snapshot machinery treats both ownership shapes identically.
    initial.detector =
        std::shared_ptr<wifi::RssiDetector>(borrowed, [](wifi::RssiDetector*) {});
  }
  if (!initial.detector &&
      !(config_.fallback.enabled && config_.fallback.allow_degraded_start)) {
    throw std::invalid_argument("VerifierService: null detector");
  }
  if (config_.max_batch == 0) {
    throw std::invalid_argument("VerifierService: max_batch must be positive");
  }
  if (initial.detector) epoched_.install(std::move(initial), epoch);
  if (config_.auto_start) start();
}

Expected<std::uint64_t, std::string> VerifierService::publish_epoch(
    wifi::CrowdStore& store, durable::ArtifactStore* artifacts,
    bool exclude_quarantined) {
  using Result = Expected<std::uint64_t, std::string>;
  const std::uint64_t cur_epoch = epoched_.epoch();
  auto next = epoched_.build_next(
      exclude_quarantined ? store.trusted_points() : store.arrays(), exclude_quarantined);
  if (!next) return Result::failure("publish_epoch: " + next.error());
  std::uint64_t next_epoch = cur_epoch + 1;
  if (artifacts != nullptr) {
    // Commit the artifact before anything becomes visible: a crash (or
    // injected fault) before the CURRENT flip leaves this epoch an orphan and
    // a restart serves the old one.
    auto published =
        artifacts->publish_payload("detector", next.value().detector->image());
    if (!published) return Result::failure("publish_epoch: " + published.error());
    next_epoch = published.value();
  }
  // Journal the epoch marker before the flip so WAL followers can never
  // observe a marker the primary did not durably record.
  auto marker =
      store.append_control({wifi::ControlFrame::Kind::kEpoch, next_epoch});
  if (!marker) return Result::failure("publish_epoch: " + marker.error());
  epoched_.install(std::move(next).value(), next_epoch);
  return Result(next_epoch);
}

VerifierService::ServiceOrError VerifierService::create_or_degrade(
    Expected<std::unique_ptr<wifi::RssiDetector>, std::string> detector,
    const VerifierServiceConfig& config, std::uint64_t epoch) {
  if (!detector) {
    if (!(config.fallback.enabled && config.fallback.allow_degraded_start)) {
      return ServiceOrError::failure(detector.error());
    }
    // Degraded-start serving: the model is unavailable, but the service
    // still answers every request through the rule-based fallback.
    return ServiceOrError(std::unique_ptr<VerifierService>(
        new VerifierService(nullptr, nullptr, config, nullptr)));
  }
  return ServiceOrError(std::unique_ptr<VerifierService>(new VerifierService(
      std::move(detector).value(), nullptr, config, nullptr, epoch)));
}

Expected<std::unique_ptr<VerifierService>, std::string>
VerifierService::try_create_from_file(const std::string& model_path,
                                      VerifierServiceConfig config) {
  return create_or_degrade(wifi::RssiDetector::try_load_file(model_path), config);
}

Expected<std::unique_ptr<VerifierService>, std::string>
VerifierService::try_create_from_store(const std::string& store_dir,
                                       const std::string& model_path,
                                       VerifierServiceConfig config) {
  using DetectorOrError = Expected<std::unique_ptr<wifi::RssiDetector>, std::string>;
  auto store = wifi::CrowdStore::open(store_dir);
  if (!store) return create_or_degrade(DetectorOrError::failure(store.error()), config);
  auto model = wifi::RssiDetector::try_load_file(model_path);
  if (!model) return create_or_degrade(std::move(model), config);
  // The model file carries the classifier + config; the crowd store supplies
  // the (recovered) reference set the index is rebuilt over.  Publishes
  // resume after the highest "#epoch N" marker the journal replayed.
  return create_or_degrade(
      DetectorOrError(wifi::RssiDetector::assemble(
          store.value()->arrays(), model.value()->config(),
          model.value()->classifier(), model.value()->trained_points())),
      config, store.value()->observed_epoch());
}

Expected<std::unique_ptr<VerifierService>, std::string>
VerifierService::try_create_from_artifacts(const std::string& artifact_dir,
                                           VerifierServiceConfig config,
                                           const std::string& kind) {
  using DetectorOrError = Expected<std::unique_ptr<wifi::RssiDetector>, std::string>;
  auto artifacts = durable::ArtifactStore::open_dir(artifact_dir);
  if (!artifacts) {
    return create_or_degrade(DetectorOrError::failure(artifacts.error()), config);
  }
  const std::uint64_t live = artifacts.value()->current_epoch(kind);
  if (live == 0) {
    return create_or_degrade(
        DetectorOrError::failure("artifact store has no published '" + kind + "'"),
        config);
  }
  // The same fault point try_load_file consults, keyed by the artifact file.
  const std::string path = artifacts.value()->artifact_path(kind, live);
  if (global_faults().should_fail_seq(wifi::kFaultDetectorLoad,
                                      durable::path_fault_key(path))) {
    return create_or_degrade(
        DetectorOrError::failure("RssiDetector: injected load fault for " + path),
        config);
  }
  auto payload = artifacts.value()->read_payload(kind, live);
  if (!payload) return create_or_degrade(DetectorOrError::failure(payload.error()), config);
  return create_or_degrade(wifi::RssiDetector::decode(payload.value()), config, live);
}

VerifierService::~VerifierService() {
  stop();
  reject_pending();  // auto_start = false and never started: fail cleanly
}

void VerifierService::start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  lock.unlock();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void VerifierService::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool VerifierService::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void VerifierService::reject_pending() {
  std::deque<Pending> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphaned.swap(queue_);
  }
  for (auto& pending : orphaned) {
    VerdictResponse response;
    response.request_id = pending.request.id;
    response.outcome = Outcome::kRejected;
    rejected_.fetch_add(1, std::memory_order_relaxed);
    pending.promise.set_value(std::move(response));
  }
}

std::future<VerdictResponse> VerifierService::submit(VerificationRequest request) {
  received_.fetch_add(1, std::memory_order_relaxed);
  std::promise<VerdictResponse> promise;
  auto future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= config_.max_queue) {
      VerdictResponse response;
      response.request_id = request.id;
      response.outcome = Outcome::kRejected;
      rejected_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(std::move(response));
      return future;
    }
    queue_.push_back({std::move(request), std::move(promise), clock_->now_us()});
  }
  work_cv_.notify_one();
  return future;
}

wifi::VerdictReport VerifierService::fallback_report(
    const wifi::ScannedUpload& upload) const {
  wifi::VerdictReport report;
  report.threshold = 0.5;
  const auto violations =
      fallback_.check_points(upload.positions, config_.fallback.interval_s);
  // Per-point plausibility: 1 until a rule fires at that point.  Mirrors the
  // detector's point_scores semantics (higher = better supported) so callers
  // can localise the offending stretch on the degraded path too.
  report.point_scores.assign(upload.positions.size(), 1.0);
  std::size_t flagged = 0;
  for (const auto& v : violations) {
    if (v.point_index < report.point_scores.size() &&
        report.point_scores[v.point_index] > 0.0) {
      report.point_scores[v.point_index] = 0.0;
      ++flagged;
    }
  }
  report.p_real = upload.positions.empty()
                      ? 0.0
                      : 1.0 - static_cast<double>(flagged) /
                                  static_cast<double>(upload.positions.size());
  if (!violations.empty() && flagged == 0) report.p_real = 0.0;  // e.g. too_short
  report.verdict = violations.empty() ? 1 : 0;
  return report;
}

std::int64_t backoff_delay_us(const RetryPolicy& retry, std::uint64_t key,
                              std::size_t attempt) {
  double delay = static_cast<double>(retry.backoff_base_us);
  for (std::size_t i = 0; i < attempt; ++i) delay *= retry.backoff_multiplier;
  // Deterministic jitter in [0.5, 1.5): a pure function of (seed, key,
  // attempt), so retry timing never depends on scheduling.
  Rng jitter = Rng::substream(retry.jitter_seed ^ 0x626b6f66ull, key * 31 + attempt);
  delay *= jitter.uniform(0.5, 1.5);
  const auto cap = static_cast<double>(retry.backoff_cap_us);
  if (delay > cap) delay = cap;
  return static_cast<std::int64_t>(delay);
}

bool VerifierService::breaker_open() const {
  if (config_.breaker.failure_threshold == 0) return false;
  return clock_->now_us() <
         breaker_open_until_us_.load(std::memory_order_relaxed);
}

void VerifierService::breaker_record_success() {
  consecutive_failures_.store(0, std::memory_order_relaxed);
}

void VerifierService::breaker_record_failure() {
  if (config_.breaker.failure_threshold == 0) return;
  const std::uint64_t n =
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= config_.breaker.failure_threshold) {
    breaker_open_until_us_.store(clock_->now_us() + config_.breaker.cooldown_us,
                                 std::memory_order_relaxed);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    consecutive_failures_.store(0, std::memory_order_relaxed);
  }
}

void VerifierService::degrade(VerdictResponse& response,
                              const VerificationRequest& request,
                              std::string reason) {
  if (!config_.fallback.enabled) {
    response.outcome = Outcome::kError;
    response.error = std::move(reason);
    errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  response.outcome = Outcome::kDegraded;
  response.degraded_reason = std::move(reason);
  response.report = fallback_report(request.upload);
  degraded_.fetch_add(1, std::memory_order_relaxed);
}

VerdictResponse VerifierService::evaluate(const VerificationRequest& request,
                                          std::int64_t queue_us) {
  VerdictResponse response;
  response.request_id = request.id;
  response.queue_us = queue_us;
  if (request.deadline_us > 0 && queue_us > request.deadline_us) {
    response.outcome = Outcome::kTimedOut;
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }
  const std::int64_t t0 = clock_->now_us();
  // Uploads cross the trust boundary here: reject malformed input (NaN/Inf
  // coordinates, absurd RSSIs, oversized AP lists) before any pipeline —
  // detector or fallback — sees it.  Not retryable, so kError.
  if (auto valid = wifi::validate_upload(request.upload); !valid) {
    response.outcome = Outcome::kError;
    response.error = valid.error();
    errors_.fetch_add(1, std::memory_order_relaxed);
    response.compute_us = clock_->now_us() - t0;
    latency_.add_us(response.queue_us + response.compute_us);
    return response;
  }
  // One RCU snapshot per request: a concurrent hot-swap cannot change (or
  // destroy) the model mid-request — every attempt of this request, retries
  // included, evaluates on the epoch it started on.
  const std::shared_ptr<const wifi::RssiDetector> detector = detector_snapshot();
  if (!detector) {
    degrade(response, request, "detector_unavailable");
  } else if (breaker_open()) {
    degrade(response, request, "breaker_open");
  } else {
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        global_faults().check(kFaultDispatch, request.id, attempt);
        response.report = detector->analyze(request.upload);
        response.outcome = Outcome::kOk;
        completed_.fetch_add(1, std::memory_order_relaxed);
        breaker_record_success();
        break;
      } catch (const FaultError& e) {
        // Transient: injected faults and flaky-dependency errors.  Retry with
        // backoff up to the policy bound, then degrade.
        if (attempt < config_.retry.max_retries) {
          retries_.fetch_add(1, std::memory_order_relaxed);
          clock_->sleep_us(backoff_delay_us(config_.retry, request.id, attempt));
          continue;
        }
        breaker_record_failure();
        degrade(response, request, e.what());
        break;
      } catch (const std::exception& e) {
        // Caller error (length mismatch, untrained model): no retry can fix
        // the input, and falling back would mask a malformed request.
        response.outcome = Outcome::kError;
        response.error = e.what();
        errors_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  response.compute_us = clock_->now_us() - t0;
  latency_.add_us(response.queue_us + response.compute_us);
  return response;
}

void VerifierService::annotate_motion(
    const std::vector<const VerificationRequest*>& requests,
    std::vector<VerdictResponse>& responses) const {
  const MotionPolicy& policy = config_.motion;
  if (!policy.armed()) return;
  std::vector<std::size_t> ok_idx;
  std::vector<FeatureSequence> feats;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].outcome != Outcome::kOk) continue;
    const auto& positions = requests[i]->upload.positions;
    if (positions.size() < 2) continue;  // encoder needs one step
    ok_idx.push_back(i);
    feats.push_back(policy.encoder->encode(positions));
  }
  if (ok_idx.empty()) return;
  // One batched-kernel pass over the whole micro-batch; per-sequence bits do
  // not depend on the grouping, so batch composition stays out of the payload.
  // When the gated quantized lane is armed it takes the whole batch; the fp64
  // path below is both the default and the per-model fallback.
  std::vector<double> probs;
  if (policy.quant_armed()) {
    probs = policy.quant->predict_proba_batch(feats);
    motion_quant_batches_.fetch_add(1, std::memory_order_relaxed);
  } else {
    probs = policy.model->predict_proba_batch(feats);
  }
  for (std::size_t k = 0; k < ok_idx.size(); ++k) {
    responses[ok_idx[k]].motion_p_real = probs[k];
    responses[ok_idx[k]].has_motion_p_real = true;
  }
}

std::vector<VerdictResponse> VerifierService::run_batch(
    const std::vector<const VerificationRequest*>& requests,
    const std::vector<std::int64_t>& queue_us) {
  std::vector<VerdictResponse> responses(requests.size());
  if (requests.empty()) return responses;
  // Per-request fan-out through the deterministic pool; the per-point
  // parallelism inside analyze() serialises automatically (nested region).
  parallel_for(0, requests.size(), 1, [&](std::size_t i) {
    responses[i] = evaluate(*requests[i], queue_us.empty() ? 0 : queue_us[i]);
  });
  annotate_motion(requests, responses);
  batches_.fetch_add(1, std::memory_order_relaxed);
  return responses;
}

void VerifierService::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      const std::size_t n = std::min(queue_.size(), config_.max_batch);
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    const std::int64_t dispatch_us = clock_->now_us();
    std::vector<const VerificationRequest*> requests(batch.size());
    std::vector<std::int64_t> queue_us(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      requests[i] = &batch[i].request;
      queue_us[i] = dispatch_us - batch[i].enqueue_us;
    }
    auto responses = run_batch(requests, queue_us);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(responses[i]));
    }
  }
}

std::vector<VerdictResponse> VerifierService::verify_batch(
    const std::vector<VerificationRequest>& requests) {
  received_.fetch_add(requests.size(), std::memory_order_relaxed);
  std::vector<const VerificationRequest*> pointers(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) pointers[i] = &requests[i];
  return run_batch(pointers);
}

VerdictResponse VerifierService::verify_now(const wifi::ScannedUpload& upload) {
  received_.fetch_add(1, std::memory_order_relaxed);
  const VerificationRequest request{0, upload, 0};
  return std::move(run_batch({&request})[0]);
}

ServiceCounters VerifierService::counters() const {
  ServiceCounters c;
  c.received = received_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  c.timed_out = timed_out_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.batches = batches_.load(std::memory_order_relaxed);
  c.motion_quant_batches = motion_quant_batches_.load(std::memory_order_relaxed);
  c.retries = retries_.load(std::memory_order_relaxed);
  c.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  c.p50_us = latency_.p50_us();
  c.p95_us = latency_.p95_us();
  c.p99_us = latency_.p99_us();
  return c;
}

std::string VerifierService::counters_table() const {
  const ServiceCounters c = counters();
  TextTable table({"metric", "value"});
  table.add_row({"requests received", std::to_string(c.received)});
  table.add_row({"completed", std::to_string(c.completed)});
  table.add_row({"degraded (fallback)", std::to_string(c.degraded)});
  table.add_row({"rejected (admission)", std::to_string(c.rejected)});
  table.add_row({"timed out", std::to_string(c.timed_out)});
  table.add_row({"errors", std::to_string(c.errors)});
  table.add_row({"micro-batches", std::to_string(c.batches)});
  table.add_row({"motion quant batches", std::to_string(c.motion_quant_batches)});
  table.add_row({"retries", std::to_string(c.retries)});
  table.add_row({"breaker opens", std::to_string(c.breaker_opens)});
  table.add_row({"latency p50 (us)", TextTable::num(c.p50_us, 1)});
  table.add_row({"latency p95 (us)", TextTable::num(c.p95_us, 1)});
  table.add_row({"latency p99 (us)", TextTable::num(c.p99_us, 1)});
  return table.to_string();
}

}  // namespace trajkit::serve

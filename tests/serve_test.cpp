// Serving layer: VerifierService micro-batching, admission control,
// deadlines, model round-trips through the non-throwing loaders, and the
// partial-failure machinery — retry with deterministic backoff, the circuit
// breaker, and rule-based degradation.
//
// The detector fixture is the shared linear-field world from tests/support
// (field value = -40 - east dBm over a 30x30 m area; fakes shifted 15 m
// east).  Randomised failure schedules live in chaos_test; this file pins the
// per-feature semantics with hand-picked schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "baseline/rule_based.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "serve/service.hpp"
#include "support/fixtures.hpp"
#include "wifi/detector.hpp"

namespace trajkit::serve {
namespace {

namespace ts = test_support;

TEST(VerifierService, SyncBatchMatchesDetectorAnalyze) {
  ts::LinearFieldWorld w;
  const auto probes = w.probe_mix(8);
  // Reference verdicts straight off the detector, outside the service.
  std::vector<std::string> want;
  for (const auto& u : probes) want.push_back(w.detector().analyze(u).canonical_string());

  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  VerifierService service(w.detector(), cfg);
  std::vector<VerificationRequest> requests;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    requests.push_back({i, probes[i], 0});
  }
  const auto responses = service.verify_batch(requests);
  ASSERT_EQ(responses.size(), probes.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].request_id, i);
    ASSERT_EQ(responses[i].outcome, Outcome::kOk) << responses[i].error;
    EXPECT_EQ(responses[i].report.canonical_string(), want[i]);
  }
}

TEST(VerifierService, MotionSidecarAnnotatesOkResponses) {
  ts::LinearFieldWorld w;
  const auto probes = w.probe_mix(6);

  // The sidecar model's verdict must be a pure function of (model, upload):
  // reference probabilities straight off the classifier, one at a time.
  auto encoder = std::make_shared<DistAngleEncoder>();
  nn::LstmClassifierConfig mc;
  mc.hidden_dim = 8;
  auto model = std::make_shared<nn::LstmClassifier>(mc, 7);
  std::vector<double> want;
  for (const auto& u : probes) {
    want.push_back(model->predict_proba(encoder->encode(u.positions)));
  }

  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.motion.model = model;
  cfg.motion.encoder = encoder;
  VerifierService service(w.detector(), cfg);
  std::vector<VerificationRequest> requests;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    requests.push_back({i, probes[i], 0});
  }
  const auto responses = service.verify_batch(requests);
  ASSERT_EQ(responses.size(), probes.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].outcome, Outcome::kOk) << responses[i].error;
    ASSERT_TRUE(responses[i].has_motion_p_real);
    // Bitwise: the batched sidecar pass must match the per-sample call.
    EXPECT_EQ(responses[i].motion_p_real, want[i]) << "request " << i;
    EXPECT_NE(responses[i].canonical_string().find("motion_p_real="),
              std::string::npos);
  }

  // The sync single-upload path goes through the same annotation.
  const auto single = service.verify_now(probes[0]);
  ASSERT_EQ(single.outcome, Outcome::kOk);
  ASSERT_TRUE(single.has_motion_p_real);
  EXPECT_EQ(single.motion_p_real, want[0]);
}

TEST(VerifierService, MotionSidecarAbsentWhenUnarmed) {
  ts::LinearFieldWorld w;
  const auto upload = w.probe_mix(1)[0];
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  VerifierService service(w.detector(), cfg);  // no motion policy
  const auto response = service.verify_now(upload);
  ASSERT_EQ(response.outcome, Outcome::kOk) << response.error;
  EXPECT_FALSE(response.has_motion_p_real);
  EXPECT_EQ(response.canonical_string().find("motion_p_real="), std::string::npos);
}

TEST(VerifierService, SubmitResolvesFuturesViaDispatcher) {
  ts::LinearFieldWorld w;
  const auto probes = w.probe_mix(6);
  std::vector<std::string> want;
  for (const auto& u : probes) want.push_back(w.detector().analyze(u).canonical_string());

  VerifierServiceConfig cfg;
  cfg.max_batch = 2;  // force several micro-batches
  VerifierService service(w.detector(), cfg);
  EXPECT_TRUE(service.running());
  std::vector<std::future<VerdictResponse>> futures;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    futures.push_back(service.submit({i, probes[i], 0}));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto response = futures[i].get();
    EXPECT_EQ(response.request_id, i);
    ASSERT_EQ(response.outcome, Outcome::kOk) << response.error;
    EXPECT_EQ(response.report.canonical_string(), want[i]);
    EXPECT_GE(response.compute_us, 0);
  }
  service.stop();
  EXPECT_FALSE(service.running());
  const auto c = service.counters();
  EXPECT_EQ(c.received, probes.size());
  EXPECT_EQ(c.completed, probes.size());
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_GE(c.batches, (probes.size() + cfg.max_batch - 1) / cfg.max_batch);
}

TEST(VerifierService, AdmissionRejectsBeyondQueueLimit) {
  ts::LinearFieldWorld w;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;  // nothing drains until start()
  cfg.max_queue = 2;
  VerifierService service(w.detector(), cfg);

  auto f1 = service.submit({1, w.upload(true), 0});
  auto f2 = service.submit({2, w.upload(true), 0});
  auto f3 = service.submit({3, w.upload(true), 0});
  // The third future must already be resolved — rejected at admission.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().outcome, Outcome::kRejected);

  service.start();
  EXPECT_EQ(f1.get().outcome, Outcome::kOk);
  EXPECT_EQ(f2.get().outcome, Outcome::kOk);
  const auto c = service.counters();
  EXPECT_EQ(c.received, 3u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.rejected, 1u);
}

TEST(VerifierService, ExpiredDeadlinesTimeOutWithoutEvaluation) {
  ts::LinearFieldWorld w;
  ManualClock clock;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  VerifierService service(w.detector(), cfg, &clock);

  auto stale = service.submit({1, w.upload(true), /*deadline_us=*/100});
  auto fresh = service.submit({2, w.upload(true), /*deadline_us=*/0});
  clock.advance_us(1000);  // the stale request's queueing budget expires
  service.start();
  const auto stale_response = stale.get();
  EXPECT_EQ(stale_response.outcome, Outcome::kTimedOut);
  EXPECT_GE(stale_response.queue_us, 1000);
  EXPECT_EQ(fresh.get().outcome, Outcome::kOk);
  const auto c = service.counters();
  EXPECT_EQ(c.timed_out, 1u);
  EXPECT_EQ(c.completed, 1u);
}

TEST(VerifierService, MalformedUploadComesBackAsError) {
  ts::LinearFieldWorld w;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  VerifierService service(w.detector(), cfg);

  wifi::ScannedUpload wrong_length;  // trained on 6 points, send 2
  wrong_length.positions = {{5, 5}, {6, 5}};
  wrong_length.scans = {{{1, -45}}, {{1, -46}}};
  const auto response = service.verify_now(wrong_length);
  EXPECT_EQ(response.outcome, Outcome::kError);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.counters().errors, 1u);
}

TEST(VerifierService, DestructionRejectsUndrainedRequests) {
  ts::LinearFieldWorld w;
  std::future<VerdictResponse> orphan;
  {
    VerifierServiceConfig cfg;
    cfg.auto_start = false;
    VerifierService service(w.detector(), cfg);
    orphan = service.submit({9, w.upload(true), 0});
  }
  ASSERT_EQ(orphan.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(orphan.get().outcome, Outcome::kRejected);
}

TEST(VerifierService, SaveTryLoadServeRoundTrip) {
  ts::LinearFieldWorld w;
  const auto probes = w.probe_mix(6);
  std::vector<std::string> want;
  for (const auto& u : probes) want.push_back(w.detector().analyze(u).canonical_string());

  const char* path = "serve_test_model.tmp";
  w.detector().save_file(path);
  auto service_or = VerifierService::try_create_from_file(path);
  std::remove(path);
  ASSERT_TRUE(service_or.has_value()) << service_or.error();
  const auto service = std::move(service_or).value();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto response = service->verify_now(probes[i]);
    ASSERT_EQ(response.outcome, Outcome::kOk) << response.error;
    EXPECT_EQ(response.report.canonical_string(), want[i])
        << "upload " << i << " diverged after save -> try_load -> serve";
  }
}

TEST(VerifierService, TryCreateFromMissingFileReportsError) {
  auto service_or = VerifierService::try_create_from_file("no-such-model.tmp");
  ASSERT_FALSE(service_or.has_value());
  EXPECT_NE(service_or.error().find("cannot open"), std::string::npos)
      << service_or.error();
}

TEST(VerifierService, CountersTableListsCacheAndLatency) {
  ts::LinearFieldWorld w;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  VerifierService service(w.detector(), cfg);
  (void)service.verify_now(w.upload(true));
  const std::string table = service.counters_table();
  for (const char* row : {"requests received", "completed", "micro-batches",
                          "degraded (fallback)", "retries", "breaker opens",
                          "latency p50 (us)"}) {
    EXPECT_NE(table.find(row), std::string::npos) << "missing row: " << row;
  }
}

// ---------------------------------------------------------------------------
// Partial failure: retry, degradation, circuit breaker, degraded start.

TEST(VerifierService, RetryRecoversTransientFaultsAtConfiguredAttempt) {
  ts::LinearFieldWorld w;
  const auto probe = w.upload(true);
  const std::string want = w.detector().analyze(probe).canonical_string();

  ManualClock clock;  // backoff advances the clock instead of sleeping
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.retry.max_retries = 2;
  VerifierService service(w.detector(), cfg, &clock);

  FaultScope faults(1);
  faults.arm(kFaultDispatch, {.fail_first = 2});  // attempts 0,1 fail; 2 works
  const auto response = service.verify_now(probe);
  ASSERT_EQ(response.outcome, Outcome::kOk) << response.degraded_reason;
  EXPECT_EQ(response.report.canonical_string(), want)
      << "a retried evaluation must produce the same payload as a clean one";
  const auto c = service.counters();
  EXPECT_EQ(c.retries, 2u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.degraded, 0u);
  EXPECT_GT(clock.now_us(), 0) << "backoff should have consumed manual time";
}

TEST(VerifierService, ExhaustedRetriesDegradeToRuleBasedFallback) {
  ts::LinearFieldWorld w;
  const auto probe = w.upload(true);

  ManualClock clock;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.retry.max_retries = 1;
  VerifierService service(w.detector(), cfg, &clock);

  FaultScope faults(1);
  faults.arm(kFaultDispatch, {.fail_first = 5});  // outlives max_retries
  const auto response = service.verify_now(probe);
  ASSERT_EQ(response.outcome, Outcome::kDegraded);
  EXPECT_NE(response.degraded_reason.find(kFaultDispatch), std::string::npos)
      << response.degraded_reason;
  // The fallback verdict is the rule-based checker's, over claimed positions.
  const auto fallback = baseline::RuleBasedDetector::for_mode(Mode::kWalking);
  EXPECT_EQ(response.report.verdict,
            fallback.verify_points(probe.positions, cfg.fallback.interval_s));
  EXPECT_EQ(response.report.point_scores.size(), probe.positions.size());
  const auto c = service.counters();
  EXPECT_EQ(c.degraded, 1u);
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.completed, 0u);
}

TEST(VerifierService, FallbackCatchesTeleportingUploads) {
  ts::LinearFieldWorld w;
  wifi::ScannedUpload teleport;  // 6 points, one impossible 500 m jump
  for (int j = 0; j < 6; ++j) {
    const double east = j == 3 ? 500.0 : j * 1.0;
    teleport.positions.push_back({east, 0.0});
    // Clamp the scan into physical range: the forgery lives in the claimed
    // positions, and an unclamped field value at 500 m east (-540 dBm) would
    // be rejected by input validation before the fallback ever ran.
    const int rssi =
        std::max(ts::LinearFieldWorld::field_rssi({east, 0.0}), -100);
    teleport.scans.push_back({{1, rssi}});
  }

  ManualClock clock;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.retry.max_retries = 0;
  VerifierService service(w.detector(), cfg, &clock);
  FaultScope faults(1);
  faults.arm(kFaultDispatch, {.probability = 1.0});
  const auto response = service.verify_now(teleport);
  ASSERT_EQ(response.outcome, Outcome::kDegraded);
  EXPECT_EQ(response.report.verdict, 0) << "rule checker must flag the jump";
  EXPECT_LT(response.report.p_real, 1.0);
}

TEST(VerifierService, DisabledFallbackTurnsExhaustionIntoError) {
  ts::LinearFieldWorld w;
  ManualClock clock;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.retry.max_retries = 0;
  cfg.fallback.enabled = false;
  VerifierService service(w.detector(), cfg, &clock);
  FaultScope faults(1);
  faults.arm(kFaultDispatch, {.probability = 1.0});
  const auto response = service.verify_now(w.upload(true));
  EXPECT_EQ(response.outcome, Outcome::kError);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.counters().errors, 1u);
}

TEST(VerifierService, BackoffDelaysGrowAndStayDeterministic) {
  ts::LinearFieldWorld w;
  auto total_backoff = [&](std::uint64_t jitter_seed) {
    ManualClock clock;
    VerifierServiceConfig cfg;
    cfg.auto_start = false;
    cfg.retry.max_retries = 3;
    cfg.retry.jitter_seed = jitter_seed;
    VerifierService service(w.detector(), cfg, &clock);
    FaultScope faults(1);
    faults.arm(kFaultDispatch, {.fail_first = 3});
    (void)service.verify_now(w.upload(true));
    return clock.now_us();
  };
  const auto a = total_backoff(0);
  // Identical schedule replays to the microsecond; a different jitter seed
  // lands elsewhere in the [0.5, 1.5) band.  (The upload contents differ per
  // call — delays depend only on request id and jitter seed, by design.)
  EXPECT_EQ(a, total_backoff(0));
  EXPECT_NE(a, total_backoff(99));
  // Three delays at base 50 us, multiplier 2, jitter in [0.5, 1.5):
  // bounded by [0.5, 1.5) * (50 + 100 + 200).
  EXPECT_GE(a, 175);
  EXPECT_LT(a, 525);
}

TEST(VerifierService, BreakerOpensShedsLoadAndRecovers) {
  ts::LinearFieldWorld w;
  ManualClock clock;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.retry.max_retries = 0;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_us = 1000;
  VerifierService service(w.detector(), cfg, &clock);

  const auto probe = w.upload(true);
  {
    FaultScope faults(1);
    faults.arm(kFaultDispatch, {.probability = 1.0});
    // Two exhausted evaluations trip the breaker...
    EXPECT_EQ(service.verify_now(probe).outcome, Outcome::kDegraded);
    EXPECT_FALSE(service.breaker_open());
    EXPECT_EQ(service.verify_now(probe).outcome, Outcome::kDegraded);
    EXPECT_TRUE(service.breaker_open());
    // ...after which requests degrade without touching the detector.
    const auto shed = service.verify_now(probe);
    EXPECT_EQ(shed.outcome, Outcome::kDegraded);
    EXPECT_EQ(shed.degraded_reason, "breaker_open");
  }
  // Faults cleared but the breaker still cooling down: still shedding.
  EXPECT_EQ(service.verify_now(probe).degraded_reason, "breaker_open");
  clock.advance_us(cfg.breaker.cooldown_us + 1);
  EXPECT_FALSE(service.breaker_open());
  EXPECT_EQ(service.verify_now(probe).outcome, Outcome::kOk);
  const auto c = service.counters();
  EXPECT_EQ(c.breaker_opens, 1u);
  EXPECT_EQ(c.degraded, 4u);
  EXPECT_EQ(c.completed, 1u);
}

TEST(VerifierService, DegradedStartServesWithoutADetector) {
  // The model file cannot load (injected), but degraded start is allowed:
  // the service comes up detector-less and answers through the fallback.
  ts::LinearFieldWorld w;
  const char* path = "serve_test_degraded_model.tmp";
  w.detector().save_file(path);

  VerifierServiceConfig cfg;
  cfg.fallback.allow_degraded_start = true;
  std::unique_ptr<VerifierService> service;
  {
    FaultScope faults(1);
    faults.arm(wifi::kFaultDetectorLoad, {.probability = 1.0});
    auto service_or = VerifierService::try_create_from_file(path, cfg);
    ASSERT_TRUE(service_or.has_value()) << service_or.error();
    service = std::move(service_or).value();
  }
  std::remove(path);
  EXPECT_FALSE(service->has_detector());

  const auto probes = w.probe_mix(4);
  std::vector<std::future<VerdictResponse>> futures;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    futures.push_back(service->submit({i, probes[i], 0}));
  }
  for (auto& future : futures) {
    const auto response = future.get();
    EXPECT_EQ(response.outcome, Outcome::kDegraded);
    EXPECT_EQ(response.degraded_reason, "detector_unavailable");
  }
  const auto c = service->counters();
  EXPECT_EQ(c.degraded, probes.size());
  EXPECT_EQ(c.completed, 0u);
}

TEST(VerifierService, DegradedStartStillRefusedWhenDisallowed) {
  ts::LinearFieldWorld w;
  const char* path = "serve_test_refused_model.tmp";
  w.detector().save_file(path);
  {
    FaultScope faults(1);
    faults.arm(wifi::kFaultDetectorLoad, {.probability = 1.0});
    const auto service_or = VerifierService::try_create_from_file(path);
    EXPECT_FALSE(service_or.has_value());
  }
  std::remove(path);
}

TEST(DetectorIo, SaveFaultSurfacesAsFaultError) {
  ts::LinearFieldWorld w;
  FaultScope faults(1);
  faults.arm(wifi::kFaultDetectorSave, {.probability = 1.0});
  EXPECT_THROW(w.detector().save_file("serve_test_unwritten.tmp"), FaultError);
}

TEST(VerifierService, PoisonedRpdCountDegradesInsteadOfCrashing) {
  ts::LinearFieldWorld w;
  ManualClock clock;
  VerifierServiceConfig cfg;
  cfg.auto_start = false;
  cfg.retry.max_retries = 1;
  VerifierService service(w.detector(), cfg, &clock);
  FaultScope faults(1);
  faults.arm(wifi::kFaultRpdCount, {.probability = 1.0});  // every reference poisoned
  const auto response = service.verify_now(w.upload(true));
  ASSERT_EQ(response.outcome, Outcome::kDegraded);
  EXPECT_NE(response.degraded_reason.find(wifi::kFaultRpdCount), std::string::npos)
      << response.degraded_reason;
}

TEST(VerifierService, RejectsNullAndMisconfigured) {
  ts::LinearFieldWorld w;
  EXPECT_THROW(VerifierService(std::unique_ptr<wifi::RssiDetector>(), {}),
               std::invalid_argument);
  VerifierServiceConfig zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(VerifierService(w.detector(), zero_batch), std::invalid_argument);
}

}  // namespace
}  // namespace trajkit::serve

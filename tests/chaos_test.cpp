// Chaos harness: randomized fault schedules driven through the full
// submit -> dispatch -> verify -> respond path.
//
// The properties under test are the serving layer's partial-failure contract:
//
//   1. No dropped or hung responses — every submitted future resolves, and
//      resolves to kOk or kDegraded (never an error, never abandoned), no
//      matter which fault points fire.
//   2. Determinism under chaos — with the breaker off, a (seed, schedule)
//      pair produces byte-identical canonical payloads for --threads 1, 2
//      and 4 and for any submission order, degraded verdicts included.
//      Reproducing a chaos failure is therefore just re-running with the
//      printed seed.
//   3. Degraded start — an unloadable model (injected at the load fault
//      point) still yields a service that answers every request.
//
// The world is the shared scenario-backed fixture (tests/support); per-test
// schedules are armed through FaultScope so nothing leaks across tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "serve/service.hpp"
#include "support/fixtures.hpp"
#include "wifi/detector.hpp"

namespace trajkit::serve {
namespace {

namespace ts = test_support;

class Chaos : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_global_threads(1);  // build the world identically regardless of pool
    world_ = new ts::ScenarioServiceWorld();
    set_global_threads(0);
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static ts::ScenarioServiceWorld* world_;
};

ts::ScenarioServiceWorld* Chaos::world_ = nullptr;

/// Run every probe through a freshly-armed service and return the
/// canonical payloads joined in request-id order.
std::string run_schedule(ts::ScenarioServiceWorld& world, std::uint64_t seed,
                         const std::vector<std::size_t>& order,
                         std::size_t threads) {
  set_global_threads(threads);
  FaultScope faults(seed);
  faults.arm(kFaultDispatch, {.probability = 0.4});
  faults.arm(wifi::kFaultRpdCount, {.probability = 0.02});

  ManualClock clock;  // backoff advances virtual time; the test never sleeps
  VerifierServiceConfig cfg;
  cfg.max_batch = 2;  // several micro-batches per run
  cfg.retry.max_retries = 1;
  VerifierService service(*world.detector, cfg, &clock);

  std::vector<std::future<VerdictResponse>> futures(order.size());
  for (const std::size_t idx : order) {
    futures[idx] = service.submit({idx, world.probes[idx], 0});
  }
  std::string all;
  for (auto& future : futures) {
    all += future.get().canonical_string();
    all += '\n';
  }
  set_global_threads(0);
  return all;
}

TEST_F(Chaos, FaultScheduleIsThreadAndOrderInvariant) {
  const std::uint64_t seed = 20220707;  // the paper's venue, ICDCS'22
  std::vector<std::size_t> forward(world_->probes.size());
  for (std::size_t i = 0; i < forward.size(); ++i) forward[i] = i;
  std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());
  std::vector<std::size_t> shuffled = forward;
  Rng(99).shuffle(shuffled);

  const std::string reference = run_schedule(*world_, seed, forward, 1);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " reference:\n" + reference);
  // The schedule must actually exercise both paths, or the test is vacuous.
  ASSERT_NE(reference.find("outcome=ok"), std::string::npos);
  ASSERT_NE(reference.find("outcome=degraded"), std::string::npos);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const auto& order : {forward, reversed, shuffled}) {
      EXPECT_EQ(run_schedule(*world_, seed, order, threads), reference)
          << "threads=" << threads;
    }
  }
}

TEST_F(Chaos, DifferentSeedsProduceDifferentSchedules) {
  std::vector<std::size_t> forward(world_->probes.size());
  for (std::size_t i = 0; i < forward.size(); ++i) forward[i] = i;
  // Sanity: the fault schedule actually depends on the seed (otherwise the
  // invariance test above could pass by never injecting anything).
  const auto a = run_schedule(*world_, 1, forward, 1);
  const auto b = run_schedule(*world_, 2, forward, 1);
  const auto c = run_schedule(*world_, 3, forward, 1);
  EXPECT_TRUE(a != b || b != c) << "three seeds, one schedule?";
}

TEST_F(Chaos, NoDroppedResponsesAcrossRandomSchedules) {
  // Several seeds, several requests per probe, threads = 4, tiny batches:
  // every future must resolve to kOk or kDegraded, and the counters must
  // account for every single request.
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    set_global_threads(4);
    FaultScope faults(seed);
    faults.arm(kFaultDispatch, {.probability = 0.5});
    faults.arm(wifi::kFaultRpdCount, {.probability = 0.05});

    ManualClock clock;
    VerifierServiceConfig cfg;
    cfg.max_batch = 3;
    cfg.retry.max_retries = 2;
    VerifierService service(*world_->detector, cfg, &clock);

    const std::size_t n = world_->probes.size() * 4;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    Rng(seed).shuffle(order);

    std::vector<std::future<VerdictResponse>> futures(n);
    for (const std::size_t id : order) {
      futures[id] = service.submit({id, world_->probes[id % world_->probes.size()], 0});
    }
    std::size_t ok = 0;
    std::size_t degraded = 0;
    for (std::size_t id = 0; id < n; ++id) {
      const auto response = futures[id].get();  // resolves — or the test hangs
      EXPECT_EQ(response.request_id, id);
      ASSERT_TRUE(response.outcome == Outcome::kOk ||
                  response.outcome == Outcome::kDegraded)
          << "seed " << seed << " request " << id << ": "
          << outcome_name(response.outcome) << " " << response.error;
      (response.outcome == Outcome::kOk ? ok : degraded)++;
    }
    service.stop();
    const auto c = service.counters();
    EXPECT_EQ(c.received, n) << "seed " << seed;
    EXPECT_EQ(c.completed, ok) << "seed " << seed;
    EXPECT_EQ(c.degraded, degraded) << "seed " << seed;
    EXPECT_EQ(c.completed + c.degraded, n) << "seed " << seed;
    EXPECT_EQ(c.errors, 0u) << "seed " << seed;
    set_global_threads(0);
  }
}

TEST_F(Chaos, BreakerShedsLoadUnderSustainedFaults) {
  // With the breaker armed and the dispatch path failing persistently, the
  // service must still answer everything (degraded) and record the trip.
  set_global_threads(2);
  FaultScope faults(5);
  faults.arm(kFaultDispatch, {.probability = 1.0});

  ManualClock clock;
  VerifierServiceConfig cfg;
  cfg.max_batch = 2;
  cfg.retry.max_retries = 0;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.cooldown_us = 1000000;
  VerifierService service(*world_->detector, cfg, &clock);

  std::vector<std::future<VerdictResponse>> futures;
  for (std::size_t i = 0; i < 12; ++i) {
    futures.push_back(service.submit({i, world_->probes[i % world_->probes.size()], 0}));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().outcome, Outcome::kDegraded);
  }
  service.stop();
  const auto c = service.counters();
  EXPECT_EQ(c.degraded, 12u);
  EXPECT_GE(c.breaker_opens, 1u);
  EXPECT_TRUE(service.breaker_open());
  set_global_threads(0);
}

TEST_F(Chaos, UnloadableModelStillAnswersEverything) {
  // The acceptance shape: the model file is unloadable (injected at the load
  // fault point), yet a degraded-start service answers every request through
  // the rule-based fallback — zero dropped, zero hung — and says so in the
  // counters.
  const char* path = "chaos_test_model.tmp";
  world_->detector->save_file(path);

  VerifierServiceConfig cfg;
  cfg.max_batch = 2;
  cfg.fallback.allow_degraded_start = true;
  std::unique_ptr<VerifierService> service;
  {
    FaultScope faults(7);
    faults.arm(wifi::kFaultDetectorLoad, {.probability = 1.0});
    auto service_or = VerifierService::try_create_from_file(path, cfg);
    ASSERT_TRUE(service_or.has_value()) << service_or.error();
    service = std::move(service_or).value();
  }
  std::remove(path);
  ASSERT_FALSE(service->has_detector());

  const std::size_t n = world_->probes.size() * 3;
  std::vector<std::future<VerdictResponse>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(
        service->submit({i, world_->probes[i % world_->probes.size()], 0}));
  }
  for (auto& future : futures) {
    const auto response = future.get();
    EXPECT_EQ(response.outcome, Outcome::kDegraded);
    EXPECT_EQ(response.degraded_reason, "detector_unavailable");
    EXPECT_EQ(response.report.point_scores.size(),
              world_->probes.front().positions.size());
  }
  service->stop();
  const auto c = service->counters();
  EXPECT_EQ(c.received, n);
  EXPECT_EQ(c.degraded, n);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_EQ(c.errors, 0u);
}

TEST_F(Chaos, DegradedStartPayloadsAreThreadInvariantToo) {
  // Even the pure-fallback path obeys the determinism contract.
  auto run = [&](std::size_t threads) {
    set_global_threads(threads);
    VerifierServiceConfig cfg;
    cfg.max_batch = 2;
    cfg.fallback.allow_degraded_start = true;
    FaultScope faults(7);
    faults.arm(wifi::kFaultDetectorLoad, {.probability = 1.0});
    const char* path = "chaos_test_model_inv.tmp";
    world_->detector->save_file(path);
    auto service_or = VerifierService::try_create_from_file(path, cfg);
    std::remove(path);
    std::string all;
    if (!service_or.has_value()) return all;
    auto service = std::move(service_or).value();
    std::vector<std::future<VerdictResponse>> futures;
    for (std::size_t i = 0; i < world_->probes.size(); ++i) {
      futures.push_back(service->submit({i, world_->probes[i], 0}));
    }
    for (auto& future : futures) {
      all += future.get().canonical_string();
      all += '\n';
    }
    set_global_threads(0);
    return all;
  };
  const auto reference = run(1);
  ASSERT_NE(reference.find("outcome=degraded"), std::string::npos);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(4), reference);
}

}  // namespace
}  // namespace trajkit::serve

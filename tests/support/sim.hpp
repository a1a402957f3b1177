// Deterministic simulated network: chaos schedules that replay bit-identically.
//
// SimNet is an in-process Transport whose fault decisions — drop, delay,
// reorder, duplicate, and the fail_first deterministic prefix — are pure
// functions of (seed, endpoint, leg, key, attempt) through the same
// counter-based Rng::substream machinery as common/fault's injector.  Two
// calls with the same logical identity draw the same fate no matter which
// thread issues them or in what order, so a chaos schedule that breaks a
// shard protocol under `--threads 4` reproduces under `--threads 1` from the
// seed alone (tests/net_test.cpp, NetDeterminism).
//
// SimNet is test infrastructure: it lives in test_support, not the shipping
// library.  The Transport interface it implements stays in src/net.
//
// Time is virtual and per-call: a delay draw does not sleep, it accrues
// against the call's deadline_us, and a delivery pushed past the deadline is
// reported kTimeout to the caller *after the handler ran* — exactly the
// "late ack lost" shape real networks produce, and the one that flushes out
// protocols which are not idempotent under retry.
//
// Fault anatomy per call (each leg decided by its own substream):
//   request leg   drop      request vanishes -> kTimeout, handler never runs
//                 reorder   request parked; delivered immediately BEFORE the
//                           next request to that endpoint (out-of-order,
//                           counted late) -> kTimeout for the parked call
//                 duplicate handler runs twice with the same payload (retry
//                           storm / network dup); first response is used
//                 delay     virtual elapsed += draw; past-deadline delivery
//                           still runs the handler, response discarded
//   response leg  drop      handler ran, ack lost -> kTimeout
//                 delay     handler ran; past-deadline response discarded
//   partitions    one-way (inbound: requests die; outbound: responses die)
//                 or full, per endpoint, via partition()/heal() — these model
//                 operator-visible network splits, so they are explicit
//                 state, not probability draws.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "net/transport.hpp"

namespace trajkit::net {

/// Probabilistic fault schedule for one leg (request or response) of one
/// endpoint.  All probabilities are independent per-call draws from the
/// call's substream; fail_first unconditionally drops attempts
/// [0, fail_first) of every key, the deterministic warm-up common/fault's
/// FaultSpec uses to exercise bounded retry exactly N times.
struct SimFaultSpec {
  double drop = 0.0;
  double duplicate = 0.0;  ///< request leg only; ignored on responses
  double reorder = 0.0;    ///< request leg only; ignored on responses
  double delay = 0.0;      ///< probability of drawing a delay at all
  std::int64_t delay_min_us = 0;
  std::int64_t delay_max_us = 0;
  std::uint64_t fail_first = 0;

  bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay > 0 ||
           fail_first > 0;
  }
};

/// Aggregate event counters (totals are schedule-determined; see stats()).
struct SimNetStats {
  std::uint64_t calls = 0;
  std::uint64_t delivered = 0;      ///< handler invocations (incl. dup/late)
  std::uint64_t dropped = 0;        ///< request- or response-leg drops
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;      ///< requests parked for out-of-order delivery
  std::uint64_t late = 0;           ///< deliveries past the caller's deadline
  std::uint64_t partition_drops = 0;
  std::uint64_t unreachable = 0;
};

class SimNet final : public Transport {
 public:
  enum class Partition {
    kNone,
    kInbound,   ///< requests to the endpoint die; its responses would flow
    kOutbound,  ///< requests arrive, responses die (the "acks lost" split)
    kFull,
  };

  explicit SimNet(std::uint64_t seed) : seed_(seed) {}

  /// Register / replace the handler for an endpoint.
  void bind(const std::string& endpoint, Handler handler);
  /// Simulate a dead process: calls return kUnreachable (not kTimeout, so
  /// callers can distinguish refused from lost).
  void unbind(const std::string& endpoint);

  /// Install a fault schedule on an endpoint's request and response legs.
  void set_faults(const std::string& endpoint, const SimFaultSpec& request_leg,
                  const SimFaultSpec& response_leg = {});
  void clear_faults();

  void partition(const std::string& endpoint, Partition mode);
  void heal(const std::string& endpoint);
  void heal_all();

  SimNetStats stats() const;
  std::uint64_t seed() const { return seed_; }

  CallResult call(const std::string& endpoint, std::string_view request,
                  const CallOptions& opts) override;

 private:
  struct Endpoint {
    Handler handler;
    SimFaultSpec request_faults;
    SimFaultSpec response_faults;
    Partition partition = Partition::kNone;
    /// Parked (reordered) request, delivered before the next one in.
    bool has_parked = false;
    std::string parked_request;
  };

  std::uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, Endpoint> endpoints_;

  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> late_{0};
  std::atomic<std::uint64_t> partition_drops_{0};
  std::atomic<std::uint64_t> unreachable_{0};
};

}  // namespace trajkit::net

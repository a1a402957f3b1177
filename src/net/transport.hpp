// Message transport abstraction for cross-process shards.
//
// This interface is the seam that lets the shard protocol run over a real
// Unix-domain-socket transport (net/uds) between processes, or over the
// deterministic simulated network the tests carry (tests/support/sim.hpp)
// whose drop/delay/reorder/duplicate/partition schedules replay
// bit-identically across `--threads N`.
//
// The contract is deliberately minimal — one synchronous request/response
// exchange per call — because everything the shard plane needs on top
// (retries with deterministic jitter, hedged reads, heartbeats, gap repair)
// composes from that primitive in serve/net_shard without the transport
// knowing about WAL seqs or segments.
//
// Timeout semantics: kTimeout means "no response within the deadline", which
// says NOTHING about whether the request was delivered — the handler may
// have run and the response been lost.  Callers must only retry idempotent
// requests; the shard protocol makes every RPC idempotent (seq-disciplined
// applies, read-only heartbeats/segments), which tests/net_test.cpp proves by
// injecting duplicates and response-leg drops at every shipping point.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace trajkit::net {

enum class CallStatus {
  kOk,           ///< response payload delivered
  kTimeout,      ///< no response within the deadline (request MAY have run)
  kUnreachable,  ///< endpoint unknown / connection refused
  kError,        ///< transport-level failure (framing, I/O)
};

const char* call_status_name(CallStatus status);

/// Per-call options.  `key`/`attempt` are the call's *logical* identity —
/// e.g. a WAL seq and the caller's retry ordinal, never an arrival ordinal —
/// which is what makes SimNet's fault decisions pure functions of the
/// workload instead of the thread schedule.
struct CallOptions {
  std::int64_t deadline_us = 50'000;
  std::uint64_t key = 0;
  std::uint64_t attempt = 0;
};

struct CallResult {
  CallStatus status = CallStatus::kError;
  /// Response payload (kOk) or a transport error description.
  std::string payload;

  bool ok() const { return status == CallStatus::kOk; }
  /// The request may have been lost in either direction — an idempotent
  /// protocol may safely resend.  kError (malformed frame, protocol bug) is
  /// not retryable: resending the same bytes reproduces it.
  bool retryable() const {
    return status == CallStatus::kTimeout || status == CallStatus::kUnreachable;
  }
};

/// Server side of an endpoint: request payload in, response payload out.
/// Application-level failures travel inside the response payload (the RPC
/// codec's error responses); a throwing handler is a transport error.
using Handler = std::function<std::string(const std::string& request)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// One request/response exchange with `endpoint` (a SimNet endpoint name
  /// or a UDS socket path).  Never throws; failures come back as status.
  virtual CallResult call(const std::string& endpoint, std::string_view request,
                          const CallOptions& opts) = 0;
};

}  // namespace trajkit::net

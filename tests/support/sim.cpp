#include "support/sim.hpp"

#include "common/rng.hpp"

namespace trajkit::net {
namespace {

// FNV-1a over the endpoint name, folding the leg salt in: each (endpoint,
// leg) pair owns an independent decision stream.
std::uint64_t endpoint_hash(const std::string& endpoint, std::uint64_t salt) {
  std::uint64_t h = 1469598103934665603ull ^ salt;
  for (const char c : endpoint) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kRequestLeg = 0x72657175657374ull;   // "request"
constexpr std::uint64_t kResponseLeg = 0x726573706f6e73ull;  // "respons"
// Same key/attempt mix as common/fault.cpp, so a shipping fault schedule and
// a network fault schedule keyed by the same WAL seq stay independent but
// equally replayable.
constexpr std::uint64_t kKeyMix = 0x100000001b3ull;

struct LegFate {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  std::int64_t delay_us = 0;
};

// The leg's fate is a pure function of (seed, endpoint, leg, key, attempt):
// one substream, draws in a fixed order regardless of which are enabled, so
// adding a fault kind to a schedule never re-deals the others' outcomes.
LegFate decide(std::uint64_t seed, const std::string& endpoint,
               std::uint64_t leg, const SimFaultSpec& spec,
               const CallOptions& opts) {
  LegFate fate;
  if (!spec.any()) return fate;
  if (opts.attempt < spec.fail_first) {
    fate.drop = true;
    return fate;
  }
  Rng r = Rng::substream(seed ^ endpoint_hash(endpoint, leg),
                         opts.key * kKeyMix + opts.attempt);
  const double u_drop = r.uniform();
  const double u_dup = r.uniform();
  const double u_reorder = r.uniform();
  const double u_delay = r.uniform();
  const std::int64_t amount =
      spec.delay_max_us > spec.delay_min_us
          ? r.uniform_int(spec.delay_min_us, spec.delay_max_us)
          : spec.delay_min_us;
  fate.drop = u_drop < spec.drop;
  fate.duplicate = u_dup < spec.duplicate;
  fate.reorder = u_reorder < spec.reorder;
  if (u_delay < spec.delay) fate.delay_us = amount;
  return fate;
}

}  // namespace

const char* call_status_name(CallStatus status) {
  switch (status) {
    case CallStatus::kOk: return "ok";
    case CallStatus::kTimeout: return "timeout";
    case CallStatus::kUnreachable: return "unreachable";
    case CallStatus::kError: return "error";
  }
  return "?";
}

void SimNet::bind(const std::string& endpoint, Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[endpoint].handler = std::move(handler);
}

void SimNet::unbind(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(endpoint);
  if (it != endpoints_.end()) it->second.handler = nullptr;
}

void SimNet::set_faults(const std::string& endpoint,
                        const SimFaultSpec& request_leg,
                        const SimFaultSpec& response_leg) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& ep = endpoints_[endpoint];
  ep.request_faults = request_leg;
  ep.response_faults = response_leg;
}

void SimNet::clear_faults() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, ep] : endpoints_) {
    ep.request_faults = {};
    ep.response_faults = {};
  }
}

void SimNet::partition(const std::string& endpoint, Partition mode) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[endpoint].partition = mode;
}

void SimNet::heal(const std::string& endpoint) {
  partition(endpoint, Partition::kNone);
}

void SimNet::heal_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, ep] : endpoints_) ep.partition = Partition::kNone;
}

SimNetStats SimNet::stats() const {
  SimNetStats s;
  s.calls = calls_.load();
  s.delivered = delivered_.load();
  s.dropped = dropped_.load();
  s.duplicated = duplicated_.load();
  s.reordered = reordered_.load();
  s.late = late_.load();
  s.partition_drops = partition_drops_.load();
  s.unreachable = unreachable_.load();
  return s;
}

CallResult SimNet::call(const std::string& endpoint, std::string_view request,
                        const CallOptions& opts) {
  calls_.fetch_add(1, std::memory_order_relaxed);

  Handler handler;
  LegFate req_fate;
  LegFate resp_fate;
  Partition part = Partition::kNone;
  bool deliver_parked = false;
  bool parked_current = false;
  std::string parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end() || !it->second.handler) {
      unreachable_.fetch_add(1, std::memory_order_relaxed);
      return {CallStatus::kUnreachable, "sim: no such endpoint " + endpoint};
    }
    Endpoint& ep = it->second;
    part = ep.partition;
    if (part == Partition::kInbound || part == Partition::kFull) {
      partition_drops_.fetch_add(1, std::memory_order_relaxed);
      return {CallStatus::kTimeout, "sim: inbound partition"};
    }
    handler = ep.handler;
    req_fate = decide(seed_, endpoint, kRequestLeg, ep.request_faults, opts);
    resp_fate = decide(seed_, endpoint, kResponseLeg, ep.response_faults, opts);
    // An older parked request rides out AFTER the current one — that is the
    // reorder: its successor reaches the handler first.
    if (ep.has_parked && !req_fate.drop) {
      deliver_parked = true;
      parked = std::move(ep.parked_request);
      ep.has_parked = false;
    }
    if (req_fate.reorder && !req_fate.drop && !ep.has_parked) {
      ep.has_parked = true;
      ep.parked_request.assign(request.data(), request.size());
      reordered_.fetch_add(1, std::memory_order_relaxed);
      parked_current = true;
    }
  }

  if (parked_current) {
    // The parked caller times out; a retry (new attempt) redraws its fate.
    if (deliver_parked) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      late_.fetch_add(1, std::memory_order_relaxed);
      handler(parked);
    }
    return {CallStatus::kTimeout, "sim: request reordered"};
  }
  if (req_fate.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return {CallStatus::kTimeout, "sim: request dropped"};
  }

  // Virtual elapsed time: delay draws accrue against this call's deadline.
  std::int64_t elapsed_us = req_fate.delay_us;

  // Handlers run outside mu_: concurrent callers' handlers overlap as on a
  // real network, and a handler may itself call through this SimNet.
  delivered_.fetch_add(1, std::memory_order_relaxed);
  std::string response = handler(std::string(request));
  if (req_fate.duplicate) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    delivered_.fetch_add(1, std::memory_order_relaxed);
    handler(std::string(request));  // duplicate delivery; response unused
  }
  if (deliver_parked) {
    delivered_.fetch_add(1, std::memory_order_relaxed);
    late_.fetch_add(1, std::memory_order_relaxed);
    handler(parked);
  }

  if (part == Partition::kOutbound) {
    // Request crossed, the response cannot: applied-but-unacked.
    partition_drops_.fetch_add(1, std::memory_order_relaxed);
    return {CallStatus::kTimeout, "sim: outbound partition"};
  }
  if (resp_fate.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return {CallStatus::kTimeout, "sim: response dropped"};
  }
  elapsed_us += resp_fate.delay_us;
  if (elapsed_us > opts.deadline_us) {
    late_.fetch_add(1, std::memory_order_relaxed);
    return {CallStatus::kTimeout, "sim: response past deadline"};
  }
  return {CallStatus::kOk, std::move(response)};
}

}  // namespace trajkit::net

// Cross-process shard transport under deterministic network chaos.
//
// Three layers under test, bottom up:
//
//   net/frame + net/rpc   wire codecs: length-prefixed CRC frames and the
//                         binary shard protocol (a double travels as its
//                         own eight bytes, so a feature vector round-trips
//                         bit-exactly).
//   support/sim (SimNet)  the deterministic chaos transport: every fault
//                         fate is a pure function of (seed, endpoint, leg,
//                         key, attempt), so a schedule that breaks the
//                         protocol replays bit-identically from the seed —
//                         including across thread counts (NetSimDeterminism).
//   serve/net_shard       the shard protocol over a Transport: WAL frame
//                         shipping with bounded deterministic retry, leader
//                         lease + fencing, hedged segment fan-out, and gap
//                         repair (the leader pushes the missing WAL range
//                         under its own term, on a gap reply or a lagging
//                         heartbeat).
//
// The acceptance contract mirrors tests/shard_test.cpp's: under every
// injected fault schedule no acknowledged append is lost and the follower
// converges to the leader's store byte for byte; remote segment evaluation
// is bitwise-equal to local, over SimNet and over real Unix sockets with the
// server in a genuinely separate forked process.
#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/rpc.hpp"
#include "support/sim.hpp"
#include "net/uds.hpp"
#include "serve/net_shard.hpp"
#include "serve/shard_router.hpp"
#include "serve/shard_service.hpp"
#include "support/fixtures.hpp"
#include "wifi/crowd_store.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;

void remove_store(const std::string& dir) {
  for (const char* name : {"/crowd.snapshot", "/crowd.snapshot.tmp",
                           "/crowd.journal", "/crowd.journal.tmp"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

wifi::ReferencePoint ingest_point(int i) {
  return {{double(i % 28) + 1.0, double((i * 7) % 28) + 1.0},
          {{1, -45 - (i % 40)}},
          static_cast<std::uint32_t>(i / 10)};
}

/// Leader and follower stores hold byte-identical point sequences.
void expect_stores_equal(const wifi::CrowdStore& leader,
                         const wifi::CrowdStore& follower) {
  ASSERT_EQ(leader.arrays().size(), follower.arrays().size());
  for (std::size_t i = 0; i < leader.arrays().size(); ++i) {
    EXPECT_EQ(wifi::CrowdStore::encode_point(leader.point(i)),
              wifi::CrowdStore::encode_point(follower.point(i)))
        << "point " << i;
  }
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(NetFrame, RoundTripsArbitraryPayloads) {
  for (const std::string& payload :
       {std::string(), std::string("hello"), std::string("a\nb\0c", 5),
        std::string(100000, 'x')}) {
    const std::string wire = net::encode_frame(42, payload);
    ASSERT_GE(wire.size(), net::kFrameHeaderBytes);
    auto header = net::decode_frame_header(wire);
    ASSERT_TRUE(header.has_value()) << header.error();
    EXPECT_EQ(header.value().msg_id, 42u);
    EXPECT_EQ(header.value().payload_len, payload.size());
    std::uint64_t msg_id = 0;
    auto decoded = net::decode_frame(wire, &msg_id);
    ASSERT_TRUE(decoded.has_value()) << decoded.error();
    EXPECT_EQ(decoded.value(), payload);
    EXPECT_EQ(msg_id, 42u);
  }
}

TEST(NetFrame, RejectsCorruption) {
  std::string wire = net::encode_frame(7, "payload bytes");
  // Bad magic.
  std::string bad = wire;
  bad[0] = 'X';
  EXPECT_FALSE(net::decode_frame_header(bad).has_value());
  // Flipped payload byte fails the CRC.
  bad = wire;
  bad[net::kFrameHeaderBytes] ^= 0x01;
  auto header = net::decode_frame_header(bad);
  ASSERT_TRUE(header.has_value());
  EXPECT_FALSE(
      net::check_frame_payload(header.value(),
                               std::string_view(bad).substr(net::kFrameHeaderBytes))
          .has_value());
  // Truncated header.
  EXPECT_FALSE(net::decode_frame_header(wire.substr(0, 10)).has_value());
  // Trailing garbage after a complete frame.
  EXPECT_FALSE(net::decode_frame(wire + "extra").has_value());
}

// ---------------------------------------------------------------------------
// RPC codec

TEST(NetRpc, ApplyAndResponsesRoundTrip) {
  net::ApplyRequest apply{3, 17, 0xabcdef01u, std::string("p 1 2\n#x\0y", 10)};
  EXPECT_EQ(net::peek_verb(net::encode_apply(apply)), net::Verb::kApply);
  auto decoded = net::decode_apply(net::encode_apply(apply));
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value().term, 3u);
  EXPECT_EQ(decoded.value().seq, 17u);
  EXPECT_EQ(decoded.value().uploader, apply.uploader);
  EXPECT_EQ(decoded.value().payload, apply.payload);

  using Status = net::FrameResponse::Status;
  for (const Status status : {Status::kApplied, Status::kStale, Status::kGap,
                              Status::kFenced}) {
    net::FrameResponse response{status, 99, ""};
    auto back = net::decode_frame_response(net::encode_frame_response(response));
    ASSERT_TRUE(back.has_value()) << back.error();
    EXPECT_EQ(back.value().status, status);
    EXPECT_EQ(back.value().value, 99u);
  }
  net::FrameResponse err{Status::kError, 0, "follower: on\nfire"};
  auto back = net::decode_frame_response(net::encode_frame_response(err));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().status, Status::kError);
  EXPECT_EQ(back.value().error, "follower: on\nfire");
}

TEST(NetRpc, HeartbeatRoundTrip) {
  auto hb = net::decode_heartbeat(net::encode_heartbeat({5, 1234}));
  ASSERT_TRUE(hb.has_value()) << hb.error();
  EXPECT_EQ(hb.value().term, 5u);
  EXPECT_EQ(hb.value().leader_next_seq, 1234u);
}

TEST(NetRpc, SegmentRoundTripIsBitExact) {
  net::SegmentRequest request;
  request.top_k = 2;
  request.upload.source_traj_id = 77;
  Rng rng(404);
  for (int i = 0; i < 5; ++i) {
    request.upload.positions.push_back(
        {rng.uniform(-1e4, 1e4), rng.uniform(0.0, 1e-7)});
    request.upload.scans.push_back(
        {{std::uint64_t(rng.uniform_int(0, 1 << 30)),
          -int(rng.uniform_int(30, 90))},
         {42, -77}});
  }
  auto decoded = net::decode_segment(net::encode_segment(request));
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value().top_k, 2u);
  EXPECT_EQ(decoded.value().upload.source_traj_id, 77u);
  ASSERT_EQ(decoded.value().upload.positions.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    // Bitwise: the wire carries each double's own eight bytes.
    EXPECT_EQ(std::memcmp(&decoded.value().upload.positions[i],
                          &request.upload.positions[i], sizeof(Enu)),
              0);
    EXPECT_EQ(decoded.value().upload.scans[i], request.upload.scans[i]);
  }

  net::SegmentResponse response;
  for (int i = 0; i < 20; ++i) {
    response.features.push_back(rng.uniform(-1.0, 1.0) * 1e-13);
    response.scores.push_back(rng.uniform(0.0, 1.0));
  }
  auto back = net::decode_segment_response(net::encode_segment_response(response));
  ASSERT_TRUE(back.has_value()) << back.error();
  ASSERT_EQ(back.value().features.size(), response.features.size());
  EXPECT_EQ(std::memcmp(back.value().features.data(), response.features.data(),
                        response.features.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(back.value().scores.data(), response.scores.data(),
                        response.scores.size() * sizeof(double)),
            0);
}

TEST(NetRpc, DecodersRefuseTruncationTrailingBytesAndHugeCounts) {
  using Status = net::FrameResponse::Status;
  net::SegmentRequest segment;
  segment.top_k = 2;
  segment.upload.positions = {{1.5, -2.25}, {3.0, 4.0}};
  segment.upload.scans = {{{0xa1, -40}, {0xb2, -71}}, {}};
  net::SegmentResponse answer{{0.25, -0.5, 1e-9, 7.0}, {0.5, 0.75}};

  // Every message kind, with the decoder that must accept it whole.
  const auto accepts = [](auto decode) {
    return [decode](std::string_view bytes) { return decode(bytes).has_value(); };
  };
  const std::vector<std::pair<std::string, std::function<bool(std::string_view)>>>
      messages = {
          {net::encode_apply({3, 17, 9, "p 1 2"}), accepts(net::decode_apply)},
          {net::encode_heartbeat({5, 1234}), accepts(net::decode_heartbeat)},
          {net::encode_segment(segment), accepts(net::decode_segment)},
          {net::encode_frame_response({Status::kGap, 7, ""}),
           accepts(net::decode_frame_response)},
          {net::encode_rpc_error("on fire"), accepts(net::decode_frame_response)},
          {net::encode_segment_response(answer),
           accepts(net::decode_segment_response)},
      };
  for (std::size_t m = 0; m < messages.size(); ++m) {
    const auto& [bytes, decodes] = messages[m];
    ASSERT_TRUE(decodes(bytes)) << "message " << m;
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(decodes(std::string_view(bytes).substr(0, len)))
          << "message " << m << " cut to " << len << " bytes";
    }
    EXPECT_FALSE(decodes(bytes + '\0')) << "message " << m << " + 1 byte";
    std::string unknown = bytes;
    unknown[0] = '\x7f';
    EXPECT_FALSE(decodes(unknown)) << "message " << m << " with an unknown tag";
  }
  EXPECT_EQ(net::peek_verb(std::string(1, '\x7f')), net::Verb::kUnknown);
  EXPECT_EQ(net::peek_verb(""), net::Verb::kUnknown);

  // A count field raised to 2^63 is refused against the bytes that remain,
  // before the decoder allocates for it.
  const auto huge_at = [](std::string bytes, std::size_t offset) {
    const std::uint64_t huge = std::uint64_t{1} << 63;
    std::memcpy(bytes.data() + offset, &huge, sizeof huge);
    return bytes;
  };
  EXPECT_FALSE(net::decode_apply(huge_at(net::encode_apply({3, 17, 9, "p"}), 25)));
  EXPECT_FALSE(net::decode_segment(huge_at(net::encode_segment(segment), 13)));
  EXPECT_FALSE(net::decode_segment(huge_at(net::encode_segment(segment), 37)));
  EXPECT_FALSE(net::decode_frame_response(huge_at(net::encode_rpc_error("x"), 1)));
  const std::string response = net::encode_segment_response(answer);
  EXPECT_FALSE(net::decode_segment_response(huge_at(response, 1)));
  EXPECT_FALSE(net::decode_segment_response(huge_at(response, 1 + 8 + 4 * 8)));
}

// ---------------------------------------------------------------------------
// Deterministic backoff

TEST(NetBackoff, DeterministicJitteredAndCapped) {
  serve::RetryPolicy retry;  // base 50us, x2, cap 5000us
  for (std::uint64_t key : {0ull, 1ull, 77ull}) {
    for (std::size_t attempt = 0; attempt < 4; ++attempt) {
      const auto a = serve::backoff_delay_us(retry, key, attempt);
      const auto b = serve::backoff_delay_us(retry, key, attempt);
      EXPECT_EQ(a, b) << "key=" << key << " attempt=" << attempt;
      const double nominal = 50.0 * std::pow(2.0, double(attempt));
      EXPECT_GE(a, std::int64_t(nominal * 0.5) - 1);
      EXPECT_LE(a, std::min<std::int64_t>(5000, std::int64_t(nominal * 1.5) + 1));
    }
  }
  // Different keys draw different jitter (not a constant schedule).
  bool differs = false;
  for (std::uint64_t key = 0; key < 16 && !differs; ++key) {
    differs = serve::backoff_delay_us(retry, key, 1) !=
              serve::backoff_delay_us(retry, key + 100, 1);
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// SimNet fault anatomy

TEST(NetSimFaults, DropTimesOutWithoutDelivery) {
  net::SimNet sim(1);
  std::atomic<int> served{0};
  sim.bind("ep", [&](const std::string& r) {
    served.fetch_add(1);
    return r;
  });
  net::SimFaultSpec faults;
  faults.drop = 1.0;
  sim.set_faults("ep", faults);
  const auto result = sim.call("ep", "x", {50'000, 1, 0});
  EXPECT_EQ(result.status, net::CallStatus::kTimeout);
  EXPECT_EQ(served.load(), 0);
  EXPECT_EQ(sim.stats().dropped, 1u);
}

TEST(NetSimFaults, FailFirstDropsExactlyThePrefix) {
  net::SimNet sim(2);
  sim.bind("ep", [](const std::string& r) { return "ok:" + r; });
  net::SimFaultSpec faults;
  faults.fail_first = 2;
  sim.set_faults("ep", faults);
  EXPECT_EQ(sim.call("ep", "x", {50'000, 9, 0}).status,
            net::CallStatus::kTimeout);
  EXPECT_EQ(sim.call("ep", "x", {50'000, 9, 1}).status,
            net::CallStatus::kTimeout);
  const auto third = sim.call("ep", "x", {50'000, 9, 2});
  EXPECT_EQ(third.status, net::CallStatus::kOk);
  EXPECT_EQ(third.payload, "ok:x");
}

TEST(NetSimFaults, DuplicateRunsHandlerTwiceReturnsOneResponse) {
  net::SimNet sim(3);
  std::atomic<int> served{0};
  sim.bind("ep", [&](const std::string& r) {
    served.fetch_add(1);
    return r;
  });
  net::SimFaultSpec faults;
  faults.duplicate = 1.0;
  sim.set_faults("ep", faults);
  const auto result = sim.call("ep", "x", {50'000, 4, 0});
  EXPECT_EQ(result.status, net::CallStatus::kOk);
  EXPECT_EQ(served.load(), 2);
  EXPECT_EQ(sim.stats().duplicated, 1u);
}

TEST(NetSimFaults, ReorderDeliversParkedRequestAfterItsSuccessor) {
  net::SimNet sim(4);
  std::vector<std::string> order;
  sim.bind("ep", [&](const std::string& r) {
    order.push_back(r);
    return r;
  });
  net::SimFaultSpec faults;
  faults.reorder = 1.0;
  sim.set_faults("ep", faults);
  // First call parks (kTimeout, nothing delivered yet)...
  EXPECT_EQ(sim.call("ep", "first", {50'000, 0, 0}).status,
            net::CallStatus::kTimeout);
  EXPECT_TRUE(order.empty());
  sim.clear_faults();
  // ...the next call through flushes it out of order: successor first.
  EXPECT_EQ(sim.call("ep", "second", {50'000, 1, 0}).status,
            net::CallStatus::kOk);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "second");
  EXPECT_EQ(order[1], "first");
  EXPECT_EQ(sim.stats().reordered, 1u);
  EXPECT_EQ(sim.stats().late, 1u);
}

TEST(NetSimFaults, DelayPastDeadlineRunsHandlerButTimesOut) {
  net::SimNet sim(5);
  std::atomic<int> served{0};
  sim.bind("ep", [&](const std::string& r) {
    served.fetch_add(1);
    return r;
  });
  net::SimFaultSpec faults;
  faults.delay = 1.0;
  faults.delay_min_us = 1000;
  faults.delay_max_us = 1000;
  sim.set_faults("ep", {}, faults);  // response leg
  // Deadline under the delay: handler ran, response discarded ("ack lost").
  EXPECT_EQ(sim.call("ep", "x", {500, 0, 0}).status, net::CallStatus::kTimeout);
  EXPECT_EQ(served.load(), 1);
  EXPECT_EQ(sim.stats().late, 1u);
  // Deadline over the delay: same draw, delivered.
  EXPECT_EQ(sim.call("ep", "x", {5000, 0, 0}).status, net::CallStatus::kOk);
}

TEST(NetSimFaults, PartitionsAndUnreachable) {
  net::SimNet sim(6);
  std::atomic<int> served{0};
  sim.bind("ep", [&](const std::string& r) {
    served.fetch_add(1);
    return r;
  });

  sim.partition("ep", net::SimNet::Partition::kInbound);
  EXPECT_EQ(sim.call("ep", "x", {50'000, 0, 0}).status,
            net::CallStatus::kTimeout);
  EXPECT_EQ(served.load(), 0);  // requests die before the handler

  sim.partition("ep", net::SimNet::Partition::kOutbound);
  EXPECT_EQ(sim.call("ep", "x", {50'000, 0, 1}).status,
            net::CallStatus::kTimeout);
  EXPECT_EQ(served.load(), 1);  // applied, ack lost

  sim.partition("ep", net::SimNet::Partition::kFull);
  EXPECT_EQ(sim.call("ep", "x", {50'000, 0, 2}).status,
            net::CallStatus::kTimeout);
  EXPECT_EQ(served.load(), 1);

  sim.heal("ep");
  EXPECT_EQ(sim.call("ep", "x", {50'000, 0, 3}).status, net::CallStatus::kOk);

  sim.unbind("ep");
  EXPECT_EQ(sim.call("ep", "x", {50'000, 0, 4}).status,
            net::CallStatus::kUnreachable);
  EXPECT_EQ(sim.call("never-bound", "x", {50'000, 0, 0}).status,
            net::CallStatus::kUnreachable);
}

// ---------------------------------------------------------------------------
// SimNet determinism across thread counts

TEST(NetSimDeterminism, FaultFatesReplayBitIdenticallyAcrossThreadCounts) {
  // One fault schedule, the same 600 logical calls (200 keys x 3 attempts),
  // issued serially and then from 4 threads: every call's outcome must be
  // identical, because a fate depends only on (seed, endpoint, leg, key,
  // attempt) — never on scheduling.  (Reorder is excluded here: parked-
  // delivery *order* is arrival-order by design; its draws still replay.)
  constexpr std::uint64_t kSeed = 0xc0ffee;
  constexpr std::size_t kKeys = 200;
  constexpr std::size_t kAttempts = 3;
  net::SimFaultSpec req;
  req.drop = 0.3;
  req.duplicate = 0.2;
  req.delay = 0.4;
  req.delay_min_us = 10;
  req.delay_max_us = 200;
  net::SimFaultSpec resp;
  resp.drop = 0.2;
  resp.delay = 0.5;
  resp.delay_min_us = 10;
  resp.delay_max_us = 120;

  const auto run = [&](std::size_t threads) {
    net::SimNet sim(kSeed);
    sim.bind("ep", [](const std::string& r) { return r; });
    sim.set_faults("ep", req, resp);
    std::vector<net::CallStatus> statuses(kKeys * kAttempts);
    const auto worker = [&](std::size_t tid) {
      for (std::size_t key = tid; key < kKeys; key += threads) {
        for (std::size_t attempt = 0; attempt < kAttempts; ++attempt) {
          statuses[key * kAttempts + attempt] =
              sim.call("ep", "req-" + std::to_string(key), {100, key, attempt})
                  .status;
        }
      }
    };
    if (threads == 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
      for (auto& t : pool) t.join();
    }
    return std::make_pair(statuses, sim.stats());
  };

  const auto [serial, serial_stats] = run(1);
  const auto [parallel, parallel_stats] = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "call " << i;
  }
  EXPECT_EQ(serial_stats.dropped, parallel_stats.dropped);
  EXPECT_EQ(serial_stats.duplicated, parallel_stats.duplicated);
  EXPECT_EQ(serial_stats.delivered, parallel_stats.delivered);
  EXPECT_EQ(serial_stats.late, parallel_stats.late);
  // The schedule actually bit: some calls failed, some survived.
  EXPECT_GT(serial_stats.dropped, 0u);
  EXPECT_GT(serial_stats.delivered, 0u);
}

// ---------------------------------------------------------------------------
// WAL shipping over the transport

struct NetWorld {
  net::SimNet sim{0xd15ea5e};
  std::string leader_dir;
  std::string follower_dir;
  std::unique_ptr<serve::ShardService> leader;
  std::unique_ptr<serve::ShardReplica> replica;
  std::unique_ptr<serve::RemoteFollower> remote;

  NetWorld(const std::string& tag, serve::NetCallPolicy policy = {},
           std::size_t required_acks = serve::kAllFollowers) {
    leader_dir = "net_test_" + tag + "_leader";
    follower_dir = "net_test_" + tag + "_follower";
    remove_store(leader_dir);
    remove_store(follower_dir);

    serve::ShardServiceConfig cfg;
    cfg.required_follower_acks = required_acks;
    auto l = serve::ShardService::open_leader(0, leader_dir, true, cfg);
    if (!l.has_value()) throw std::runtime_error(l.error());
    leader = std::move(l.value());
    auto r = serve::ShardReplica::open(follower_dir);
    if (!r.has_value()) throw std::runtime_error(r.error());
    replica = std::move(r.value());
    sim.bind("follower", serve::make_follower_handler(*replica));
    remote = std::make_unique<serve::RemoteFollower>(sim, "follower",
                                                     leader_dir, policy);
    leader->attach_follower(remote.get());
  }

  ~NetWorld() {
    remove_store(leader_dir);
    remove_store(follower_dir);
  }
};

TEST(NetShipping, CleanTransportConvergesBitwise) {
  NetWorld w("clean");
  for (int i = 0; i < 25; ++i) {
    auto seq = w.leader->ingest(ingest_point(i));
    ASSERT_TRUE(seq.has_value()) << seq.error();
    EXPECT_EQ(w.replica->next_seq(), seq.value() + 1);
  }
  EXPECT_EQ(w.leader->acked_frames(), 25u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_EQ(w.remote->stats().rpcs, 25u);
  EXPECT_EQ(w.remote->stats().retries, 0u);
}

TEST(NetShipping, BoundedRetryAbsorbsRequestDropPrefix) {
  NetWorld w("reqdrop");
  net::SimFaultSpec faults;
  faults.fail_first = 2;  // attempts 0 and 1 drop; attempt 2 (last) lands
  w.sim.set_faults("follower", faults);
  for (int i = 0; i < 10; ++i) {
    auto seq = w.leader->ingest(ingest_point(i));
    ASSERT_TRUE(seq.has_value()) << seq.error();
  }
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_EQ(w.remote->stats().retries, 20u);  // 2 per frame, deterministic
  EXPECT_EQ(w.remote->stats().timeouts, 20u);
}

TEST(NetShipping, LostAcksRetryIntoIdempotentStale) {
  NetWorld w("ackdrop");
  net::SimFaultSpec resp;
  resp.fail_first = 1;  // every frame applies, first ack is always lost
  w.sim.set_faults("follower", {}, resp);
  for (int i = 0; i < 10; ++i) {
    auto seq = w.leader->ingest(ingest_point(i));
    ASSERT_TRUE(seq.has_value()) << seq.error();
  }
  // The retry found the frame already applied ("stale") — applied exactly
  // once despite redelivery, and the ack contract held.
  EXPECT_EQ(w.replica->store().points().size(), 10u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_EQ(w.remote->stats().retries, 10u);
}

TEST(NetShipping, DuplicateDeliveryIsIdempotent) {
  NetWorld w("dup");
  net::SimFaultSpec faults;
  faults.duplicate = 1.0;  // every frame delivered twice
  w.sim.set_faults("follower", faults);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.leader->ingest(ingest_point(i)).has_value());
  }
  EXPECT_EQ(w.sim.stats().duplicated, 10u);
  EXPECT_EQ(w.replica->store().points().size(), 10u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
}

TEST(NetShipping, ReorderedFramesRecoverThroughRetryAndSeqDiscipline) {
  NetWorld w("reorder");
  net::SimFaultSpec faults;
  faults.reorder = 0.4;
  w.sim.set_faults("follower", faults);
  // Quorum is all-followers: an ingest whose ship ultimately failed reports
  // the error; the acked ones must be on the follower regardless.
  std::uint64_t acked = 0;
  for (int i = 0; i < 40; ++i) {
    if (w.leader->ingest(ingest_point(i)).has_value()) ++acked;
  }
  EXPECT_GT(w.sim.stats().reordered, 0u);
  EXPECT_EQ(w.leader->acked_frames(), acked);
  // Every acked frame is durably on the follower (the ack contract).  The
  // follower may additionally hold unacked frames (late/duplicate delivery
  // after the caller gave up) — at-least-once, never lost-after-ack.
  EXPECT_GE(w.replica->store().points().size(), acked);
  const auto& lp = w.leader->store()->points();
  const auto& fp = w.replica->store().points();
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_EQ(wifi::CrowdStore::encode_point(fp[i]),
              wifi::CrowdStore::encode_point(lp[i]));
  }
}

TEST(NetShipping, ChaosDropsOnBothLegsNeverLoseAckedAppends) {
  serve::NetCallPolicy policy;
  NetWorld w("chaos", policy, /*required_acks=*/0);
  net::SimFaultSpec req;
  req.drop = 0.25;
  net::SimFaultSpec resp;
  resp.drop = 0.25;
  w.sim.set_faults("follower", req, resp);

  for (int i = 0; i < 60; ++i) {
    // Quorum 0: ingest acks on leader durability alone; the follower lags
    // under drops and converges through leader-push gap backfill.
    auto seq = w.leader->ingest(ingest_point(i));
    ASSERT_TRUE(seq.has_value()) << seq.error();
  }
  // Heal and ship one more frame: its gap backfill (if the tail was lost)
  // brings the follower to exact convergence.
  w.sim.clear_faults();
  ASSERT_TRUE(w.leader->ingest(ingest_point(60)).has_value());
  EXPECT_EQ(w.replica->next_seq(), 61u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_GT(w.remote->stats().timeouts, 0u);
}

TEST(NetShipping, PartitionAtEveryShippingStepLosesNoAckedAppend) {
  using Partition = net::SimNet::Partition;
  constexpr int kFrames = 8;
  for (const Partition mode :
       {Partition::kInbound, Partition::kOutbound, Partition::kFull}) {
    for (int cut_at = 0; cut_at <= kFrames; ++cut_at) {
      NetWorld w("cut", {}, /*required_acks=*/0);
      for (int i = 0; i < kFrames; ++i) {
        if (i == cut_at) w.sim.partition("follower", mode);
        auto seq = w.leader->ingest(ingest_point(i));
        ASSERT_TRUE(seq.has_value())
            << "mode=" << int(mode) << " cut=" << cut_at << ": " << seq.error();
      }
      w.sim.heal("follower");
      // Post-heal: the next shipped frame triggers leader-push repair.
      ASSERT_TRUE(w.leader->ingest(ingest_point(kFrames)).has_value());
      EXPECT_EQ(w.replica->next_seq(), std::uint64_t(kFrames) + 1)
          << "mode=" << int(mode) << " cut=" << cut_at;
      expect_stores_equal(*w.leader->store(), w.replica->store());
      if (cut_at < kFrames && mode != Partition::kOutbound) {
        // Inbound/full cuts starve the follower, so convergence had to go
        // through gap backfill.  (An outbound cut loses only acks — the
        // frames applied, so there is no gap to repair.)
        EXPECT_GT(w.remote->stats().gap_backfills, 0u)
            << "mode=" << int(mode) << " cut=" << cut_at;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Gap repair: the leader pushes its WAL range under its own term

TEST(NetGapRepair, LeaderPushBackfillsPartitionedFollower) {
  NetWorld w("push", {}, /*required_acks=*/0);
  ASSERT_TRUE(w.leader->ingest(ingest_point(0)).has_value());
  w.sim.partition("follower", net::SimNet::Partition::kFull);
  for (int i = 1; i < 12; ++i) {
    ASSERT_TRUE(w.leader->ingest(ingest_point(i)).has_value());
  }
  EXPECT_EQ(w.replica->next_seq(), 1u);  // missed everything since the cut
  w.sim.heal("follower");
  ASSERT_TRUE(w.leader->ingest(ingest_point(12)).has_value());
  EXPECT_EQ(w.replica->next_seq(), 13u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_GE(w.remote->stats().gap_backfills, 1u);
}

TEST(NetGapRepair, HeartbeatPushesTailToIdleFollower) {
  NetWorld w("hbpush", {}, /*required_acks=*/0);

  w.sim.partition("follower", net::SimNet::Partition::kFull);
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(w.leader->ingest(ingest_point(i)).has_value());
  }
  w.sim.heal("follower");
  EXPECT_EQ(w.replica->next_seq(), 0u);

  // The heartbeat reply shows the follower's lag, and the leader pushes the
  // missing WAL range: convergence with no new writes at all.
  EXPECT_EQ(w.leader->send_heartbeats(), 1u);
  EXPECT_EQ(w.replica->leader_next_seen(), 11u);
  EXPECT_EQ(w.replica->next_seq(), 11u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_EQ(w.remote->stats().gap_backfills, 1u);
  // Already converged: the next heartbeat pushes nothing.
  const std::uint64_t rpcs = w.remote->stats().rpcs;
  EXPECT_EQ(w.leader->send_heartbeats(), 1u);
  EXPECT_EQ(w.remote->stats().rpcs, rpcs + 1);
  EXPECT_EQ(w.remote->stats().gap_backfills, 1u);
  EXPECT_EQ(w.replica->next_seq(), 11u);
}

TEST(NetGapRepair, CompactedTailDemandsRebootstrap) {
  NetWorld w("compact", {}, /*required_acks=*/0);

  w.sim.partition("follower", net::SimNet::Partition::kFull);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.leader->ingest(ingest_point(i)).has_value());
  }
  // The frames the follower is missing get folded into the snapshot...
  ASSERT_TRUE(w.leader->compact().has_value());
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(w.leader->ingest(ingest_point(i)).has_value());
  }
  w.sim.heal("follower");

  // ...so the heartbeat's push must refuse loudly instead of inventing them.
  EXPECT_EQ(w.leader->send_heartbeats(), 0u);
  EXPECT_NE(w.leader->follower_errors()[0].find("compacted"), std::string::npos)
      << w.leader->follower_errors()[0];
  EXPECT_EQ(w.replica->next_seq(), 0u);

  // A real re-bootstrap (snapshot + journal tail) converges.
  const std::string reboot_dir = "net_test_compact_reboot";
  remove_store(reboot_dir);
  auto fresh = serve::ShardReplica::bootstrap(w.leader_dir, reboot_dir);
  ASSERT_TRUE(fresh.has_value()) << fresh.error();
  expect_stores_equal(*w.leader->store(), fresh.value()->store());
  remove_store(reboot_dir);
}

// ---------------------------------------------------------------------------
// Leader lease, heartbeats, fencing

TEST(NetLease, HeartbeatRenewsLeaseUnderManualClock) {
  const std::string dir = "net_test_lease";
  remove_store(dir);
  auto replica = serve::ShardReplica::open(dir);
  ASSERT_TRUE(replica.has_value()) << replica.error();
  ManualClock clock(1000);
  replica.value()->set_clock(&clock);

  EXPECT_FALSE(replica.value()->leader_alive(500));  // no heartbeat yet
  using Status = net::FrameResponse::Status;
  ASSERT_EQ(replica.value()->heartbeat(0, 0).status, Status::kApplied);
  EXPECT_TRUE(replica.value()->leader_alive(500));
  clock.advance_us(400);
  EXPECT_TRUE(replica.value()->leader_alive(500));
  clock.advance_us(200);
  EXPECT_FALSE(replica.value()->leader_alive(500));  // lease lapsed
  ASSERT_EQ(replica.value()->heartbeat(0, 0).status, Status::kApplied);
  EXPECT_TRUE(replica.value()->leader_alive(500));  // renewed

  remove_store(dir);
}

TEST(NetLease, PromotedFollowerFencesTheOldLeader) {
  NetWorld w("fence");
  ASSERT_TRUE(w.leader->ingest(ingest_point(0)).has_value());
  EXPECT_EQ(w.leader->send_heartbeats(), 1u);
  EXPECT_EQ(w.replica->leader_next_seen(), 1u);

  // Lease lapse observed -> the follower promotes, bumping the term.
  EXPECT_EQ(w.replica->promote(), 1u);
  EXPECT_EQ(w.replica->term(), 1u);

  // The old leader (term 0) is now fenced on both verbs: its quorum cannot
  // be met, so split-brain writes fail loudly.
  auto stale = w.leader->ingest(ingest_point(1));
  ASSERT_FALSE(stale.has_value());
  EXPECT_NE(stale.error().find("fenced"), std::string::npos) << stale.error();
  EXPECT_EQ(w.leader->send_heartbeats(), 0u);
  EXPECT_GE(w.remote->stats().fenced, 2u);
  EXPECT_GE(w.leader->follower_failures()[0], 2u);

  // A leader that legitimately resumes at a higher term writes again; the
  // fenced ingest's leader-durable frame ships through gap backfill.
  w.leader->set_term(2);
  ASSERT_TRUE(w.leader->ingest(ingest_point(2)).has_value());
  EXPECT_EQ(w.replica->term(), 2u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
}

TEST(NetLease, DeposedLeaderNeverReachesFollowerAfterTakeover) {
  const std::string l1_dir = "net_test_takeover_l1";
  const std::string l2_dir = "net_test_takeover_l2";
  const std::string f_dir = "net_test_takeover_f";
  for (const std::string& dir : {l1_dir, l2_dir, f_dir}) remove_store(dir);
  serve::ShardServiceConfig cfg;
  cfg.required_follower_acks = 0;  // both leaders keep writing while cut off

  // One follower answers both leaders on two endpoints, so each link can be
  // cut on its own.
  net::SimNet sim(0x7a4e0);
  auto f = serve::ShardReplica::open(f_dir);
  ASSERT_TRUE(f.has_value()) << f.error();
  serve::ShardReplica& follower = *f.value();
  sim.bind("f-from-l1", serve::make_follower_handler(follower));
  sim.bind("f-from-l2", serve::make_follower_handler(follower));

  // L1 replicates seqs 0..2 at term 1.
  auto l1 = serve::ShardService::open_leader(0, l1_dir, true, cfg);
  ASSERT_TRUE(l1.has_value()) << l1.error();
  l1.value()->set_term(1);
  serve::RemoteFollower link1(sim, "f-from-l1", l1_dir);
  l1.value()->attach_follower(&link1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(l1.value()->ingest(ingest_point(i)).has_value());
  }
  ASSERT_EQ(follower.next_seq(), 3u);

  // L2: a second replica of that prefix, taking over at term 2.
  ASSERT_TRUE(serve::ShardReplica::bootstrap(l1_dir, l2_dir).has_value());
  auto l2 = serve::ShardService::open_leader(0, l2_dir, true, cfg);
  ASSERT_TRUE(l2.has_value()) << l2.error();
  l2.value()->set_term(2);
  serve::RemoteFollower link2(sim, "f-from-l2", l2_dir);
  l2.value()->attach_follower(&link2);

  // Split brain: L1 writes seqs 3..5 and L2 different frames at 3..4, both
  // while partitioned from the follower.
  sim.partition("f-from-l1", net::SimNet::Partition::kFull);
  sim.partition("f-from-l2", net::SimNet::Partition::kFull);
  for (int i = 3; i < 6; ++i) {
    ASSERT_TRUE(l1.value()->ingest(ingest_point(i)).has_value());
  }
  for (int i = 100; i < 102; ++i) {
    ASSERT_TRUE(l2.value()->ingest(ingest_point(i)).has_value());
  }

  // L2's heartbeat reaches the follower first: it raises the term to 2 and
  // pushes seqs 3..4 from L2's WAL.
  sim.heal("f-from-l2");
  EXPECT_EQ(l2.value()->send_heartbeats(), 1u);
  EXPECT_EQ(follower.term(), 2u);
  EXPECT_EQ(follower.next_seq(), 5u);
  expect_stores_equal(*l2.value()->store(), follower.store());

  // L1 heals.  Its frame push and its heartbeat, which would backfill seqs
  // 5..6 from L1's WAL, both come back fenced; not one L1 frame ships.
  sim.heal("f-from-l1");
  ASSERT_TRUE(l1.value()->ingest(ingest_point(6)).has_value());  // quorum 0
  EXPECT_NE(l1.value()->follower_errors()[0].find("fenced"), std::string::npos)
      << l1.value()->follower_errors()[0];
  EXPECT_EQ(l1.value()->send_heartbeats(), 0u);
  EXPECT_NE(l1.value()->follower_errors()[0].find("fenced"), std::string::npos)
      << l1.value()->follower_errors()[0];
  EXPECT_EQ(link1.stats().fenced, 2u);
  EXPECT_EQ(link1.stats().gap_backfills, 0u);

  // The follower holds exactly the new leader's points, bit for bit.
  EXPECT_EQ(l2.value()->send_heartbeats(), 1u);
  EXPECT_EQ(follower.next_seq(), 5u);
  expect_stores_equal(*l2.value()->store(), follower.store());

  for (const std::string& dir : {l1_dir, l2_dir, f_dir}) remove_store(dir);
}

// ---------------------------------------------------------------------------
// Hedged segment fan-out + router integration

TEST(NetHedge, StragglingPrimaryHedgesToReplicaBitwise) {
  ts::LinearFieldWorld world;
  serve::ShardRouterConfig rc;
  rc.shards = 1;
  serve::ShardRouter router(world.detector(), rc);
  const std::size_t top_k = world.detector().config().confidence.top_k;

  net::SimNet sim(0xbeef);
  sim.bind("seg-a", serve::make_segment_handler(router.shard(0)));
  sim.bind("seg-b", serve::make_segment_handler(router.shard(0)));
  // The primary straggles: every request delayed past the hedge deadline
  // (the handler still runs — a genuine straggler, not a dead node).
  net::SimFaultSpec slow;
  slow.delay = 1.0;
  slow.delay_min_us = 20'000;
  slow.delay_max_us = 20'000;
  sim.set_faults("seg-a", slow);

  serve::NetCallPolicy policy;  // hedge at 10ms, full deadline 50ms
  serve::RemoteSegmentClient client(sim, {"seg-a", "seg-b"}, top_k, policy);

  Rng rng(7);
  const auto upload = world.upload(true, rng);
  const std::size_t n = upload.positions.size();
  std::vector<double> f_local(2 * top_k * n), s_local(n);
  router.shard(0).evaluate_segment(upload, 0, n, f_local.data(), s_local.data());
  std::vector<double> f_remote(2 * top_k * n), s_remote(n);
  client.evaluate(upload, 0, n, f_remote.data(), s_remote.data());

  EXPECT_EQ(std::memcmp(f_local.data(), f_remote.data(),
                        f_local.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(s_local.data(), s_remote.data(),
                        s_local.size() * sizeof(double)),
            0);
  EXPECT_EQ(client.stats().hedges, 1u);
  EXPECT_EQ(client.stats().rpcs, 2u);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(NetHedge, SegmentHandlerRefusesNonFiniteCoordinates) {
  ts::LinearFieldWorld world;
  serve::ShardRouterConfig rc;
  rc.shards = 1;
  serve::ShardRouter router(world.detector(), rc);
  const std::size_t top_k = world.detector().config().confidence.top_k;
  const net::Handler handler = serve::make_segment_handler(router.shard(0));

  net::SegmentRequest request;
  request.top_k = top_k;
  request.upload = world.upload(true);
  request.upload.positions[1].north = std::numeric_limits<double>::quiet_NaN();
  // The frame itself is well-formed: the codec carries the NaN to the
  // handler, so it is the handler's validation that must refuse it.
  const std::string encoded = net::encode_segment(request);
  auto decoded = net::decode_segment(encoded);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  ASSERT_TRUE(std::isnan(decoded.value().upload.positions[1].north));

  auto response = net::decode_segment_response(handler(encoded));
  ASSERT_FALSE(response.has_value());
  EXPECT_NE(response.error().find("upload: bad position at point 1"),
            std::string::npos)
      << response.error();

  // Through the client, the refusal is an application error (no retry, no
  // hedge) that the router would answer from its resident slice.
  net::SimNet sim(0x5eed);
  sim.bind("seg", handler);
  serve::RemoteSegmentClient client(sim, {"seg"}, top_k);
  const std::size_t n = request.upload.positions.size();
  std::vector<double> features(2 * top_k * n), scores(n);
  EXPECT_THROW(client.evaluate(request.upload, 0, n, features.data(), scores.data()),
               std::runtime_error);
  EXPECT_EQ(client.stats().rpcs, 1u);
}

TEST(NetRouterRemote, RemoteSegmentsMatchOracleAndDegradeLocally) {
  ts::LinearWorldConfig cfg;
  cfg.upload_points = 10;
  ts::LinearFieldWorld world(cfg);
  serve::ShardRouterConfig rc;
  rc.shards = 4;
  serve::ShardRouter router(world.detector(), rc);
  const std::size_t top_k = world.detector().config().confidence.top_k;

  // Loopback topology: every shard's segments are served over the transport
  // by that same shard's detector — the bits cannot differ, which is exactly
  // the property the wire must preserve.
  net::SimNet sim(0xfeed);
  for (std::size_t s = 0; s < router.shards(); ++s) {
    sim.bind("shard-" + std::to_string(s),
             serve::make_segment_handler(router.shard(s)));
    router.set_remote_evaluator(
        s, std::make_shared<serve::RemoteSegmentClient>(
               sim, std::vector<std::string>{"shard-" + std::to_string(s)},
               top_k));
  }

  Rng rng(11);
  std::vector<wifi::ScannedUpload> uploads;
  for (int i = 0; i < 8; ++i) uploads.push_back(world.upload(i % 2 == 0, rng));

  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const auto response = router.verify(uploads[i], i);
    ASSERT_EQ(response.outcome, serve::Outcome::kOk) << response.error;
    EXPECT_EQ(response.report.canonical_string(),
              world.detector().analyze(uploads[i]).canonical_string())
        << "upload " << i;
  }
  auto counters = router.counters();
  EXPECT_GT(counters.remote_segments, 0u);
  EXPECT_EQ(counters.degraded_shard_verdicts, 0u);
  EXPECT_EQ(counters.latency_count, uploads.size());

  // Partition the whole remote fleet: every verdict must still match the
  // oracle bit for bit — served by the resident slices — and the degradation
  // must be visible in the counters.
  for (std::size_t s = 0; s < router.shards(); ++s) {
    sim.partition("shard-" + std::to_string(s), net::SimNet::Partition::kFull);
  }
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const auto response = router.verify(uploads[i], 100 + i);
    ASSERT_EQ(response.outcome, serve::Outcome::kOk) << response.error;
    EXPECT_EQ(response.report.canonical_string(),
              world.detector().analyze(uploads[i]).canonical_string());
  }
  counters = router.counters();
  EXPECT_EQ(counters.degraded_shard_verdicts, uploads.size());
  EXPECT_EQ(counters.latency_count, 2 * uploads.size());
  std::uint64_t fleet_timeouts = 0;
  for (const auto& stats : counters.per_shard_net) {
    fleet_timeouts += stats.timeouts;
  }
  EXPECT_GT(fleet_timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Unix-domain sockets: real frames, real processes

TEST(NetUds, EchoRoundTripAndDeadlines) {
  const std::string path = "net_test_uds_echo.sock";
  ::unlink(path.c_str());
  net::UdsServer server(path, [](const std::string& r) { return "echo:" + r; });
  auto started = server.start();
  ASSERT_TRUE(started.has_value()) << started.error();

  net::UdsTransport transport;
  const auto result = transport.call(path, "ping", {1'000'000, 0, 0});
  ASSERT_EQ(result.status, net::CallStatus::kOk) << result.payload;
  EXPECT_EQ(result.payload, "echo:ping");
  // Payloads with embedded newlines/NULs survive the framing.
  const std::string blob("a\n\0b", 4);
  const auto blob_result = transport.call(path, blob, {1'000'000, 0, 1});
  ASSERT_EQ(blob_result.status, net::CallStatus::kOk);
  EXPECT_EQ(blob_result.payload, "echo:" + blob);
  EXPECT_EQ(server.served(), 2u);
  server.stop();

  // A dead endpoint is refused (kUnreachable), not timed out.
  const auto dead = transport.call(path, "ping", {1'000'000, 0, 2});
  EXPECT_EQ(dead.status, net::CallStatus::kUnreachable);
}

TEST(NetUds, SlowHandlerHitsDeadlineThenRecovers) {
  const std::string path = "net_test_uds_slow.sock";
  ::unlink(path.c_str());
  std::atomic<bool> slow{true};
  net::UdsServer server(path, [&](const std::string& r) {
    if (slow.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return r;
  });
  ASSERT_TRUE(server.start().has_value());

  net::UdsTransport transport;
  const auto timed_out = transport.call(path, "x", {10'000, 0, 0});
  EXPECT_EQ(timed_out.status, net::CallStatus::kTimeout);
  // The timed-out connection was closed, so the late response cannot leak
  // into the next call; a fresh connection serves it cleanly.
  slow.store(false);
  const auto retry = transport.call(path, "y", {2'000'000, 0, 1});
  ASSERT_EQ(retry.status, net::CallStatus::kOk) << retry.payload;
  EXPECT_EQ(retry.payload, "y");
  server.stop();
}

/// This process's virtual size in KiB (VmSize in /proc/self/status).
std::int64_t vm_size_kib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmSize: %ld", &kib) == 1) break;
  }
  std::fclose(status);
  return kib;
}

TEST(NetUds, ReconnectingClientStrandsNoServerThread) {
  // glibc maps a 64 MiB malloc arena for each thread that allocates while
  // the others hold theirs, so two briefly overlapping connection threads
  // would move VmSize by a whole arena: one arena leaves only thread stacks
  // in the measure.
  ::mallopt(M_ARENA_MAX, 1);
  const std::string path = "net_test_uds_reconnect.sock";
  ::unlink(path.c_str());
  net::UdsServer server(path, [](const std::string& r) { return r; });
  ASSERT_TRUE(server.start().has_value());

  // Every reset() closes the client's connection, as a timed-out call does;
  // the server thread that served it exits.  One warm-up cycle maps the
  // first connection thread's stack before the baseline.
  net::UdsTransport transport;
  ASSERT_EQ(transport.call(path, "x", {2'000'000, 0, 0}).status,
            net::CallStatus::kOk);
  transport.reset();
  const std::int64_t before = vm_size_kib();
  ASSERT_GT(before, 0);
  for (std::uint64_t i = 1; i <= 64; ++i) {
    ASSERT_EQ(transport.call(path, "x", {2'000'000, 0, i}).status,
              net::CallStatus::kOk);
    transport.reset();
  }
  // An exited thread that nobody joins keeps its stack (8 MiB by default)
  // mapped until stop(): 64 of them would add ~512 MiB.
  const std::int64_t grown_kib = vm_size_kib() - before;
  EXPECT_LT(grown_kib, 4 * 8 * 1024) << "VmSize grew by " << grown_kib << " KiB";
  EXPECT_EQ(server.served(), 65u);
  server.stop();
}

TEST(NetUds, SegmentEvaluationOverRealSocketsIsBitwise) {
  ts::LinearFieldWorld world;
  serve::ShardRouterConfig rc;
  rc.shards = 1;
  serve::ShardRouter router(world.detector(), rc);
  const std::size_t top_k = world.detector().config().confidence.top_k;

  const std::string path = "net_test_uds_seg.sock";
  ::unlink(path.c_str());
  net::UdsServer server(path, serve::make_segment_handler(router.shard(0)));
  ASSERT_TRUE(server.start().has_value());

  net::UdsTransport transport;
  serve::NetCallPolicy policy;
  policy.rpc_deadline_us = 2'000'000;  // real I/O: generous deadline
  serve::RemoteSegmentClient client(transport, {path}, top_k, policy);

  Rng rng(13);
  const auto upload = world.upload(false, rng);
  const std::size_t n = upload.positions.size();
  std::vector<double> f_local(2 * top_k * n), s_local(n);
  router.shard(0).evaluate_segment(upload, 0, n, f_local.data(), s_local.data());
  std::vector<double> f_remote(2 * top_k * n), s_remote(n);
  client.evaluate(upload, 0, n, f_remote.data(), s_remote.data());
  EXPECT_EQ(std::memcmp(f_local.data(), f_remote.data(),
                        f_local.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(s_local.data(), s_remote.data(),
                        s_local.size() * sizeof(double)),
            0);
  server.stop();
}

TEST(NetRouterRemote, ConcurrentClientsMatchOracleOverChaosAndUds) {
  // A 4-shard router driven by two client threads, first over a SimNet chaos
  // schedule, then over four real Unix-socket servers.  Faults may move where
  // a segment is evaluated, never the bits that come back.
  ts::LinearWorldConfig cfg;
  cfg.upload_points = 10;
  ts::LinearFieldWorld world(cfg);
  const std::size_t top_k = world.detector().config().confidence.top_k;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kClients = 2;

  // Local random walks cross a tile boundary every few points, so most
  // requests fan out to more than one shard.
  const double lo = cfg.margin_m;
  const double hi = cfg.area_m - cfg.margin_m;
  Rng& rng = world.rng();
  std::vector<wifi::ScannedUpload> pool;
  std::vector<std::string> oracle;
  for (int r = 0; r < 16; ++r) {
    wifi::ScannedUpload upload;
    const Enu start{rng.uniform(lo, hi), rng.uniform(lo, hi)};
    for (Enu p : ts::random_walk_enu(rng, cfg.upload_points, 2.0, start)) {
      p.east = std::clamp(p.east, lo, hi);
      p.north = std::clamp(p.north, lo, hi);
      upload.positions.push_back(p);
      upload.scans.push_back({{1, ts::LinearFieldWorld::field_rssi(p)}});
    }
    oracle.push_back(world.detector().analyze(upload).canonical_string());
    pool.push_back(std::move(upload));
  }

  // Client c takes every kClients-th request; every answer must be kOk and
  // equal the unsharded oracle.
  const auto drive = [&](serve::ShardRouter& router) {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t r = c; r < pool.size(); r += kClients) {
          const auto response = router.verify(pool[r], r);
          EXPECT_EQ(response.outcome, serve::Outcome::kOk) << response.error;
          EXPECT_EQ(response.report.canonical_string(), oracle[r])
              << "request " << r;
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(router.counters().latency_count, pool.size());
  };

  serve::ShardRouterConfig rc;
  rc.shards = kShards;
  {
    // (a) SimNet chaos: drops on both legs of each primary, primaries
    // straggling past the 10ms hedge deadline to a clean second replica, and
    // both replicas of shard 0 partitioned, so its segments degrade to the
    // resident slice.
    serve::ShardRouter router(world.detector(), rc);
    net::SimNet sim(0xc4a05);
    net::SimFaultSpec primary;
    primary.drop = 0.15;
    primary.delay = 0.3;
    primary.delay_min_us = 15'000;
    primary.delay_max_us = 60'000;
    net::SimFaultSpec response_leg;
    response_leg.drop = 0.1;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string a = "seg-" + std::to_string(s) + "a";
      const std::string b = "seg-" + std::to_string(s) + "b";
      sim.bind(a, serve::make_segment_handler(router.shard(s)));
      sim.bind(b, serve::make_segment_handler(router.shard(s)));
      sim.set_faults(a, primary, response_leg);
      router.set_remote_evaluator(
          s, std::make_shared<serve::RemoteSegmentClient>(
                 sim, std::vector<std::string>{a, b}, top_k));
    }
    sim.partition("seg-0a", net::SimNet::Partition::kFull);
    sim.partition("seg-0b", net::SimNet::Partition::kFull);
    drive(router);

    std::uint64_t touch_shard0 = 0;
    for (const auto& upload : pool) {
      const auto segments = router.split(upload);
      touch_shard0 += std::any_of(segments.begin(), segments.end(),
                                  [](const auto& seg) { return seg.shard == 0; });
    }
    const auto counters = router.counters();
    std::uint64_t hedges = 0;
    std::uint64_t timeouts = 0;
    for (const auto& stats : counters.per_shard_net) {
      hedges += stats.hedges;
      timeouts += stats.timeouts;
    }
    EXPECT_GT(hedges, 0u);
    EXPECT_GT(timeouts, 0u);
    EXPECT_GT(counters.degraded_shard_verdicts, 0u);
    // Every verdict that touches the partitioned shard degraded.
    ASSERT_GT(touch_shard0, 0u);
    EXPECT_GE(counters.degraded_shard_verdicts, touch_shard0);
  }
  {
    // (b) Real Unix-domain sockets: one server per shard.
    serve::ShardRouter router(world.detector(), rc);
    net::UdsTransport transport;
    serve::NetCallPolicy policy;
    policy.rpc_deadline_us = 2'000'000;  // real I/O under load: generous
    std::vector<std::unique_ptr<net::UdsServer>> servers;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string path = "net_test_uds_router_" + std::to_string(s) + ".sock";
      ::unlink(path.c_str());
      servers.push_back(std::make_unique<net::UdsServer>(
          path, serve::make_segment_handler(router.shard(s))));
      auto started = servers.back()->start();
      ASSERT_TRUE(started.has_value()) << started.error();
      router.set_remote_evaluator(
          s, std::make_shared<serve::RemoteSegmentClient>(
                 transport, std::vector<std::string>{path}, top_k, policy));
    }
    drive(router);
    const auto counters = router.counters();
    EXPECT_EQ(counters.degraded_shard_verdicts, 0u);
    EXPECT_EQ(counters.remote_segments, counters.segments);
    for (auto& server : servers) {
      server->stop();
      ::unlink(server->path().c_str());
    }
  }
}

TEST(NetUds, CrossProcessReplicationConvergesBitwise) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork + server threads in the child is unsupported by TSan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork + server threads in the child is unsupported by TSan";
#endif
#endif
  const std::string leader_dir = "net_test_xproc_leader";
  const std::string follower_dir = "net_test_xproc_follower";
  const std::string sock_path = "net_test_xproc.sock";
  const std::string stop_path = "net_test_xproc.stop";
  remove_store(leader_dir);
  remove_store(follower_dir);
  ::unlink(sock_path.c_str());
  ::unlink(stop_path.c_str());

  // The follower lives in a genuinely separate process: its own ShardReplica
  // over its own WAL, served through a real socket.  (Fork happens while
  // this process has no live threads — every prior server was stop()ed.)
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto replica = serve::ShardReplica::open(follower_dir);
    if (!replica.has_value()) ::_exit(71);
    net::UdsServer server(sock_path,
                          serve::make_follower_handler(*replica.value()));
    if (!server.start().has_value()) ::_exit(71);
    for (int i = 0; i < 6000; ++i) {  // ~30s guard
      struct stat st;
      if (::stat(stop_path.c_str(), &st) == 0) {
        server.stop();
        ::_exit(0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::_exit(75);
  }

  // Wait for the child's socket to come up.
  bool socket_up = false;
  for (int i = 0; i < 2000 && !socket_up; ++i) {
    struct stat st;
    socket_up = ::stat(sock_path.c_str(), &st) == 0;
    if (!socket_up) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(socket_up) << "child server never bound " << sock_path;

  auto leader = serve::ShardService::open_leader(0, leader_dir);
  ASSERT_TRUE(leader.has_value()) << leader.error();
  net::UdsTransport transport;
  serve::NetCallPolicy policy;
  policy.rpc_deadline_us = 2'000'000;
  serve::RemoteFollower remote(transport, sock_path, leader_dir, policy);
  leader.value()->attach_follower(&remote);

  for (int i = 0; i < 20; ++i) {
    auto seq = leader.value()->ingest(ingest_point(i));
    ASSERT_TRUE(seq.has_value()) << seq.error();
  }
  EXPECT_EQ(leader.value()->send_heartbeats(), 1u);
  EXPECT_EQ(leader.value()->acked_frames(), 20u);

  // Stop the child and examine its on-disk state from this process.
  std::FILE* stop = std::fopen(stop_path.c_str(), "w");
  ASSERT_NE(stop, nullptr);
  std::fclose(stop);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  ASSERT_EQ(WEXITSTATUS(status), 0);

  auto follower = serve::ShardReplica::open(follower_dir);
  ASSERT_TRUE(follower.has_value()) << follower.error();
  EXPECT_EQ(follower.value()->next_seq(), 20u);
  expect_stores_equal(*leader.value()->store(), follower.value()->store());

  remove_store(leader_dir);
  remove_store(follower_dir);
  ::unlink(sock_path.c_str());
  ::unlink(stop_path.c_str());
}

}  // namespace
}  // namespace trajkit

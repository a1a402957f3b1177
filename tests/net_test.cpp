// Cross-process shard transport under deterministic network chaos.
//
// Three layers under test, bottom up:
//
//   net/frame + net/rpc   wire codecs: length-prefixed CRC frames and the
//                         line-oriented shard protocol (%.17g doubles, so a
//                         feature vector round-trips bit-exactly).
//   net/sim               the deterministic chaos transport: every fault
//                         fate is a pure function of (seed, endpoint, leg,
//                         key, attempt), so a schedule that breaks the
//                         protocol replays bit-identically from the seed —
//                         including across thread counts (NetSimDeterminism).
//   serve/net_shard       the shard protocol over a Transport: WAL frame
//                         shipping with bounded deterministic retry, leader
//                         lease + fencing, hedged segment fan-out, and gap
//                         repair in both directions (leader-push backfill,
//                         follower-pull journal tail).
//
// The acceptance contract mirrors tests/shard_test.cpp's: under every
// injected fault schedule no acknowledged append is lost and the follower
// converges to the leader's store byte for byte; remote segment evaluation
// is bitwise-equal to local, over SimNet and over real Unix sockets with the
// server in a genuinely separate forked process.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/rpc.hpp"
#include "net/sim.hpp"
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
  ASSERT_EQ(leader.points().size(), follower.points().size());
  for (std::size_t i = 0; i < leader.points().size(); ++i) {
    EXPECT_EQ(wifi::CrowdStore::encode_point(leader.points()[i]),
              wifi::CrowdStore::encode_point(follower.points()[i]))
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

TEST(NetRpc, HeartbeatAndTailRoundTrip) {
  auto hb = net::decode_heartbeat(net::encode_heartbeat({5, 1234}));
  ASSERT_TRUE(hb.has_value()) << hb.error();
  EXPECT_EQ(hb.value().term, 5u);
  EXPECT_EQ(hb.value().leader_next_seq, 1234u);

  auto tail_req = net::decode_tail(net::encode_tail({7, 128}));
  ASSERT_TRUE(tail_req.has_value()) << tail_req.error();
  EXPECT_EQ(tail_req.value().from_seq, 7u);
  EXPECT_EQ(tail_req.value().max_frames, 128u);

  std::vector<net::TailFrame> frames = {
      {7, 1, "first\npayload"}, {8, 0, ""}, {9, 2, std::string("\0\1", 2)}};
  auto back = net::decode_tail_response(net::encode_tail_response(frames));
  ASSERT_TRUE(back.has_value()) << back.error();
  ASSERT_EQ(back.value().size(), 3u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(back.value()[i].seq, frames[i].seq);
    EXPECT_EQ(back.value()[i].uploader, frames[i].uploader);
    EXPECT_EQ(back.value()[i].payload, frames[i].payload);
  }
  // Error responses surface as failures with the message.
  auto failed = net::decode_tail_response(net::encode_rpc_error("compacted: x"));
  ASSERT_FALSE(failed.has_value());
  EXPECT_NE(failed.error().find("compacted"), std::string::npos);
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
    // Bitwise: %.17g round-trips IEEE-754 doubles exactly.
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
  std::shared_ptr<serve::FollowerNode> node;
  std::unique_ptr<serve::RemoteFollower> remote;

  NetWorld(const std::string& tag, serve::NetCallPolicy policy = {},
           std::size_t required_acks = serve::kAllFollowers,
           bool self_repair = false) {
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
    if (self_repair) {
      node = std::make_shared<serve::FollowerNode>(*replica, sim, "leader-tail",
                                                   policy);
    } else {
      node = std::make_shared<serve::FollowerNode>(*replica);
    }
    sim.bind("follower", node->handler());
    sim.bind("leader-tail", serve::make_tail_handler(leader_dir));
    remote = std::make_unique<serve::RemoteFollower>(sim, "follower", policy);
    remote->set_backfill_journal(leader_dir);
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
// Gap repair: leader push and follower pull

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

TEST(NetGapRepair, FollowerPullsJournalTailAfterHeartbeat) {
  serve::NetCallPolicy policy;
  policy.tail_chunk = 4;  // force several pull rounds
  NetWorld w("pull", policy, /*required_acks=*/0, /*self_repair=*/true);
  w.remote->set_backfill_journal("");  // pull path only: no leader push

  w.sim.partition("follower", net::SimNet::Partition::kFull);
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(w.leader->ingest(ingest_point(i)).has_value());
  }
  w.sim.heal("follower");
  EXPECT_EQ(w.replica->next_seq(), 0u);

  // The heartbeat tells the follower how far the leader is; the follower
  // pulls the missing tail itself — convergence with no new writes at all.
  EXPECT_EQ(w.leader->send_heartbeats(), 1u);
  EXPECT_EQ(w.replica->leader_next_seen(), 11u);
  auto repaired = w.node->repair_if_behind();
  ASSERT_TRUE(repaired.has_value()) << repaired.error();
  EXPECT_EQ(repaired.value(), 11u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_GE(w.node->stats().gap_backfills, 1u);
  // Already converged: repair_if_behind is a no-op now.
  ASSERT_TRUE(w.node->repair_if_behind().has_value());
  EXPECT_EQ(w.replica->next_seq(), 11u);
}

TEST(NetGapRepair, FollowerSelfRepairsWhenFrameArrivesAhead) {
  NetWorld w("selfrepair", {}, /*required_acks=*/0, /*self_repair=*/true);
  w.remote->set_backfill_journal("");  // the follower must fix itself

  w.sim.partition("follower", net::SimNet::Partition::kFull);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(w.leader->ingest(ingest_point(i)).has_value());
  }
  w.sim.heal("follower");
  // The next shipped frame arrives ahead of the follower's next_seq: the
  // node pulls the gap from the leader's tail endpoint *before* applying,
  // so the ship succeeds first try — no gap response, no leader backfill.
  ASSERT_TRUE(w.leader->ingest(ingest_point(7)).has_value());
  EXPECT_EQ(w.replica->next_seq(), 8u);
  expect_stores_equal(*w.leader->store(), w.replica->store());
  EXPECT_GE(w.node->stats().gap_backfills, 1u);
  EXPECT_EQ(w.remote->stats().gap_backfills, 0u);
}

TEST(NetGapRepair, CompactedTailDemandsRebootstrap) {
  serve::NetCallPolicy policy;
  NetWorld w("compact", policy, /*required_acks=*/0, /*self_repair=*/true);
  w.remote->set_backfill_journal("");

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
  ASSERT_EQ(w.leader->send_heartbeats(), 1u);

  // ...so repair must refuse loudly instead of inventing them.
  auto repaired = w.node->repair_if_behind();
  ASSERT_FALSE(repaired.has_value());
  EXPECT_NE(repaired.error().find("compacted"), std::string::npos)
      << repaired.error();

  // The tail handler itself reports the compaction.
  const auto raw = w.sim.call("leader-tail", net::encode_tail({0, 0}),
                              {500'000, 0, 0});
  ASSERT_EQ(raw.status, net::CallStatus::kOk);
  auto frames = net::decode_tail_response(raw.payload);
  ASSERT_FALSE(frames.has_value());
  EXPECT_NE(frames.error().find("compacted"), std::string::npos);

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
  auto acked = replica.value()->heartbeat(0, 0);
  ASSERT_TRUE(acked.has_value()) << acked.error();
  EXPECT_TRUE(replica.value()->leader_alive(500));
  clock.advance_us(400);
  EXPECT_TRUE(replica.value()->leader_alive(500));
  clock.advance_us(200);
  EXPECT_FALSE(replica.value()->leader_alive(500));  // lease lapsed
  ASSERT_TRUE(replica.value()->heartbeat(0, 0).has_value());
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
    serve::FollowerNode node(*replica.value());
    net::UdsServer server(sock_path, node.handler());
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
  serve::RemoteFollower remote(transport, sock_path, policy);
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

// Tests for the discrete-event network subsystem (src/net): event-loop
// determinism, link/transport math, and the NetBulletin acceptance
// criteria — the full protocol on a simulated network must produce the
// exact outputs and ledger byte totals of the passive board while
// additionally reporting virtual wall-clock per phase, and the fault
// injection hook must reproduce the fail-stop packing trade-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/metrics.hpp"
#include "wire/codec.hpp"

namespace yoso {
namespace {

using net::EventLoop;
using net::FaultPlan;
using net::LinkModel;
using net::NetBulletin;
using net::NetConfig;
using net::PhasePosts;
using net::Topology;
using net::Transport;

constexpr unsigned kBits = 192;

std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 16))));
    }
  }
  return inputs;
}

// --- EventLoop --------------------------------------------------------------

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(3.0, [&] { order.push_back(3); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
  EXPECT_EQ(loop.processed(), 3u);
}

TEST(EventLoop, TiesBreakInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    loop.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, HandlersMayScheduleMoreWork) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1.0, [&] {
    ++fired;
    loop.schedule_in(0.5, [&] { ++fired; });
  });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(loop.now(), 1.5);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.schedule_at(2.0, [] {});
  loop.run();
  double fired_at = -1;
  loop.schedule_at(1.0, [&] { fired_at = loop.now(); });  // in the past
  loop.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);  // never travels back in time
}

// --- LinkModel --------------------------------------------------------------

TEST(LinkModel, FragmentationMath) {
  LinkModel lan = LinkModel::lan();
  EXPECT_EQ(lan.frames_for(0), 1u);
  EXPECT_EQ(lan.frames_for(1), 1u);
  EXPECT_EQ(lan.frames_for(1500), 1u);
  EXPECT_EQ(lan.frames_for(1501), 2u);
  EXPECT_EQ(lan.wire_bytes(3000), 3000u + 2u * 66u);
  // 1 Gbps: 1 byte = 8 ns; one full frame ~ 12.5 us.
  EXPECT_NEAR(lan.transmit_seconds(1500 - 66), 1500.0 * 8.0 / 1e9, 1e-12);
}

TEST(LinkModel, PresetsAreOrderedBySpeed) {
  LinkModel lan = LinkModel::lan(), wan = LinkModel::wan(), bb = LinkModel::blockchain_bb();
  EXPECT_LT(lan.latency_s, wan.latency_s);
  EXPECT_LT(wan.latency_s, bb.latency_s);
  EXPECT_GT(lan.bandwidth_bps, wan.bandwidth_bps);
  EXPECT_GT(wan.bandwidth_bps, bb.bandwidth_bps);
  const std::size_t mb = 1 << 20;
  EXPECT_LT(lan.transmit_seconds(mb), wan.transmit_seconds(mb));
  EXPECT_LT(wan.transmit_seconds(mb), bb.transmit_seconds(mb));
}

// --- Transport --------------------------------------------------------------

TEST(TransportTest, SingleBroadcastTiming) {
  EventLoop loop;
  Transport tr(loop, LinkModel::wan(), Topology::StarViaBoard, /*observers=*/4);
  ASSERT_TRUE(tr.broadcast("alice", 1000, 0.0));
  double done = tr.run();
  // upload + hop to board + download + hop to observer.
  const double tx = tr.link().transmit_seconds(1000);
  EXPECT_NEAR(done, 2 * tx + 2 * tr.link().latency_s, 1e-9);
  EXPECT_EQ(tr.stats().delivered, 4u);
  EXPECT_EQ(tr.stats().senders.at("alice").messages, 1u);
}

TEST(TransportTest, UplinkSerializesAndMeasuresQueueing) {
  EventLoop loop;
  Transport tr(loop, LinkModel::wan(), Topology::StarViaBoard, 1);
  tr.broadcast("alice", 100000, 0.0);
  tr.broadcast("alice", 100000, 0.0);  // must wait for the first upload
  tr.run();
  const auto& s = tr.stats().senders.at("alice");
  const double tx = tr.link().transmit_seconds(100000);
  EXPECT_NEAR(s.queue_seconds, tx, 1e-9);
  EXPECT_NEAR(s.busy_seconds, 2 * tx, 1e-9);
}

TEST(TransportTest, ParallelSendersOverlapButDownlinkSerializes) {
  EventLoop loop;
  Transport tr(loop, LinkModel::wan(), Topology::StarViaBoard, 2);
  tr.broadcast("alice", 50000, 0.0);
  tr.broadcast("bob", 50000, 0.0);
  double done = tr.run();
  const double tx = tr.link().transmit_seconds(50000);
  // Uploads overlap (distinct uplinks); each observer downloads both copies
  // back-to-back through its one access link.
  EXPECT_NEAR(done, tx + 2 * tr.link().latency_s + 2 * tx, 1e-9);
  EXPECT_GT(tr.stats().downlink_queue_seconds, 0.0);
}

TEST(TransportTest, MeshUploadScalesWithAudience) {
  EventLoop loop_star, loop_mesh;
  Transport star(loop_star, LinkModel::wan(), Topology::StarViaBoard, 8);
  Transport mesh(loop_mesh, LinkModel::wan(), Topology::UniformMesh, 8);
  star.broadcast("alice", 10000, 0.0);
  mesh.broadcast("alice", 10000, 0.0);
  star.run();
  mesh.run();
  EXPECT_EQ(mesh.stats().senders.at("alice").wire_bytes,
            8u * star.stats().senders.at("alice").wire_bytes);
  EXPECT_NEAR(mesh.stats().senders.at("alice").busy_seconds,
              8 * star.stats().senders.at("alice").busy_seconds, 1e-9);
}

TEST(TransportTest, DropsAreDeterministic) {
  FaultPlan faults;
  faults.drop_prob = 0.5;
  faults.seed = 99;
  auto run_once = [&] {
    EventLoop loop;
    Transport tr(loop, LinkModel::lan(), Topology::StarViaBoard, 2, faults);
    std::vector<bool> sent;
    for (int i = 0; i < 32; ++i) sent.push_back(tr.broadcast("alice", 100, 0.0));
    tr.run();
    return sent;
  };
  auto a = run_once(), b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 32);  // some drops at p=0.5
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);   // but not all
}

// --- Bulletin one-shot enforcement ------------------------------------------

TEST(BulletinWindow, RoleDoubleSpeakRejectedOnDefaultPath) {
  Ledger ledger;
  Bulletin board(ledger);
  Rng rng(42);
  auto corr = AdversaryPlan::honest(3).committee(0);
  Committee com = make_committee("win.a", 128, 1, corr, rng);
  // Default path (no explicit speak, first_post_of_role defaulted): the
  // board itself marks the role spoken...
  board.publish(com, 0, Phase::Setup, "x", 10, 1);
  EXPECT_TRUE(com.has_spoken(0));
  // ...and an explicit first-post claim for the same role now throws.
  EXPECT_THROW(board.publish(com, 0, Phase::Setup, "x", 10, 1, /*first_post_of_role=*/true),
               std::logic_error);
}

TEST(BulletinWindow, CommitteeReactivationRejected) {
  Ledger ledger;
  Bulletin board(ledger);
  Rng rng(43);
  auto corr = AdversaryPlan::honest(3).committee(0);
  Committee a = make_committee("win.a", 128, 1, corr, rng);
  Committee b = make_committee("win.b", 128, 1, corr, rng);
  board.publish(a, 0, Phase::Setup, "x", 10, 1);
  board.publish(a, 1, Phase::Setup, "x", 10, 1);  // same window: fine
  board.publish(b, 0, Phase::Setup, "y", 10, 1);  // closes a's window
  EXPECT_THROW(board.publish(a, 2, Phase::Setup, "x", 10, 1), std::logic_error);
  // External posts are not one-shot roles and close no windows.
  board.publish_external("client0", Phase::Online, "in", 5, 1);
  board.publish(b, 1, Phase::Setup, "y", 10, 1);
}

// --- NetBulletin end-to-end acceptance --------------------------------------

struct NetRun {
  OnlineResult result;
  LedgerEntry total;
  double elapsed = 0;
  double online_s = 0;
  double offline_s = 0;
};

NetRun run_on_net(const LinkModel& link, std::uint64_t seed) {
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(3);
  auto inputs = make_inputs(c, seed);
  Ledger ledger;
  NetConfig cfg;
  cfg.link = link;
  NetBulletin board(ledger, cfg);
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), seed, &board);
  NetRun r;
  r.result = mpc.run(inputs);
  board.flush();
  r.total = mpc.ledger().total();
  r.elapsed = board.elapsed();
  r.online_s = board.phase_traffic(Phase::Online).seconds;
  r.offline_s = board.phase_traffic(Phase::Offline).seconds;
  EXPECT_EQ(board.decode_failures(), 0u);
  EXPECT_FALSE(board.stats().senders.empty());
  return r;
}

TEST(NetBulletinTest, ProtocolMatchesPassiveBoardExactly) {
  const std::uint64_t seed = 5001;
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(3);
  auto inputs = make_inputs(c, seed);

  YosoMpc passive(params, c, AdversaryPlan::honest(params.n), seed);
  auto passive_res = passive.run(inputs);

  NetRun lan = run_on_net(LinkModel::lan(), seed);

  // Identical protocol outputs and identical ledger byte totals: the
  // network layer observes the execution, it must not perturb it.
  EXPECT_EQ(lan.result.outputs, passive_res.outputs);
  EXPECT_EQ(lan.total.bytes, passive.ledger().total().bytes);
  EXPECT_EQ(lan.total.messages, passive.ledger().total().messages);
  EXPECT_EQ(lan.total.elements, passive.ledger().total().elements);
  EXPECT_EQ(lan.result.outputs, c.eval(inputs, passive.plaintext_modulus()));

  // ...while reporting real virtual time per phase.
  EXPECT_GT(lan.online_s, 0.0);
  EXPECT_GT(lan.offline_s, 0.0);
  EXPECT_GE(lan.elapsed, lan.online_s + lan.offline_s);
}

TEST(NetBulletinTest, WanIsSlowerThanLanSameBytes) {
  NetRun lan = run_on_net(LinkModel::lan(), 5002);
  NetRun wan = run_on_net(LinkModel::wan(), 5002);
  EXPECT_EQ(lan.result.outputs, wan.result.outputs);
  EXPECT_EQ(lan.total.bytes, wan.total.bytes);
  EXPECT_GT(wan.elapsed, lan.elapsed);
  EXPECT_GT(wan.online_s, lan.online_s);
}

TEST(NetBulletinTest, ReportJsonMentionsEveryPhase) {
  Ledger ledger;
  NetBulletin board(ledger, NetConfig{});
  auto json = board.report_json();
  for (const char* key : {"\"link\"", "\"setup\"", "\"offline\"", "\"online\"",
                          "\"delivered\"", "\"decode_failures\"", "\"ledger\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
}

TEST(NetBulletinTest, CdnBaselineRunsOnNetToo) {
  const std::uint64_t seed = 5003;
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(2);
  auto inputs = make_inputs(c, seed);

  CdnBaseline passive(params, c, AdversaryPlan::honest(params.n), seed);
  auto passive_res = passive.run(inputs);

  Ledger ledger;
  NetBulletin board(ledger, NetConfig{});
  CdnBaseline cdn(params, c, AdversaryPlan::honest(params.n), seed, &board);
  auto net_res = cdn.run(inputs);
  board.flush();

  EXPECT_EQ(net_res.outputs, passive_res.outputs);
  EXPECT_EQ(cdn.ledger().total().bytes, passive.ledger().total().bytes);
  EXPECT_GT(board.elapsed(), 0.0);
}

// --- Fault injection: the Section 5.4 packing trade-off ---------------------

TEST(NetFaultInjection, HalvedPackingSurvivesSilencedParties) {
  const unsigned n = 8;
  const double eps = 0.25;
  const std::uint64_t seed = 6001;
  Circuit c = wide_mul_circuit(4);
  auto inputs = make_inputs(c, seed);
  const unsigned silenced = static_cast<unsigned>(n * eps);  // floor(n*eps) = 2

  NetConfig cfg;
  cfg.faults.silence_per_committee = silenced;

  // Halved packing (failstop_mode): completes with correct outputs even
  // though every committee loses `silenced` honest parties to dead links
  // (on top of t actively malicious roles).
  auto half = ProtocolParams::for_gap(n, eps, 128, /*failstop_mode=*/true);
  {
    Ledger ledger;
    NetBulletin board(ledger, cfg);
    YosoMpc mpc(half, c,
                AdversaryPlan::fixed(n, half.t, 0, MaliciousStrategy::BadShare), seed, &board);
    auto res = mpc.run(inputs);
    board.flush();
    EXPECT_EQ(res.outputs, c.eval(inputs, mpc.plaintext_modulus()));
    EXPECT_GT(board.roles_silenced(), 0u);
    EXPECT_GT(board.elapsed(), 0.0);
  }

  // Full packing: the same outage leaves fewer than t+2(k-1)+1 verified
  // shares — no output delivery.
  auto full = ProtocolParams::for_gap(n, eps, 128, /*failstop_mode=*/false);
  {
    Ledger ledger;
    NetBulletin board(ledger, cfg);
    YosoMpc mpc(full, c,
                AdversaryPlan::fixed(n, full.t, 0, MaliciousStrategy::BadShare), seed, &board);
    EXPECT_THROW(mpc.run(inputs), ProtocolAbort);
  }
}

// --- Post accounting: the conservation law ----------------------------------

TEST(NetFaultInjection, PostLedgerConservesUnderWireFaults) {
  // Drive the full protocol through link drops plus every wire-fault class
  // and check the board's books balance per phase:
  //   originated == delivered + dropped_link + corrupt + truncated + late
  //                 + duplicate
  // whether or not the protocol survives the losses.
  const std::uint64_t seed = 6101;
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(2);
  auto inputs = make_inputs(c, seed);

  NetConfig cfg;
  cfg.faults.drop_prob = 0.05;
  cfg.faults.seed = seed;
  cfg.wire_faults.bitflip_prob = 0.1;
  cfg.wire_faults.truncate_prob = 0.1;
  cfg.wire_faults.duplicate_prob = 0.1;
  cfg.wire_faults.late_prob = 0.1;
  cfg.wire_faults.late_delay_s = 0.5;
  cfg.wire_faults.seed = seed + 1;

  Ledger ledger;
  NetBulletin board(ledger, cfg);
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), seed, &board);
  bool aborted = false;
  try {
    mpc.run(inputs);
  } catch (const ProtocolAbort& e) {
    aborted = true;  // losses may exceed the thresholds; must still balance
    EXPECT_TRUE(e.report().has_value()) << e.what();
  }
  board.flush();

  std::size_t dropped = 0;
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    const net::PhasePosts& pp = board.phase_posts(p);
    EXPECT_TRUE(pp.conserved())
        << phase_name(p) << ": originated=" << pp.originated << " delivered=" << pp.delivered
        << " dropped=" << pp.dropped();
    dropped += pp.dropped();
  }
  const net::PhasePosts total = board.total_posts();
  EXPECT_TRUE(total.conserved());
  EXPECT_GT(total.originated, 0u);
  EXPECT_GT(dropped, 0u);  // the fault plan actually fired
  EXPECT_GT(total.delivered, 0u);
  // Mutated payloads were probed through the codec and tallied separately
  // from honest decode checking (which must stay clean).
  EXPECT_GT(board.fuzz_rejected() + board.fuzz_decoded(), 0u);
  EXPECT_EQ(board.decode_failures(), 0u);
  (void)aborted;
}

TEST(NetFaultInjection, GraceWindowAdmitsLatePosts) {
  const std::uint64_t seed = 6102;
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(2);
  auto inputs = make_inputs(c, seed);

  NetConfig cfg;
  cfg.wire_faults.late_prob = 1.0;  // every committee post misses its window
  cfg.wire_faults.late_delay_s = 0.5;
  cfg.wire_faults.seed = seed;

  {
    // No grace: every post is late, so the first threshold gate starves.
    Ledger ledger;
    NetBulletin board(ledger, cfg);
    YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), seed, &board);
    EXPECT_THROW(mpc.run(inputs), ProtocolAbort);
    board.flush();
    EXPECT_GT(board.total_posts().late, 0u);
    EXPECT_EQ(board.total_posts().late_graced, 0u);
  }
  {
    // Grace covering the delay: the same posts count, the run completes
    // with correct outputs, and the books record them as late-but-graced.
    NetConfig graced = cfg;
    graced.grace_window_s = 1.0;
    Ledger ledger;
    NetBulletin board(ledger, graced);
    YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), seed, &board);
    auto res = mpc.run(inputs);
    board.flush();
    EXPECT_EQ(res.outputs, c.eval(inputs, mpc.plaintext_modulus()));
    const net::PhasePosts total = board.total_posts();
    EXPECT_EQ(total.late, 0u);
    EXPECT_GT(total.late_graced, 0u);
    EXPECT_EQ(total.originated, total.delivered);
    EXPECT_TRUE(total.conserved());
  }
}

// --- Post fate: one row per fate --------------------------------------------

// One forced post fate and the exact books it must leave on a fresh board.
struct FateCase {
  const char* name;
  void (*configure)(NetConfig&);
  bool external;
  PostStatus status;
  PhasePosts posts;          // tallies of the posting phase
  std::size_t wire_copies;   // messages priced on the wire (a duplicate is two)
  bool delivered;            // flow matrix and DAG see one delivered post
  std::size_t probed;        // mutated payloads run through the codec
  std::map<std::string, std::uint64_t> counters;  // post.* counters left nonzero
};

const FateCase kFateCases[] = {
    {"accepted", [](NetConfig&) {}, false, PostStatus::Accepted,
     PhasePosts{1, 1, 0, 0, 0, 0, 0, 0}, 1, true, 0, {{"post.accepted", 1}}},
    {"dropped_link", [](NetConfig& c) { c.faults.drop_prob = 1; }, false,
     PostStatus::DroppedLink, PhasePosts{1, 0, 1, 0, 0, 0, 0, 0}, 1, false, 0,
     {{"post.dropped_link", 1}}},
    {"corrupt", [](NetConfig& c) { c.wire_faults.bitflip_prob = 1; }, false,
     PostStatus::CorruptPayload, PhasePosts{1, 0, 0, 1, 0, 0, 0, 0}, 1, false, 1,
     {{"post.corrupt", 1}}},
    {"truncated", [](NetConfig& c) { c.wire_faults.truncate_prob = 1; }, false,
     PostStatus::Truncated, PhasePosts{1, 0, 0, 0, 1, 0, 0, 0}, 1, false, 1,
     {{"post.truncated", 1}}},
    {"duplicate", [](NetConfig& c) { c.wire_faults.duplicate_prob = 1; }, false,
     PostStatus::Accepted, PhasePosts{2, 1, 0, 0, 0, 0, 1, 0}, 2, true, 0,
     {{"post.accepted", 1}, {"post.duplicate", 1}}},
    {"late_graced",
     [](NetConfig& c) {
       c.wire_faults.late_prob = 1;
       c.wire_faults.late_delay_s = 0.5;
       c.grace_window_s = 1.0;
     },
     false, PostStatus::Accepted, PhasePosts{1, 1, 0, 0, 0, 0, 0, 1}, 1, true, 0,
     {{"post.accepted", 1}, {"post.late_graced", 1}}},
    {"late",
     [](NetConfig& c) {
       c.wire_faults.late_prob = 1;
       c.wire_faults.late_delay_s = 0.5;
       c.grace_window_s = 0.25;
     },
     false, PostStatus::Late, PhasePosts{1, 0, 0, 0, 0, 1, 0, 0}, 1, false, 0,
     {{"post.late", 1}}},
    // External senders sit outside every fault plan and outside the post.*
    // counters, which count committee posts.
    {"external", [](NetConfig& c) { c.faults.drop_prob = 1; }, true, PostStatus::Accepted,
     PhasePosts{1, 1, 0, 0, 0, 0, 0, 0}, 1, true, 0, {}},
};

TEST(NetPostFate, EachFateKeepsExactBooks) {
  const std::vector<std::uint8_t> payload =
      encode_future_ct(FutureCt{mpz_class(123456789), mpz_class(987654321)});
  for (const FateCase& fc : kFateCases) {
    SCOPED_TRACE(fc.name);
#ifndef OBS_DISABLED
    obs::metrics().reset();
#endif
    NetConfig cfg;
    fc.configure(cfg);
    Ledger ledger;
    NetBulletin board(ledger, cfg);
    Rng rng(7);
    Committee com = make_committee("fate.c", 128, 1, AdversaryPlan::honest(3).committee(0), rng);
    board.on_committee_spawn(com);
    PostStatus status = PostStatus::Accepted;
    if (fc.external) {
      board.publish_external("client0", Phase::Offline, "fate.in", 0, 2, &payload);
    } else {
      status = board.publish(com, 0, Phase::Offline, "fate.post", 0, 2, false, &payload);
    }
    board.flush();

    EXPECT_EQ(status, fc.status);
    const PhasePosts& pp = board.phase_posts(Phase::Offline);
    EXPECT_EQ(pp.originated, fc.posts.originated);
    EXPECT_EQ(pp.delivered, fc.posts.delivered);
    EXPECT_EQ(pp.dropped_link, fc.posts.dropped_link);
    EXPECT_EQ(pp.corrupt, fc.posts.corrupt);
    EXPECT_EQ(pp.truncated, fc.posts.truncated);
    EXPECT_EQ(pp.late, fc.posts.late);
    EXPECT_EQ(pp.duplicate, fc.posts.duplicate);
    EXPECT_EQ(pp.late_graced, fc.posts.late_graced);
    EXPECT_EQ(pp.originated, pp.delivered + pp.dropped());
    EXPECT_EQ(board.phase_posts(Phase::Setup).originated, 0u);
    EXPECT_EQ(board.phase_posts(Phase::Online).originated, 0u);

    const net::PhaseTraffic& traffic = board.phase_traffic(Phase::Offline);
    EXPECT_EQ(traffic.messages, fc.wire_copies);
    if (fc.status == PostStatus::Truncated) {
      EXPECT_LT(traffic.payload_bytes, payload.size());  // only the prefix hit the wire
    } else {
      EXPECT_EQ(traffic.payload_bytes, fc.wire_copies * payload.size());
    }
    EXPECT_EQ(board.fuzz_rejected() + board.fuzz_decoded(), fc.probed);
    EXPECT_EQ(board.decode_failures(), 0u);

#ifndef OBS_DISABLED
    EXPECT_EQ(board.flow().phase_total(1).messages, fc.delivered ? 1u : 0u);
    EXPECT_EQ(board.flow().phase_total(0).messages + board.flow().phase_total(2).messages, 0u);
    std::size_t dag_delivered = 0, dag_undelivered = 0;
    for (const obs::dag::DagNode& node : board.dag().nodes()) {
      if (node.kind != obs::dag::NodeKind::Post) continue;
      ++(node.delivered ? dag_delivered : dag_undelivered);
    }
    EXPECT_EQ(dag_delivered, fc.delivered ? 1u : 0u);
    EXPECT_EQ(dag_undelivered, fc.delivered ? 0u : 1u);
    for (const char* name : {"post.accepted", "post.dropped_link", "post.corrupt",
                             "post.truncated", "post.late", "post.late_graced",
                             "post.duplicate"}) {
      const auto it = fc.counters.find(name);
      EXPECT_EQ(obs::metrics().counter(name).value(), it == fc.counters.end() ? 0u : it->second)
          << name;
    }
#endif
  }
}

TEST(NetBulletinTest, ReportJsonIncludesPostAccounting) {
  Ledger ledger;
  NetBulletin board(ledger, NetConfig{});
  auto json = board.report_json();
  for (const char* key :
       {"\"posts\"", "\"originated\"", "\"dropped_link\"", "\"corrupt\"", "\"truncated\"",
        "\"late\"", "\"duplicate\"", "\"late_graced\"", "\"posts_originated\"",
        "\"posts_delivered\"", "\"posts_dropped\"", "\"fuzz_rejected\"", "\"fuzz_decoded\"",
        "\"roles_silenced\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
}

}  // namespace
}  // namespace yoso

// E9: end-to-end virtual latency over simulated links (src/net).
//
// Runs the real protocol and the CDN baseline on a NetBulletin — every
// bulletin post becomes actual framed traffic through the discrete-event
// transport — and reports per-phase virtual wall-clock seconds on the LAN
// and WAN presets.  The paper's online claim (O(1) elements per gate vs.
// the baseline's Theta(n) partial decryptions) turns into wall-clock once
// bandwidth matters: on a 50 Mbit/s WAN the baseline's per-gate byte volume
// dominates its one-round head start, so ours wins the online phase for
// n >= 8.  A final row demonstrates fail-stop fault injection: with packing
// halved (failstop_mode) the protocol still completes with floor(n*eps)
// silent parties per committee.
#include <cstdio>
#include <sstream>
#include <vector>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "perf/benchfile.hpp"

using namespace yoso;
using namespace yoso::net;

namespace {

std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 20))));
    }
  }
  return inputs;
}

struct Timing {
  double setup = 0, offline = 0, online = 0, total = 0;
  std::size_t rounds = 0, online_rounds = 0;
};

template <class Proto>
Timing run_on(const ProtocolParams& params, unsigned n, const Circuit& c, std::uint64_t seed,
              const NetConfig& cfg) {
  Ledger ledger;
  NetBulletin board(ledger, cfg);
  Proto mpc(params, c, AdversaryPlan::honest(n), seed, &board);
  mpc.run(make_inputs(c, seed));
  board.flush();
  Timing t;
  t.setup = board.phase_traffic(Phase::Setup).seconds;
  t.offline = board.phase_traffic(Phase::Offline).seconds;
  t.online = board.phase_traffic(Phase::Online).seconds;
  t.rounds = board.phase_traffic(Phase::Setup).rounds + board.phase_traffic(Phase::Offline).rounds +
             board.phase_traffic(Phase::Online).rounds;
  t.online_rounds = board.phase_traffic(Phase::Online).rounds;
  t.total = board.elapsed();
  return t;
}

}  // namespace

int main() {
  std::printf("=== E9: virtual wall-clock latency on simulated links ===\n");
  std::printf("grid circuit (width 12n, depth 4), |N| = 128, star-via-board topology\n\n");

  std::ostringstream json;
  json << "{";
  bool json_first = true;

  for (const LinkModel& link : {LinkModel::lan(), LinkModel::wan()}) {
    std::printf("[%s]  %s\n", link.name.c_str(), link.describe().c_str());
    std::printf("%4s | %28s | %28s | %8s\n", "n", "ours setup/offline/online (s)",
                "CDN  setup/offline/online (s)", "online x");
    for (unsigned n : {4u, 8u, 16u}) {
      auto params = ProtocolParams::for_gap(n, 0.25, 128);
      Circuit c = grid_mul_circuit(12 * n, 4);
      NetConfig cfg;
      cfg.link = link;
      Timing ours = run_on<YosoMpc>(params, n, c, 9300 + n, cfg);
      Timing cdn = run_on<CdnBaseline>(params, n, c, 9400 + n, cfg);
      std::printf("%4u | %8.3f %9.3f %9.3f (%2zu rds) | %8.3f %9.3f %9.3f (%2zu rds) | %7.2fx\n",
                  n, ours.setup, ours.offline, ours.online, ours.online_rounds, cdn.setup,
                  cdn.offline, cdn.online, cdn.online_rounds, cdn.online / ours.online);
      if (!json_first) json << ",";
      json_first = false;
      json << "\"" << link.name << "_n" << n << "\":{\"ours\":{\"setup_s\":" << ours.setup
           << ",\"offline_s\":" << ours.offline << ",\"online_s\":" << ours.online
           << ",\"total_s\":" << ours.total << "},\"cdn\":{\"setup_s\":" << cdn.setup
           << ",\"offline_s\":" << cdn.offline << ",\"online_s\":" << cdn.online
           << ",\"total_s\":" << cdn.total << "}}";
    }
    std::printf("\n");
  }

  // Blockchain bulletin board: 12 s confirmation latency per round, so round
  // count — not byte volume — dominates and the one extra online round of the
  // re-encryption hop shows up.  Reported for honesty about the trade-off.
  {
    const LinkModel link = LinkModel::blockchain_bb();
    std::printf("[%s]  %s\n", link.name.c_str(), link.describe().c_str());
    unsigned n = 8;
    auto params = ProtocolParams::for_gap(n, 0.25, 128);
    Circuit c = grid_mul_circuit(12 * n, 4);
    NetConfig cfg;
    cfg.link = link;
    Timing ours = run_on<YosoMpc>(params, n, c, 9308, cfg);
    Timing cdn = run_on<CdnBaseline>(params, n, c, 9408, cfg);
    std::printf("%4u | ours online %8.1f s (%zu rounds total) | CDN online %8.1f s "
                "(%zu rounds total)\n\n",
                n, ours.online, ours.rounds, cdn.online, cdn.rounds);
    json << ",\"bb_n8\":{\"ours_online_s\":" << ours.online << ",\"cdn_online_s\":" << cdn.online
         << "}";
  }

  // Fault injection: floor(n*eps) honest roles per committee go silent.
  // With packing halved (failstop_mode) the recon threshold still leaves
  // enough speakers, so the run completes — at roughly the byte cost of the
  // full-packing run on a circuit of half the width (Section 5.4).
  {
    unsigned n = 8;
    double eps = 0.25;
    auto params = ProtocolParams::for_gap(n, eps, 128, /*failstop_mode=*/true);
    Circuit c = grid_mul_circuit(2 * n, 4);
    NetConfig cfg;
    cfg.link = LinkModel::wan();
    cfg.faults.silence_per_committee = static_cast<unsigned>(n * eps);
    Ledger ledger;
    NetBulletin board(ledger, cfg);
    YosoMpc mpc(params, c, AdversaryPlan::honest(n), 9508, &board);
    mpc.run(make_inputs(c, 9508));
    board.flush();
    std::printf("[fault injection, wan]  n = %u, packing halved, %u honest roles/committee "
                "silenced\n", n, cfg.faults.silence_per_committee);
    std::printf("  completed: online %.3f s, total %.3f s, %u roles silenced in all\n\n",
                board.phase_traffic(Phase::Online).seconds, board.elapsed(),
                board.roles_silenced());
    json << ",\"failstop_wan_n8\":{\"silenced\":" << board.roles_silenced()
         << ",\"online_s\":" << board.phase_traffic(Phase::Online).seconds
         << ",\"total_s\":" << board.elapsed() << "}";
  }

  json << "}";
  perf::merge_bench_json("BENCH_comm.json", "net_latency", json.str());
  return 0;
}

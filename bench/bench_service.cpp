// E13: MPC-as-a-service under a secure-aggregation load.
//
// Drives an MpcService through a 100-session secure-aggregation campaign:
// ~2 million masked-input clients sharded through 4 gateways, one session
// per 20k-client batch, with the background triple pool preprocessing the
// batch circuit ahead of demand.  Measures service throughput
// (sessions/virtual-second), triple-pool hit rate at steady state, and the
// p50/p99 submission-to-finish latency, verifies every batch against the
// workload's cleartext oracles, and re-runs the whole campaign to assert
// the service report is bit-for-bit deterministic.
//
// Results land in BENCH_comm.json under "service_load".
//
// Usage: bench_service [sessions] [batch_clients]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/json.hpp"
#include "perf/benchfile.hpp"
#include "service/service.hpp"
#include "service/workloads.hpp"

using namespace yoso;
using service::AggregationConfig;
using service::AggregationWorkload;
using service::MpcService;
using service::ServiceConfig;
using service::SessionState;

namespace {

std::unique_ptr<MpcService> run_load(const AggregationWorkload& workload,
                                     std::uint64_t sessions) {
  ServiceConfig cfg;
  cfg.n = 4;
  cfg.eps = 0.25;
  cfg.paillier_bits = 96;
  cfg.seed = 2025;
  cfg.max_concurrent = 4;
  cfg.max_queue = 64;
  cfg.pool.lanes = 2;
  cfg.pool.capacity = 8;
  cfg.pool_circuit = workload.session_circuit();
  auto svc = std::make_unique<MpcService>(cfg);
  for (std::uint64_t b = 0; b < sessions; ++b) {
    auto batch = workload.batch(b);
    svc->submit_at(batch.submit_at, std::move(batch.request));
  }
  svc->run();
  return svc;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t sessions = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100;
  const std::uint64_t batch_clients = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20'000;

  AggregationConfig acfg;
  acfg.clients_total = sessions * batch_clients;
  acfg.batch_clients = batch_clients;
  acfg.gateways = 4;
  acfg.interarrival_s = 0.01;
  AggregationWorkload workload(acfg);

  std::printf("=== E13: service load — %llu sessions x %llu masked clients (%llu total) ===\n",
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(batch_clients),
              static_cast<unsigned long long>(acfg.clients_total));

  auto svc = run_load(workload, sessions);
  const auto stats = svc->stats();

  std::size_t verified = 0;
  for (std::uint64_t b = 0; b < sessions; ++b) {
    const auto& rec = svc->session(b + 1);
    if (rec.state != SessionState::Completed) {
      std::printf("FAIL: session %llu ended %s\n", static_cast<unsigned long long>(rec.id),
                  session_state_name(rec.state));
      continue;
    }
    if (workload.verify(workload.batch(b), rec)) ++verified;
  }

  std::printf("completed %zu / %llu  (verified %zu, rejected %zu, failed %zu)\n",
              stats.completed, static_cast<unsigned long long>(sessions), verified,
              stats.rejected, stats.failed);
  std::printf("throughput  %.1f sessions/s over %.3f virtual s\n", stats.sessions_per_sec,
              stats.duration_s);
  std::printf("latency     p50 %.4f s   p99 %.4f s\n", stats.latency_p50_s, stats.latency_p99_s);
  std::printf("triple pool hit rate %.3f  (hits %zu, misses %zu, produced %zu, peak depth %zu)\n",
              stats.pool.hit_rate(), stats.pool.hits, stats.pool.misses, stats.pool.produced,
              stats.pool.peak_depth);

  // Bit-for-bit determinism: the same submissions against a fresh service
  // must reproduce the entire report, stats and ledgers included.
  const auto svc2 = run_load(workload, sessions);
  const bool deterministic = svc->report_json() == svc2->report_json();
  std::printf("determinism %s\n", deterministic ? "bit-for-bit" : "MISMATCH");

  json::Writer w;
  w.begin_object();
  w.field("sessions", sessions);
  w.field("batch_clients", batch_clients);
  w.field("clients_total", acfg.clients_total);
  w.field("completed", static_cast<std::uint64_t>(stats.completed));
  w.field("verified", static_cast<std::uint64_t>(verified));
  w.field("sessions_per_sec", stats.sessions_per_sec);
  w.field("triple_pool_hit_rate", stats.pool.hit_rate());
  w.field("session_latency_p50_s", stats.latency_p50_s);
  w.field("session_latency_p99_s", stats.latency_p99_s);
  w.field("pool_produced", static_cast<std::uint64_t>(stats.pool.produced));
  w.field("pool_peak_depth", static_cast<std::uint64_t>(stats.pool.peak_depth));
  w.field("deterministic", deterministic ? 1 : 0);
  w.end_object();
  perf::merge_bench_json("BENCH_comm.json", "service_load", w.take());

  bool ok = deterministic && stats.completed == sessions && verified == sessions;
  // Steady-state pool efficiency only meaningful on a long enough run.
  if (sessions >= 50 && stats.pool.hit_rate() <= 0.9) {
    std::printf("FAIL: steady-state hit rate %.3f <= 0.9\n", stats.pool.hit_rate());
    ok = false;
  }
  return ok ? 0 : 1;
}

// E14: WAN/churn resilience — self-healing sessions under hostile networks.
//
// Runs the seeded churn campaign (FaultSchedule::random_churn): service-mode
// schedules layered with heterogeneous link classes (uniform WAN, geo mix,
// mobile edge), background churn realized as fail-stop departures at
// committee spawn, the per-phase silence watchdog, and the Section 5.4
// resubmission budget with capped exponential backoff.  Measures the outcome
// split (correct / recovered / classified), the retry economy (resubmits,
// watchdog timeouts, backoff seconds, bytes sunk in abandoned attempts), and
// asserts the resilience contract end-to-end: zero unacceptable runs, at
// least one schedule recovering via resubmission with its retry bytes
// balanced on the ledger, and a bit-for-bit identical re-run.
//
// Results land in BENCH_comm.json under "wan_churn".
//
// Usage: bench_wan_churn [count] [seed]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "chaos/campaign.hpp"
#include "common/json.hpp"
#include "perf/benchfile.hpp"

using namespace yoso;
using chaos::CampaignRunner;
using chaos::CampaignSummary;
using chaos::Outcome;
using chaos::RunReport;

int main(int argc, char** argv) {
  const std::size_t count = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  std::printf("=== E14: WAN/churn resilience — %zu schedules (seed %llu) ===\n", count,
              static_cast<unsigned long long>(seed));

  std::size_t resubmits = 0, timeouts = 0, recovered_sessions = 0, sunk_bytes = 0;
  double backoff_s = 0;
  std::vector<std::string> reports;
  const CampaignSummary summary =
      CampaignRunner::run_churn_campaign(seed, count, [&](const RunReport& r) {
        resubmits += r.svc_resubmits;
        timeouts += r.svc_timeouts;
        recovered_sessions += r.svc_recovered;
        sunk_bytes += r.svc_sunk_bytes;
        backoff_s += r.svc_backoff_wait_s;
        reports.push_back(r.to_json());
      });

  std::printf("outcomes    correct %zu  recovered %zu  classified %zu  (unacceptable %zu)\n",
              summary.correct, summary.recovered, summary.classified,
              summary.unacceptable.size());
  std::printf("retries     %zu resubmits, %zu watchdog timeouts, %zu sessions recovered\n",
              resubmits, timeouts, recovered_sessions);
  std::printf("retry cost  %.3f virtual s backoff, %zu bytes sunk (ledger-visible)\n",
              backoff_s, sunk_bytes);

  // Bit-for-bit determinism: the same campaign seed must reproduce every
  // RunReport, retry accounting and ledger markers included.
  std::size_t replay_idx = 0;
  bool deterministic = true;
  CampaignRunner::run_churn_campaign(seed, count, [&](const RunReport& r) {
    deterministic = deterministic && reports[replay_idx++] == r.to_json();
  });
  std::printf("determinism %s\n", deterministic ? "bit-for-bit" : "MISMATCH");

  json::Writer w;
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(count));
  w.field("seed", seed);
  w.field("correct", static_cast<std::uint64_t>(summary.correct));
  w.field("recovered", static_cast<std::uint64_t>(summary.recovered));
  w.field("classified", static_cast<std::uint64_t>(summary.classified));
  w.field("unacceptable", static_cast<std::uint64_t>(summary.unacceptable.size()));
  w.field("resubmits", static_cast<std::uint64_t>(resubmits));
  w.field("timeouts", static_cast<std::uint64_t>(timeouts));
  w.field("recovered_sessions", static_cast<std::uint64_t>(recovered_sessions));
  w.field("backoff_wait_s", backoff_s);
  w.field("sunk_bytes", static_cast<std::uint64_t>(sunk_bytes));
  w.field("deterministic", deterministic ? 1 : 0);
  w.end_object();
  perf::merge_bench_json("BENCH_comm.json", "wan_churn", w.take());

  bool ok = deterministic && summary.all_acceptable();
  if (summary.recovered == 0) {
    std::printf("FAIL: no schedule recovered via Section 5.4 resubmission\n");
    ok = false;
  }
  if (summary.recovered > 0 && sunk_bytes == 0) {
    std::printf("FAIL: recovery without ledger-visible retry bytes\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

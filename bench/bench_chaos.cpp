// E10: chaos campaign — robustness under composed fault injection.
//
// Runs a seeded campaign of FaultSchedules (adversary corruption x link
// faults x wire-level faults) through the full protocol over NetBulletin,
// machine-checking the robustness contract on every run: in-bounds
// schedules deliver guaranteed output (possibly via the Section 5.4
// degradation retry), out-of-bounds schedules end in a classified
// FailureReport — never a crash, hang, or wrong output.  Then demonstrates
// the delta-debugging minimizer on a deliberately noisy failing schedule.
//
// The outcome histogram and minimizer cost land in BENCH_comm.json under
// "chaos_campaign" so robustness regressions are visible across PRs.
#include <cstdio>
#include <sstream>

#include "chaos/campaign.hpp"
#include "chaos/minimize.hpp"
#include "perf/benchfile.hpp"

using namespace yoso;
using chaos::CampaignRunner;
using chaos::FaultSchedule;
using chaos::RunReport;

int main(int argc, char** argv) {
  const std::uint64_t seed = 42;
  const std::size_t count = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100;

  std::printf("=== E10: chaos campaign, %zu seeded schedules (seed %llu) ===\n", count,
              static_cast<unsigned long long>(seed));
  std::size_t in_bounds = 0;
  auto summary = CampaignRunner::run_campaign(seed, count, [&](const RunReport& r) {
    in_bounds += r.in_bounds ? 1 : 0;
    if (!r.acceptable()) std::printf("UNACCEPTABLE: %s\n", r.to_json().c_str());
  });
  std::printf("in-bounds %zu / %zu;  correct %zu, recovered %zu, classified %zu\n", in_bounds,
              count, summary.correct, summary.recovered, summary.classified);
  std::printf("contract breaks: wrong-output %zu, crashes %zu, invariant violations %zu\n",
              summary.wrong_output, summary.crashed, summary.invariant_violations);

  // Minimizer demonstration: a 6-dimension schedule whose failure is really
  // driven by 2 of them (malicious + fail-stop at n = 6, t = 1).
  FaultSchedule planted;
  planted.seed = 11;
  planted.n = 6;
  planted.circuit_width = 1;
  planted.malicious = 2;
  planted.failstop = 1;
  planted.silenced = 1;
  planted.duplicate_prob = 0.1;
  planted.extra_delay_s = 0.01;
  planted.late_prob = 0.1;
  planted.late_delay_s = 0.5;
  auto res = chaos::ScheduleMinimizer::minimize(planted, [](const FaultSchedule& c) {
    RunReport r = CampaignRunner::run_one(c);
    return r.outcome != chaos::Outcome::Correct && r.outcome != chaos::Outcome::Recovered;
  });
  std::printf("\nminimizer: %u -> %u active fault dimensions in %zu predicate runs\n",
              planted.active_faults(), res.schedule.active_faults(), res.tests);
  std::printf("reproducer: %s\n", res.schedule.to_json().c_str());

  std::ostringstream json;
  json << "{\"seed\":" << seed << ",\"runs\":" << count << ",\"in_bounds\":" << in_bounds
       << ",\"correct\":" << summary.correct << ",\"recovered\":" << summary.recovered
       << ",\"classified\":" << summary.classified << ",\"wrong_output\":" << summary.wrong_output
       << ",\"crashed\":" << summary.crashed
       << ",\"invariant_violations\":" << summary.invariant_violations
       << ",\"minimizer\":{\"from_faults\":" << planted.active_faults()
       << ",\"to_faults\":" << res.schedule.active_faults() << ",\"tests\":" << res.tests << "}}";
  perf::merge_bench_json("BENCH_comm.json", "chaos_campaign", json.str());
  return summary.all_acceptable() ? 0 : 1;
}

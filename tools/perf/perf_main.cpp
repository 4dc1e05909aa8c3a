// perf — the performance observatory CLI over src/perf.
//
//   perf record [--sweep 4,6,8,12,16] [--json FILE] [--history FILE]
//               [--label STR]
//       Run the online/offline/audit/critpath sweeps, print the E3 and E4
//       tables, and merge the results into the bench file (default
//       BENCH_comm.json, keys online_comm / offline_comm / scaling_audit /
//       profile / op_costs / critpath); append a timestamped snapshot to
//       the history file (default BENCH_history.jsonl, "" to skip).
//       Deterministic except the op_costs "_us" leaves: seeded protocol
//       runs, so two records of the same sweep produce identical counts;
//       self-times are measured.  A malformed --sweep list exits 2 before
//       any run.
//   perf check [--json FILE] --baseline FILE
//       Compare the recorded metrics against a committed baseline; exit
//       nonzero listing every violated tolerance (bytes +-10%, counts and
//       parameters exact, missing metric = failure).
//   perf audit [--json FILE] [--report FILE]
//       Fit the scaling_audit sweep's per-gate exponents and verdict them
//       against the paper's claimed asymptotics; re-derive the headline
//       speedup at C=1000, f=0.05.  Exit nonzero on any violated band.
//   perf trend [--history FILE]
//       Diff the last two history snapshots; list every metric that moved.
//   perf baseline [--json FILE] --out FILE
//       Seed a baseline file from the currently recorded metrics.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/batching.hpp"
#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "obs/report.hpp"
#include "obs/scaling.hpp"
#include "perf/audit.hpp"
#include "perf/baseline.hpp"
#include "perf/benchfile.hpp"
#include "perf/critpath.hpp"
#include "perf/history.hpp"
#include "perf/opcosts.hpp"
#include "perf/sweep.hpp"

namespace {

using namespace yoso;

const std::vector<std::string> kBenchKeys = {"online_comm", "offline_comm", "scaling_audit",
                                             "profile", "op_costs", "critpath"};

int usage() {
  std::fprintf(stderr,
               "usage: perf record [--sweep N,N,...] [--json FILE] [--history FILE]\n"
               "                   [--label STR]\n"
               "       perf check [--json FILE] --baseline FILE\n"
               "       perf audit [--json FILE] [--report FILE]\n"
               "       perf trend [--history FILE]\n"
               "       perf baseline [--json FILE] --out FILE\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perf: cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

std::map<std::string, double> current_metrics(const std::string& json_path) {
  const json::Value doc = json::parse(read_file(json_path));
  return perf::flatten_metrics(doc, kBenchKeys);
}

// E3: online elements per multiplication gate, ours against CDN's, with
// the analytic "naive" variant the paper warns about (packed shares left
// under tpk, Section 3.4: n partials per packed share, O(n^2 / k) per gate).
void print_online_table(const std::vector<perf::OnlinePoint>& pts) {
  std::printf("\n=== E3: online broadcast elements per multiplication gate ===\n");
  std::printf("wide circuit of width 4n, |N| = 128\n\n");
  std::printf("%4s %3s %3s | %14s | %14s | %14s | %10s\n", "n", "t", "k", "ours: mult/gate",
              "ours: total/gate", "CDN: total/gate", "naive/gate");
  for (const perf::OnlinePoint& pt : pts) {
    const double gates = static_cast<double>(pt.gates);
    // Every packed share (3 per role per batch) threshold-decrypted under
    // tpk online: 3 * n * n partials per batch of k gates.
    const double naive =
        3.0 * pt.n * pt.n * batch_count(wide_mul_circuit(4 * pt.n), pt.k) / gates;
    std::printf("%4u %3u %3u | %14.1f | %14.1f | %14.1f | %10.1f\n", pt.n, pt.t, pt.k,
                pt.ours_mult_elems / gates, pt.ours_total_elems / gates,
                pt.cdn_total_elems / gates, naive);
  }

  const perf::OnlinePoint& first = pts.front();
  const perf::OnlinePoint& last = pts.back();
  const double ours_first = first.ours_mult_elems / static_cast<double>(first.gates);
  const double ours_last = last.ours_mult_elems / static_cast<double>(last.gates);
  const double cdn_first = first.cdn_mult_elems / static_cast<double>(first.gates);
  const double cdn_last = last.cdn_mult_elems / static_cast<double>(last.gates);
  std::printf("\nShape check (n: %u -> %u, a %.1fx increase):\n", first.n, last.n,
              static_cast<double>(last.n) / first.n);
  std::printf("  ours  (mult/gate) grew %.2fx  — paper predicts ~flat (O(1))\n",
              ours_last / ours_first);
  std::printf("  CDN   (mult/gate)  grew %.2fx — paper predicts ~linear (O(n))\n",
              cdn_last / cdn_first);

  std::printf("\nPaper-scale projection (per-gate online, using measured per-element"
              " coefficients at n = %u):\n",
              last.n);
  for (double C : {1000.0, 20000.0}) {
    for (double f : {0.05, 0.20}) {
      const obs::SpeedupDerivation d =
          obs::derive_packed_speedup(C, f, ours_last, cdn_last, last.n, last.k);
      if (!d.feasible) continue;
      std::printf("  C=%6.0f f=%.2f: baseline(c'=%5.0f) ~%8.0f elems/gate, ours(c=%5.0f) "
                  "~%5.1f -> projected speedup ~%6.0fx (paper k = %u)\n",
                  C, f, d.c_prime, d.baseline_per_gate, d.c, d.ours_per_gate, d.speedup, d.k);
    }
  }
}

// E4: offline elements per multiplication gate (the paper: O(n)), with the
// per-category breakdown at the largest n.
void print_offline_table(const std::vector<perf::OfflinePoint>& pts) {
  std::printf("\n=== E4: offline broadcast elements per multiplication gate ===\n");
  std::printf("wide circuit of width n, |N| = 128\n\n");
  std::printf("%4s %3s %3s | %16s | %16s\n", "n", "t", "k", "offline elems/gate",
              "offline/(n*gate)");
  for (const perf::OfflinePoint& pt : pts) {
    const double per_gate = pt.offline_elems / static_cast<double>(pt.gates);
    std::printf("%4u %3u %3u | %16.1f | %16.2f\n", pt.n, pt.t, pt.k, per_gate, per_gate / pt.n);
  }

  const perf::OfflinePoint& first = pts.front();
  const perf::OfflinePoint& last = pts.back();
  const double first_ratio = first.offline_elems / static_cast<double>(first.gates);
  const double last_ratio = last.offline_elems / static_cast<double>(last.gates);
  std::printf("\nShape check (n: %u -> %u): offline elems/gate grew %.2fx over a %.1fx "
              "increase in n — paper predicts ~linear (O(n)).\n",
              first.n, last.n, last_ratio / first_ratio, static_cast<double>(last.n) / first.n);

  std::printf("\nPer-category offline breakdown at n = %u:\n", last.n);
  const json::Value report = json::parse(last.report);
  if (const json::Value* offline = report.find("offline")) {
    if (const json::Value* cats = offline->find("categories")) {
      for (const auto& [cat, e] : cats->members) {
        std::printf("  %-22s %8llu msgs %10llu elems %12llu bytes\n", cat.c_str(),
                    static_cast<unsigned long long>(e.u64_or("messages", 0)),
                    static_cast<unsigned long long>(e.u64_or("elements", 0)),
                    static_cast<unsigned long long>(e.u64_or("bytes", 0)));
      }
    }
  }
}

int cmd_record(const std::vector<unsigned>& sweep, const std::string& json_path,
               const std::string& history_path, const std::string& label) {
  std::vector<perf::OnlinePoint> online;
  std::vector<perf::OfflinePoint> offline;
  std::vector<perf::AuditPoint> audit;
  std::vector<perf::CritpathPoint> critpath;
  for (unsigned n : sweep) {
    std::printf("recording n=%u: online...", n);
    std::fflush(stdout);
    online.push_back(perf::run_online_point(n));
    std::printf(" offline...");
    std::fflush(stdout);
    offline.push_back(perf::run_offline_point(n));
    std::printf(" audit (k=%u)...", perf::audit_packing(n));
    std::fflush(stdout);
    audit.push_back(perf::run_audit_point(n));
    std::printf(" critpath...");
    std::fflush(stdout);
    perf::CritpathOptions copt;
    copt.n = n;
    critpath.push_back(perf::run_critpath_point(copt));
    std::printf(" done\n");
  }
  print_online_table(online);
  print_offline_table(offline);

  perf::merge_bench_json(json_path, "online_comm", perf::online_comm_json(online));
  perf::merge_bench_json(json_path, "offline_comm", perf::offline_comm_json(offline));
  perf::merge_bench_json(json_path, "scaling_audit", perf::scaling_audit_json(audit));
  perf::merge_bench_json(json_path, "profile", perf::profile_sweep_json(audit));
  perf::merge_bench_json(json_path, "op_costs", perf::op_costs_sweep_json(audit));
  perf::merge_bench_json(json_path, "critpath", perf::critpath_sweep_json(critpath));
  // Self-describing header: which build / obs generation recorded the file.
  perf::merge_bench_json(json_path, "meta", obs::run_metadata_json());

  if (!history_path.empty()) {
    perf::HistorySnapshot snap;
    snap.timestamp = utc_now();
    snap.label = label;
    snap.metrics = current_metrics(json_path);
    perf::append_history(history_path, snap);
    std::printf("[%s appended: %zu metrics]\n", history_path.c_str(), snap.metrics.size());
  }
  return 0;
}

int cmd_check(const std::string& json_path, const std::string& baseline_path) {
  const auto baseline = perf::parse_baseline(json::parse(read_file(baseline_path)));
  const auto current = current_metrics(json_path);
  const perf::CheckResult result = perf::check_against_baseline(baseline, current);
  std::printf("checked %zu metrics against %s\n", result.checked, baseline_path.c_str());
  for (const perf::Mismatch& mm : result.mismatches) {
    if (mm.missing) {
      std::printf("  MISSING %-60s expected %.6g\n", mm.metric.c_str(), mm.expected);
    } else {
      const double delta =
          mm.expected != 0 ? (mm.actual - mm.expected) / mm.expected * 100.0 : 0.0;
      std::printf("  FAIL    %-60s expected %.6g got %.6g (%+.1f%%, tol %s%.0f%%)\n",
                  mm.metric.c_str(), mm.expected, mm.actual, delta,
                  mm.tolerance > 0 ? "+-" : "exact ", mm.tolerance * 100.0);
    }
  }
  if (!result.pass()) {
    std::printf("FAIL: %zu of %zu metrics out of tolerance\n", result.mismatches.size(),
                result.checked);
    return 1;
  }
  std::printf("OK: all metrics within tolerance\n");
  return 0;
}

int cmd_audit(const std::string& json_path, const std::string& report_path) {
  const json::Value doc = json::parse(read_file(json_path));
  const perf::AuditReport report = perf::audit_scaling(doc);
  if (!report.error.empty()) {
    std::fprintf(stderr, "perf audit: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("=== scaling-law audit (%s) ===\n", json_path.c_str());
  std::printf("%-36s %8s %18s %8s %16s %s\n", "series", "slope", "95% CI", "r^2", "band",
              "verdict");
  for (const obs::ExponentCheck& check : report.checks) {
    std::printf("%-36s %8.3f [%7.3f,%7.3f] %8.4f [%5.2f,%5.2f] %s\n", check.name.c_str(),
                check.fit.slope, check.fit.ci_lo, check.fit.ci_hi, check.fit.r2, check.band.lo,
                check.band.hi, check.pass ? "PASS" : "FAIL");
  }
  const obs::SpeedupDerivation& sd = report.speedup;
  if (sd.feasible) {
    std::printf("\nHeadline re-derivation at C=%.0f, f=%.2f (sortition: c=%.0f, c'=%.0f, "
                "k=%u):\n",
                sd.C, sd.f, sd.c, sd.c_prime, sd.k);
    std::printf("  measured e0=%.3f elems/mu-share, CDN %.3f elems/gate/member\n", sd.e0,
                sd.cdn_per_member);
    std::printf("  baseline %.0f vs ours %.1f elems/gate -> speedup %.0fx (floor %.0fx) %s\n",
                sd.baseline_per_gate, sd.ours_per_gate, sd.speedup, report.speedup_floor,
                sd.speedup >= report.speedup_floor ? "PASS" : "FAIL");
  } else {
    std::printf("\nHeadline re-derivation: infeasible (missing audit data)  FAIL\n");
  }
  const perf::CostModel& cm = report.cost_model;
  if (cm.ok) {
    std::printf("\nPer-phase compute cost model (phase wall ~= sum count_p * us_p):\n");
    std::printf("  %-24s %12s %12s %12s\n", "primitive", "calls", "self_us", "us/call");
    for (const perf::CostTerm& t : cm.terms) {
      if (t.count == 0) continue;
      std::printf("  %-24s %12llu %12.1f %12.4f\n", t.op.c_str(),
                  static_cast<unsigned long long>(t.count), t.self_us, t.us_per_op);
    }
    std::printf("  %-18s %4s %14s %14s %10s\n", "phase", "n", "predicted_us", "measured_us",
                "explained");
    for (const perf::CostModelRow& row : cm.rows) {
      std::printf("  %-18s %4u %14.1f %14.1f %9.1f%%\n", row.phase.c_str(), row.n,
                  row.predicted_us, row.measured_us, row.explained * 100.0);
    }
    if (cm.fit.ok) {
      std::printf("  OLS measured ~ %.3f * predicted + %.1f us  (r^2 %.4f, %zu points)\n",
                  cm.fit.slope, cm.fit.intercept, cm.fit.r2, cm.fit.points);
    }
    std::printf("  explained at n=%u: %.1f%% (floor %.0f%%)  %s\n", cm.n_max,
                cm.explained_at_n_max * 100.0, cm.explained_floor * 100.0,
                cm.pass ? "PASS" : "FAIL");
  } else {
    std::printf("\nPer-phase compute cost model: skipped (%s)\n", cm.error.c_str());
  }
  if (!report.critpath_note.empty()) {
    std::printf("\nCritical-path forecast: skipped (%s)\n", report.critpath_note.c_str());
  } else if (!report.critpath.empty()) {
    std::printf("\nCritical-path forecast gates (monotone, <= k, <= parallelism):\n");
    std::printf("  %-6s %12s %12s %9s %9s %s\n", "point", "parallelism", "max_speedup",
                "monotone", "bounded", "verdict");
    for (const perf::CritpathCheck& check : report.critpath) {
      if (!check.error.empty()) {
        std::printf("  %-6s %s  FAIL\n", check.point.c_str(), check.error.c_str());
        continue;
      }
      std::printf("  %-6s %12.2f %12.2f %9s %9s %s\n", check.point.c_str(), check.parallelism,
                  check.max_speedup, check.monotone ? "yes" : "NO",
                  check.bounded ? "yes" : "NO", check.pass() ? "PASS" : "FAIL");
    }
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::trunc | std::ios::binary);
    out << perf::audit_report_json(report) << "\n";
  }
  std::printf("\n%s\n", report.pass ? "AUDIT PASS" : "AUDIT FAIL");
  return report.pass ? 0 : 1;
}

int cmd_trend(const std::string& history_path) {
  const auto snaps = perf::load_history(history_path);
  if (snaps.size() < 2) {
    std::printf("history %s has %zu snapshot(s); need 2 for a trend\n", history_path.c_str(),
                snaps.size());
    return 0;
  }
  const perf::HistorySnapshot& prev = snaps[snaps.size() - 2];
  const perf::HistorySnapshot& last = snaps.back();
  std::printf("trend: %s (%s) -> %s (%s)\n", prev.timestamp.c_str(), prev.label.c_str(),
              last.timestamp.c_str(), last.label.c_str());
  std::size_t moved = 0;
  for (const auto& [metric, value] : last.metrics) {
    auto it = prev.metrics.find(metric);
    if (it == prev.metrics.end()) {
      std::printf("  NEW     %-60s %.6g\n", metric.c_str(), value);
      ++moved;
    } else if (it->second != value) {
      const double delta = it->second != 0 ? (value - it->second) / it->second * 100.0 : 0.0;
      std::printf("  CHANGED %-60s %.6g -> %.6g (%+.2f%%)\n", metric.c_str(), it->second,
                  value, delta);
      ++moved;
    }
  }
  for (const auto& [metric, value] : prev.metrics) {
    if (last.metrics.find(metric) == last.metrics.end()) {
      std::printf("  GONE    %-60s was %.6g\n", metric.c_str(), value);
      ++moved;
    }
  }
  if (moved == 0) std::printf("  no metric moved (%zu tracked)\n", last.metrics.size());
  return 0;
}

int cmd_baseline(const std::string& json_path, const std::string& out_path) {
  const auto metrics = current_metrics(json_path);
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& [metric, value] : metrics) {
    json::Writer w;
    w.num(value);
    entries.emplace_back(metric, w.take());
  }
  perf::write_bench_entries(out_path, entries);
  std::printf("[%s written: %zu metrics]\n", out_path.c_str(), entries.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string json_path = "BENCH_comm.json";
  std::string history_path = "BENCH_history.jsonl";
  std::string baseline_path, out_path, report_path, label;
  std::vector<unsigned> sweep = {4, 6, 8, 12, 16};
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--history") == 0 && i + 1 < argc) {
      history_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      try {
        sweep = perf::parse_sweep(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "perf: %s\n", e.what());
        return usage();
      }
    } else {
      return usage();
    }
  }
  try {
    if (cmd == "record") {
      return cmd_record(sweep, json_path, history_path, label);
    }
    if (cmd == "check") {
      if (baseline_path.empty()) return usage();
      return cmd_check(json_path, baseline_path);
    }
    if (cmd == "audit") return cmd_audit(json_path, report_path);
    if (cmd == "trend") return cmd_trend(history_path);
    if (cmd == "baseline") {
      if (out_path.empty()) return usage();
      return cmd_baseline(json_path, out_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf: %s\n", e.what());
    return 1;
  }
  return usage();
}

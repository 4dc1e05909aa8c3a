#include "perf/sweep.hpp"

#include <charconv>
#include <stdexcept>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "mpc/protocol.hpp"
#include "obs/profile.hpp"
#include "perf/opcosts.hpp"

namespace yoso::perf {

namespace {

double category_elems(const Ledger& ledger, Phase phase, const std::string& cat) {
  const auto& cats = ledger.categories(phase);
  auto it = cats.find(cat);
  return it == cats.end() ? 0 : static_cast<double>(it->second.elements);
}

double category_bytes(const Ledger& ledger, Phase phase, const std::string& cat) {
  const auto& cats = ledger.categories(phase);
  auto it = cats.find(cat);
  return it == cats.end() ? 0 : static_cast<double>(it->second.bytes);
}

}  // namespace

unsigned audit_packing(unsigned n) {
  const unsigned k = (n + 2) / 4;
  return k == 0 ? 1 : k;
}

AuditSetup audit_setup(unsigned n) {
  AuditSetup s;
  s.params = ProtocolParams::for_gap(n, 0.25, 128);
  s.params.k = audit_packing(n);
  s.params.validate();
  s.circuit = wide_mul_circuit(4 * n);
  return s;
}

std::vector<std::vector<mpz_class>> sweep_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 20))));
    }
  }
  return inputs;
}

std::vector<unsigned> parse_sweep(const std::string& arg) {
  std::vector<unsigned> ns;
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    std::size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string tok = arg.substr(pos, comma - pos);
    unsigned n = 0;
    const char* end = tok.data() + tok.size();
    const auto [last, ec] = std::from_chars(tok.data(), end, n);
    if (ec != std::errc() || last != end || n == 0) {
      throw std::invalid_argument("--sweep: '" + tok + "' is not a positive decimal integer");
    }
    ns.push_back(n);
    pos = comma + 1;
  }
  return ns;
}

OnlinePoint run_online_point(unsigned n) {
  OnlinePoint pt;
  pt.n = n;
  auto params = ProtocolParams::for_gap(n, 0.25, 128);
  pt.t = params.t;
  pt.k = params.k;
  Circuit c = wide_mul_circuit(4 * n);  // width Theta(n), the paper's regime
  pt.gates = c.num_mul_gates();

  YosoMpc ours(params, c, AdversaryPlan::honest(n), 9000 + n);
  ours.run(sweep_inputs(c, n));
  pt.ours_mult_elems = category_elems(ours.ledger(), Phase::Online, "online.mult");
  pt.ours_total_elems = static_cast<double>(ours.ledger().phase_total(Phase::Online).elements);
  pt.ours_report = ours.ledger().report_json();

  CdnBaseline cdn(params, c, AdversaryPlan::honest(n), 9100 + n);
  cdn.run(sweep_inputs(c, n));
  pt.cdn_mult_elems = category_elems(cdn.ledger(), Phase::Online, "cdn.mult.pdec");
  pt.cdn_total_elems = static_cast<double>(cdn.ledger().phase_total(Phase::Online).elements);
  pt.cdn_report = cdn.ledger().report_json();
  return pt;
}

OfflinePoint run_offline_point(unsigned n) {
  OfflinePoint pt;
  pt.n = n;
  auto params = ProtocolParams::for_gap(n, 0.25, 128);
  pt.t = params.t;
  pt.k = params.k;
  Circuit c = wide_mul_circuit(n);
  pt.gates = c.num_mul_gates();

  YosoMpc mpc(params, c, AdversaryPlan::honest(n), 9200 + n);
  mpc.run(sweep_inputs(c, n));
  pt.offline_elems = static_cast<double>(mpc.ledger().phase_total(Phase::Offline).elements);
  pt.offline_bytes = static_cast<double>(mpc.ledger().phase_total(Phase::Offline).bytes);
  pt.report = mpc.ledger().report_json();
  return pt;
}

AuditPoint run_audit_point(unsigned n) {
  AuditPoint pt;
  pt.n = n;
  const AuditSetup setup = audit_setup(n);
  const Circuit& c = setup.circuit;
  pt.t = setup.params.t;
  pt.k = setup.params.k;
  pt.gates = c.num_mul_gates();

#ifndef OBS_DISABLED
  // Fresh cell per point: the profile and op_costs payloads count this
  // point's two runs and nothing before them.
  obs::profiler().reset();
#endif

  YosoMpc ours(setup.params, c, AdversaryPlan::honest(n), 9300 + n);
  ours.run(sweep_inputs(c, n));
  pt.ours_mult_elems = category_elems(ours.ledger(), Phase::Online, "online.mult");
  pt.ours_mult_bytes = category_bytes(ours.ledger(), Phase::Online, "online.mult");
  pt.offline_elems = static_cast<double>(ours.ledger().phase_total(Phase::Offline).elements);
  pt.offline_bytes = static_cast<double>(ours.ledger().phase_total(Phase::Offline).bytes);
  pt.ours_report = ours.ledger().report_json();

  CdnBaseline cdn(setup.params, c, AdversaryPlan::honest(n), 9400 + n);
  cdn.run(sweep_inputs(c, n));
  pt.cdn_mult_elems = category_elems(cdn.ledger(), Phase::Online, "cdn.mult.pdec");
  pt.cdn_mult_bytes = category_bytes(cdn.ledger(), Phase::Online, "cdn.mult.pdec");
  pt.cdn_report = cdn.ledger().report_json();

#ifndef OBS_DISABLED
  const obs::InstrumentCell cell = obs::profiler().snapshot();
  pt.counts_json = cell.snapshot_json(false);
  pt.costs_json = op_costs_point_json(cell);
#else
  pt.counts_json = "{}";
  pt.costs_json = "{}";
#endif
  return pt;
}

std::string online_comm_json(const std::vector<OnlinePoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.key("ours").raw(pt.ours_report);
    w.key("cdn").raw(pt.cdn_report);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::string offline_comm_json(const std::vector<OfflinePoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).raw(pt.report);
  }
  w.end_object();
  return w.take();
}

std::string scaling_audit_json(const std::vector<AuditPoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.field("t", pt.t);
    w.field("k", pt.k);
    w.field("gates", static_cast<std::uint64_t>(pt.gates));
    w.key("ours").raw(pt.ours_report);
    w.key("cdn").raw(pt.cdn_report);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace yoso::perf

// Self-tests of the benchmark harness itself: the metric catalogue is
// well-formed, generated inputs and op counts repeat exactly on a seed, and
// both oracles reject a deliberately corrupted output.  Exit code 0 = pass.
//
//   wallbench_selftest        (or: python3 wallbench/run.py --selftest)
#include <chrono>
#include <cstdio>
#include <set>
#include <string>

#include "bench.hpp"
#include "mpc/protocol.hpp"
#include "obs/runtime.hpp"

using namespace wallbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_catalogue() {
  std::set<std::string> seen;
  bool names_ok = true, units_ok = true, unique = true;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const auto& s : *specs) {
      names_ok = names_ok && valid_metric_name(s.name);
      units_ok = units_ok && valid_unit(s.unit);
      unique = seen.insert(s.name).second && unique;
    }
  }
  check(names_ok, "every metric name matches [A-Za-z0-9_.-]+");
  check(units_ok, "every metric carries a valid unit");
  check(unique, "metric names are unique across both catalogues");
  check(!valid_metric_name("bad name") && !valid_metric_name(".lead") && !valid_unit(""),
        "malformed names and units are rejected");

  MetricValues mv;
  bool rejected_unknown = false;
  try {
    mv.set(end_to_end_specs(), "no_such_metric", 1);
  } catch (const std::logic_error&) {
    rejected_unknown = true;
  }
  bool rejected_partial = false;
  try {
    mv.set(end_to_end_specs(), "setup_s", 1);
    (void)mv.json(end_to_end_specs());
  } catch (const std::logic_error&) {
    rejected_partial = true;
  }
  check(rejected_unknown && rejected_partial,
        "a run cannot print a metric outside, or a subset of, its catalogue");

  const Quartiles q = quartiles({5, 1, 4, 2, 3});
  check(q.median == 3 && q.q1 == 2 && q.q3 == 4 && q.n == 5, "quartiles of 1..5");
}

void test_determinism() {
  for (Workload w : {Workload::OfflineWide, Workload::OnlineDeep, Workload::ServiceAgg}) {
    const ProtocolShape shape = protocol_shape(w);
    check(make_inputs(shape.circuit, 11) == make_inputs(shape.circuit, 11) &&
              make_inputs(shape.circuit, 11) != make_inputs(shape.circuit, 12),
          std::string(workload_name(w)) + ": inputs are a function of the seed");
  }
  check(derive_seed(5, 0) == derive_seed(5, 0) && derive_seed(5, 0) != derive_seed(5, 1) &&
            derive_seed(5, 0) != derive_seed(6, 0),
        "instance seeds derive from (seed, index)");

  // The service's session shape is the cheapest full instance.
  const ProtocolShape shape = protocol_shape(Workload::ServiceAgg);
  const InstanceRecord a = run_protocol_instance(shape, 21, false);
  const InstanceRecord b = run_protocol_instance(shape, 21, false);
  const InstanceRecord traced = run_protocol_instance(shape, 21, true);
  check(a.ok && b.ok && traced.ok, "instances complete and match Circuit::eval");
  check(a.same_counts(b), "same seed: identical op counts and ledger bytes");
  check(a.same_counts(traced), "muted and traced runs count identically");
  check(a.offline.calls(yoso::obs::Op::CtPowmSec) > 0 && a.bytes[2] > 0,
        "op counts and ledger bytes are recorded while obs is muted");
  check(traced.offline.leaf_self_ns() > 0 && a.offline.leaf_self_ns() == 0,
        "self time is recorded only on traced instances");
}

void test_protocol_oracle() {
  // offline_wide's circuit at the service's small parameters, for speed.
  const Circuit circuit = protocol_shape(Workload::OfflineWide).circuit;
  const ProtocolShape small = protocol_shape(Workload::ServiceAgg);
  const auto params = small.params();
  const auto inputs = make_inputs(circuit, 31);
  yoso::YosoMpc mpc(params, circuit, yoso::AdversaryPlan::honest(params.n), 31);
  auto result = mpc.run(inputs);
  const mpz_class& mod = mpc.plaintext_modulus();
  check(outputs_match(circuit, inputs, result.outputs, mod),
        "protocol oracle accepts a real run's outputs");
  result.outputs[3] = (result.outputs[3] + 1) % mod;
  check(!outputs_match(circuit, inputs, result.outputs, mod),
        "protocol oracle rejects a corrupted output");
}

void test_service_oracle() {
  // One aggregation batch run standalone at the service's parameters; the
  // pass checks each session with this same AggregationWorkload::verify.
  const yoso::service::AggregationWorkload workload(aggregation_config(41));
  const auto batch = workload.batch(0);
  const ProtocolShape session = protocol_shape(Workload::ServiceAgg);
  const auto params = session.params();
  yoso::YosoMpc mpc(params, batch.request.circuit, yoso::AdversaryPlan::honest(params.n), 41);
  yoso::service::SessionRecord rec;
  rec.state = yoso::service::SessionState::Completed;
  rec.outputs = mpc.run(batch.request.inputs).outputs;
  rec.plaintext_modulus = mpc.plaintext_modulus();
  check(workload.verify(batch, rec), "service oracle accepts a real session's outputs");
  rec.outputs[0] = (rec.outputs[0] + 1) % rec.plaintext_modulus;
  check(!workload.verify(batch, rec), "service oracle rejects a corrupted output");
}

void test_pace_clock() {
  // Busy work of ~200 ms on the tick kernel's operand size.
  auto spin = [] {
    mpz_class m = (mpz_class(1) << 383) + 187, b = 3, acc;
    const mpz_class e = m - 2;
    const double t0 = now_s();
    while (now_s() - t0 < 0.2) {
      mpz_powm(acc.get_mpz_t(), b.get_mpz_t(), e.get_mpz_t(), m.get_mpz_t());
      b += acc;
    }
  };
  double paced = 0, last = 0;
  bool monotone = true;
  PaceStats stats;
  {
    const Pacer pacer;
    const double w0 = std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
    const double t0 = now_s();
    last = t0;
    for (int i = 0; i < 4; ++i) {
      spin();
      const double t = now_s();
      monotone = monotone && t >= last;
      last = t;
    }
    paced = (last - t0) / (std::chrono::duration<double>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count() -
                           w0);
    stats = pacer.stats();
  }
  check(monotone, "pace clock never runs backwards");
  check(stats.ticks >= 20 && stats.tick_us.median > 0, "pacer ticks while busy work runs");
  check(paced > 0.1 && paced < 10, "pace-seconds advance with wall time (rate within 0.1..10)");
  bool second_rejected = false;
  {
    const Pacer pacer;
    try {
      const Pacer other;
    } catch (const std::logic_error&) {
      second_rejected = true;
    }
  }
  check(second_rejected, "only one pacer at a time");
}

}  // namespace

int main() {
  yoso::obs::set_enabled(false);
  test_catalogue();
  test_pace_clock();
  test_determinism();
  test_protocol_oracle();
  test_service_oracle();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

// E11: observability overhead — the tracing & metrics layer must be close
// to free when muted and cheap when recording.
//
// Runs the identical full protocol (YosoMpc over NetBulletin, no faults)
// twice per repetition in the same binary: once with obs::set_enabled(false)
// (every span/counter call is one untaken branch) and once with recording
// on.  The wall-clock delta lands in BENCH_comm.json under "obs_overhead";
// the acceptance bar for the compile-time OBS_DISABLED configuration is
// checked separately by building with -DYOSO_OBS_DISABLED=ON.
#include <chrono>
#include <cstdio>
#include <memory>

#include "chaos/schedule.hpp"
#include "common/json.hpp"
#include "crypto/rand.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "net/wire_faults.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "obs/trace.hpp"
#include "perf/benchfile.hpp"

using namespace yoso;

namespace {

std::vector<std::vector<mpz_class>> inputs_for(const Circuit& c, std::uint64_t seed) {
  Rng rng(net::mix64(seed ^ 0x10901575ULL));
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1u << 16))));
    }
  }
  return inputs;
}

double run_once_ms(const chaos::FaultSchedule& schedule,
                   const std::vector<std::vector<mpz_class>>& inputs) {
  Ledger ledger;
  net::NetBulletin board(ledger, schedule.net_config());
  const auto t0 = std::chrono::steady_clock::now();
  YosoMpc mpc(schedule.params(), schedule.circuit(), schedule.adversary(), schedule.seed, &board);
  (void)mpc.run(inputs);
  board.flush();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t reps = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;
  chaos::FaultSchedule schedule;  // defaults: n = 6, width 2, no faults
  const Circuit circuit = schedule.circuit();
  const auto inputs = inputs_for(circuit, schedule.seed);

  std::printf("=== E11: obs overhead, n=%u width=%u, %zu reps ===\n", schedule.n,
              schedule.circuit_width, reps);

  double off_ms = 0, on_ms = 0;
  std::size_t spans = 0;
#ifndef OBS_DISABLED
  for (std::size_t r = 0; r < reps; ++r) {
    obs::set_enabled(false);
    off_ms += run_once_ms(schedule, inputs);
    obs::set_enabled(true);
    obs::tracer().reset();
    obs::metrics().reset();
    on_ms += run_once_ms(schedule, inputs);
    spans = obs::tracer().spans().size();
  }
  obs::set_enabled(true);
#else
  for (std::size_t r = 0; r < reps; ++r) {
    off_ms += run_once_ms(schedule, inputs);
    on_ms += run_once_ms(schedule, inputs);
  }
#endif
  off_ms /= static_cast<double>(reps);
  on_ms /= static_cast<double>(reps);
  const double overhead_pct = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;

  std::printf("muted   %.3f ms/run\n", off_ms);
  std::printf("enabled %.3f ms/run  (%zu spans recorded)\n", on_ms, spans);
  std::printf("overhead %.2f%%\n", overhead_pct);

  json::Writer w;
  w.begin_object();
  w.field("reps", static_cast<std::uint64_t>(reps));
  w.field("n", schedule.n).field("width", schedule.circuit_width);
  w.field("disabled_ms", off_ms).field("enabled_ms", on_ms);
  w.field("overhead_pct", overhead_pct);
  w.field("spans", static_cast<std::uint64_t>(spans));
#ifdef OBS_DISABLED
  w.field("compiled_out", true);
#else
  w.field("compiled_out", false);
#endif
  w.end_object();
  perf::merge_bench_json("BENCH_comm.json", "obs_overhead", w.take());
  return 0;
}

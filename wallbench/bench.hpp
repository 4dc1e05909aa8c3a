// Wall-clock benchmark of the YOSO MPC stack: metric catalogue, the three
// seeded workloads, and the per-layer timing pass.
//
// Everything here drives the library through its public API only
// (YosoMpc, MpcService and each module's public functions); no library
// code is modified or instrumented for the benchmark.  README.md in this
// directory is the user guide: metric map, workloads, how to run.
#pragma once

#include <gmpxx.h>
#include <time.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "mpc/params.hpp"
#include "obs/profile.hpp"
#include "service/workloads.hpp"

namespace wallbench {

using yoso::Circuit;

// ---------------------------------------------------------------------------
// Statistics and the metric catalogue.
// ---------------------------------------------------------------------------

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
  std::size_t n = 0;
};

// Linear-interpolated quartiles of `v` (empty -> all zero, n = 0).
Quartiles quartiles(std::vector<double> v);
inline double median(std::vector<double> v) { return quartiles(std::move(v)).median; }

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The end-to-end metrics every untraced run reports, and the per-layer
// metrics every traced run reports; BENCHMARK.json lists the same names.
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

bool valid_metric_name(std::string_view name);  // [A-Za-z0-9_.-]+, <= 64, leading alnum
bool valid_unit(std::string_view unit);         // [A-Za-z0-9_/%.-]+, <= 16

// One run's metric values.  set() rejects names outside the catalogue and
// json() rejects a catalogue it does not fully cover, so a run can only
// print exactly the metric set it promises.
class MetricValues {
public:
  void set(const std::vector<MetricSpec>& specs, const std::string& name, double value);
  std::string json(const std::vector<MetricSpec>& specs) const;

private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Pace clock (pace.cpp).
// ---------------------------------------------------------------------------

// Monotonic seconds.  While a Pacer is alive: pace-seconds, wall time
// rescaled to the host's nominal pace, so that the same work reads the same
// time however loaded the shared host is.  Only differences of readings
// taken within one Pacer's life mean anything.
double now_s();

struct PaceStats {
  std::size_t ticks = 0;
  Quartiles tick_us;  // the reference kernel's wall time per tick
};

// Interrupts the calling thread every 10 ms to time a reference kernel and
// keeps now_s()'s pace estimate.  One at a time; the process must not block
// or rely on SIGALRM while it lives.
class Pacer {
public:
  Pacer();
  ~Pacer();
  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;
  PaceStats stats() const;

private:
  timer_t timer_{};
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Workload { OfflineWide, OnlineDeep, ServiceAgg };

// Parses a workload name; false for an unknown one.
bool parse_workload(std::string_view name, Workload* out);
const char* workload_name(Workload w);

// Instance seed `index` of a run seeded with `seed` (splitmix64 mixing).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

// The protocol instance a workload drives.  service_agg's shape is the
// service's own session circuit at the service's parameters: the probe
// sessions of a service pass (below) run it standalone.
inline constexpr double kEps = 0.25;  // the gap of every workload

struct ProtocolShape {
  unsigned n = 0;
  unsigned paillier_bits = 0;
  // "" runs on the passive Bulletin; otherwise a net::LinkModel::by_name
  // preset for a NetBulletin, which round-trips every post through the codec.
  std::string link;
  Circuit circuit;

  yoso::ProtocolParams params() const {
    return yoso::ProtocolParams::for_gap(n, kEps, paillier_bits);
  }
};
ProtocolShape protocol_shape(Workload w);

// Clients' inputs for one instance, generated from the instance seed.
std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed);

// The cleartext oracle: outputs equal Circuit::eval at the plaintext modulus.
bool outputs_match(const Circuit& c, const std::vector<std::vector<mpz_class>>& inputs,
                   const std::vector<mpz_class>& outputs, const mpz_class& modulus);

// Profiler op counts and self time, summed over phase contexts.
struct OpTotals {
  std::array<std::uint64_t, yoso::obs::kOpCount> count{};
  std::array<std::uint64_t, yoso::obs::kOpCount> self_ns{};

  std::uint64_t calls(yoso::obs::Op op) const { return count[static_cast<unsigned>(op)]; }
  // Self time of the leaf ops (ct_math, sharing, wire): the ops that
  // enclose no other profiled op, so their sum double counts nothing.
  std::uint64_t leaf_self_ns() const;
  bool operator==(const OpTotals& o) const { return count == o.count; }  // counts only
};

struct InstanceRecord {
  std::uint64_t seed = 0;
  bool ok = false;    // completed and matched the oracle
  std::string error;  // abort / exception / mismatch description
  double setup_s = 0, offline_s = 0, online_s = 0, cpu_s = 0;
  std::size_t mul_gates = 0;
  OpTotals offline, online;              // profiler deltas over preprocess / evaluate
  std::array<std::size_t, 3> bytes{};    // ledger bytes by Phase (setup, offline, online)
  std::array<std::size_t, 3> posts{};    // ledger messages by Phase
  unsigned epochs = 0, committees = 0;
  double net_offline_s = 0, net_online_s = 0;  // NetBulletin virtual clock
  std::size_t net_online_rounds = 0, decode_failures = 0;

  double wall_s() const { return setup_s + offline_s + online_s; }
  // Op counts and ledger bytes: a pure function of the instance seed.
  bool same_counts(const InstanceRecord& o) const;
};

// Builds, preprocesses and evaluates one instance.  `traced` enables obs
// around the calls and opens spans from this file; otherwise obs stays
// muted and only the always-on op counts are recorded.
InstanceRecord run_protocol_instance(const ProtocolShape& shape, std::uint64_t seed, bool traced);

// Wall time of the set-up part alone (params, circuit, inputs, YosoMpc).
double time_protocol_setup(const ProtocolShape& shape, std::uint64_t seed);

// service_agg: sessions per MpcService pass, and probe sessions per pass.
// MpcService::run() has no public seam between a session's phases, yet every
// untraced result carries offline_s and online_s; so each pass also runs
// kProbeSessions of its session shape standalone through YosoMpc, where
// preprocess() and evaluate() can be timed apart.
inline constexpr unsigned kServiceSessions = 16;
inline constexpr unsigned kProbeSessions = 6;

struct ServicePassRecord {
  std::uint64_t seed = 0;
  std::string error;
  double setup_s = 0, run_s = 0, cpu_s = 0;
  std::size_t sessions = 0, verified = 0, mul_gates = 0;
  std::size_t rejected = 0, failed = 0, resubmits = 0;
  std::size_t pool_hits = 0, pool_misses = 0, pool_produced = 0;
  double virtual_p50_s = 0, virtual_p99_s = 0;
  OpTotals offline, online;  // by profiler phase context (online = Online)
  std::array<std::size_t, 3> bytes{}, posts{};  // aggregate ledger
  // Traced only: Setup+Offline and Online phase wall, and the leaf self time
  // inside exactly those contexts (committee spawns run outside them).
  double phase_wall_offline_s = 0, phase_wall_online_s = 0;
  std::uint64_t phase_leaf_offline_ns = 0;
  std::vector<InstanceRecord> probes;  // kProbeSessions, after run()

  bool ok = false;  // every session passed verify() and every probe its oracle
  double wall_s() const;
  bool same_counts(const ServicePassRecord& o) const;
};

// One MpcService pass of kServiceSessions secure-aggregation sessions,
// every session checked against AggregationWorkload::verify, followed by
// its probe sessions.
ServicePassRecord run_service_pass(std::uint64_t seed, bool traced);
double time_service_setup(std::uint64_t seed);

// The secure-aggregation load of the pass seeded `seed`; its verify() is
// the oracle every session of that pass is checked against.
yoso::service::AggregationConfig aggregation_config(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Layer pass: each public layer function timed at the workload's own
// (bits, s, n, t, k).
// ---------------------------------------------------------------------------

struct LayerRow {
  std::string metric;  // per-layer metric name (unit us)
  Quartiles us;        // per-call microseconds over repeats
  std::size_t batch = 1;  // calls per timed repeat
};

// Exponent classes s timed for ct_math: modulus N^{s+1}, exponent < N^s.
// The union of the classes the three workloads' keys use.
inline constexpr std::array<unsigned, 5> kPowmClasses = {1, 3, 4, 5, 6};

// Throws std::runtime_error if a layer function returns a wrong result.
std::vector<LayerRow> run_layer_pass(const yoso::ProtocolParams& params, std::uint64_t seed);

}  // namespace wallbench

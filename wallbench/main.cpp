// wallbench: the repository's wall-clock benchmark (README.md).
//
//   wallbench --workload <offline_wide|online_deep|service_agg> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//   wallbench --list-metrics
//
// --trace 0 is the untraced pass: obs muted, a closed loop of instances
// (one caller, the next instance starts when the previous evaluate()
// returns) for about --seconds, printing the end-to-end metrics.
// --trace 1 is the traced pass: the layer pass, then pairs of muted and
// obs-enabled instances on the same seed, printing the per-layer metrics.
// The last stdout line is the result object; the exit code is 0 only when
// every instance matched its oracle and replays were deterministic.
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "obs/runtime.hpp"

using namespace wallbench;
using yoso::obs::Op;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kMinInstances = 3;  // instance 1 replays instance 0's seed
constexpr unsigned kMinPairs = 2;
// Extra set-ups timed after every instance (warm heap, as in a long-lived
// caller), so setup_s is a median over many samples spread across the run.
constexpr unsigned kProtocolSetupReps = 40;
constexpr unsigned kServiceSetupReps = 10;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

struct Args {
  Workload workload = Workload::OfflineWide;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
  bool list_metrics = false;
};

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a->list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      if (!parse_workload(v, &a->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(v, &a->seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(v, &u) || u == 0 || u > 600) return false;
      a->seconds = static_cast<double>(u);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(v, &u) || u > 1) return false;
      a->trace = u == 1;
      have_trace = true;
    } else if (flag == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return a->list_metrics || (have_workload && have_seed && have_seconds && have_trace);
}

double elapsed_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident set of this process image.  VmHWM, not getrusage's
// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
// launching process's (e.g. a Python parent's) footprint as a floor.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

template <class R, class F>
std::vector<double> collect(const std::vector<R>& recs, F f) {
  std::vector<double> v;
  for (const auto& r : recs) v.push_back(static_cast<double>(f(r)));
  return v;
}

template <class R, class F>
double med(const std::vector<R>& recs, F f) {
  return median(collect(recs, f));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Everything one run reports, plus the human-readable lines before it.
struct Outcome {
  std::size_t attempted = 0, failed = 0;
  bool deterministic = true;
  std::vector<std::string> errors;
  MetricValues metrics;
  std::vector<std::string> notes;  // printed as "# ..." lines

  void note_quartiles(const std::string& name, const char* unit, std::vector<double> v) {
    const Quartiles q = quartiles(std::move(v));
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-24s median %-12.6g q1 %-12.6g q3 %-12.6g %s  (n=%zu)",
                  name.c_str(), q.median, q.q1, q.q3, unit, q.n);
    notes.emplace_back(buf);
  }
};

void account(Outcome& out, const InstanceRecord& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "instance seed %020llu setup %.6f offline %.6f online %.6f %s",
                static_cast<unsigned long long>(r.seed), r.setup_s, r.offline_s, r.online_s,
                r.ok ? "ok" : "FAILED");
  out.notes.emplace_back(buf);
  ++out.attempted;
  if (!r.ok) {
    ++out.failed;
    out.errors.push_back("instance seed " + std::to_string(r.seed) + ": " + r.error);
  }
}

void account(Outcome& out, const ServicePassRecord& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "pass seed %020llu setup %.6f run %.6f verified %zu/%zu",
                static_cast<unsigned long long>(r.seed), r.setup_s, r.run_s, r.verified,
                r.sessions);
  out.notes.emplace_back(buf);
  out.attempted += r.sessions;
  out.failed += r.sessions - r.verified;
  if (!r.error.empty()) out.errors.push_back("pass seed " + std::to_string(r.seed) + ": " + r.error);
  for (const auto& p : r.probes) account(out, p);
}

template <class R>
void check_replay(Outcome& out, const R& first, const R& replay, const char* what) {
  if (!first.same_counts(replay)) {
    out.deterministic = false;
    out.errors.push_back(std::string(what) +
                         ": op counts or ledger bytes differ on the same seed; run invalid");
  }
}

template <class R>
std::vector<R> ok_only(const std::vector<R>& recs) {
  std::vector<R> ok;
  for (const auto& r : recs) {
    if (r.ok) ok.push_back(r);
  }
  return ok;
}

std::vector<InstanceRecord> probes_of(const std::vector<ServicePassRecord>& passes) {
  std::vector<InstanceRecord> probes;
  for (const auto& p : passes) probes.insert(probes.end(), p.probes.begin(), p.probes.end());
  return probes;
}

// ---- end-to-end (untraced) ------------------------------------------------

void set_setup(Outcome& out, const std::vector<double>& setups) {
  out.note_quartiles("setup_s", "s", setups);
  out.metrics.set(end_to_end_specs(), "setup_s", median(setups));
}

void note_pace(Outcome& out, const PaceStats& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "pace: %zu ticks, reference kernel median %.1f q1 %.1f q3 %.1f us "
                "(timings are pace-seconds)",
                p.ticks, p.tick_us.median, p.tick_us.q1, p.tick_us.q3);
  out.notes.emplace_back(buf);
}

void set_phases(Outcome& out, const std::vector<InstanceRecord>& recs) {
  const auto& specs = end_to_end_specs();
  out.note_quartiles("offline_s", "s", collect(recs, [](auto& r) { return r.offline_s; }));
  out.metrics.set(specs, "offline_s", med(recs, [](auto& r) { return r.offline_s; }));
  out.note_quartiles("online_s", "s", collect(recs, [](auto& r) { return r.online_s; }));
  out.metrics.set(specs, "online_s", med(recs, [](auto& r) { return r.online_s; }));
}

// Bytes per mul gate by phase, over records carrying `bytes` and `mul_gates`.
template <class R>
void set_bytes_per_gate(Outcome& out, const std::vector<R>& recs) {
  const auto& specs = end_to_end_specs();
  out.metrics.set(specs, "online_bytes_per_gate", med(recs, [](auto& r) {
    return ratio(static_cast<double>(r.bytes[2]), static_cast<double>(r.mul_gates));
  }));
  out.metrics.set(specs, "offline_bytes_per_gate", med(recs, [](auto& r) {
    return ratio(static_cast<double>(r.bytes[1]), static_cast<double>(r.mul_gates));
  }));
}

Outcome run_protocol_untraced(const ProtocolShape& shape, const Args& a) {
  Outcome out;
  const Pacer pacer;
  std::vector<double> setups;
  std::vector<InstanceRecord> recs;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    recs.push_back(run_protocol_instance(shape, derive_seed(a.seed, i == 1 ? 0 : i), false));
    account(out, recs.back());
    for (unsigned j = 0; j < kProtocolSetupReps; ++j) {
      setups.push_back(time_protocol_setup(shape, derive_seed(a.seed, 1000 + i * 64 + j)));
    }
    if (i == 1 && recs[0].ok && recs[1].ok) check_replay(out, recs[0], recs[1], "protocol replay");
    if (i + 1 >= kMinInstances && elapsed_since(t0) + recs.back().wall_s() > a.seconds) break;
  }
  for (const auto& r : recs) setups.push_back(r.setup_s);
  set_setup(out, setups);
  note_pace(out, pacer.stats());
  const auto ok = ok_only(recs);
  set_phases(out, ok);
  const auto& specs = end_to_end_specs();
  out.metrics.set(specs, "gates_per_s", med(ok, [](auto& r) {
    return ratio(static_cast<double>(r.mul_gates), r.offline_s + r.online_s);
  }));
  out.metrics.set(specs, "sessions_per_s", med(ok, [](auto& r) { return ratio(1.0, r.wall_s()); }));
  set_bytes_per_gate(out, ok);
  out.metrics.set(specs, "peak_rss_mb", peak_rss_mb());
  return out;
}

Outcome run_service_untraced(const Args& a) {
  Outcome out;
  const Pacer pacer;
  std::vector<double> setups;
  std::vector<ServicePassRecord> passes;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    passes.push_back(run_service_pass(derive_seed(a.seed, i == 1 ? 0 : i), false));
    account(out, passes.back());
    for (unsigned j = 0; j < kServiceSetupReps; ++j) {
      setups.push_back(time_service_setup(derive_seed(a.seed, 1000 + i * 64 + j)));
    }
    if (i == 1 && passes[0].ok && passes[1].ok) {
      check_replay(out, passes[0], passes[1], "service replay");
    }
    if (i + 1 >= kMinInstances && elapsed_since(t0) + passes.back().wall_s() > a.seconds) break;
  }
  for (const auto& p : passes) setups.push_back(p.setup_s);
  set_setup(out, setups);
  note_pace(out, pacer.stats());
  set_phases(out, ok_only(probes_of(passes)));  // the probe sessions' split
  const auto& specs = end_to_end_specs();
  const auto ok = ok_only(passes);
  out.note_quartiles("sessions_per_s", "1/s",
                     collect(ok, [](auto& p) { return ratio(p.verified, p.run_s); }));
  out.metrics.set(specs, "sessions_per_s",
                  med(ok, [](auto& p) { return ratio(static_cast<double>(p.verified), p.run_s); }));
  out.metrics.set(specs, "gates_per_s", med(ok, [](auto& p) {
    return ratio(static_cast<double>(p.mul_gates), p.run_s);
  }));
  set_bytes_per_gate(out, ok);
  out.metrics.set(specs, "peak_rss_mb", peak_rss_mb());
  return out;
}

// ---- per-layer (traced) ---------------------------------------------------

void set_layer_rows(Outcome& out, const std::vector<LayerRow>& rows) {
  yoso::json::Writer w;
  w.begin_object().key("layer_table").begin_array();
  for (const auto& r : rows) {
    out.metrics.set(per_layer_specs(), r.metric, r.us.median);
    w.begin_object();
    w.field("metric", r.metric);
    w.field("median_us", r.us.median);
    w.field("q1_us", r.us.q1);
    w.field("q3_us", r.us.q3);
    w.field("repeats", static_cast<std::uint64_t>(r.us.n));
    w.field("calls_per_repeat", static_cast<std::uint64_t>(r.batch));
    w.end_object();
  }
  w.end_array().end_object();
  out.notes.push_back("layer_table " + w.take());
}

template <class R>
void set_count_metrics(Outcome& out, const std::vector<R>& recs) {
  const auto& specs = per_layer_specs();
  auto set = [&](const char* name, auto f) { out.metrics.set(specs, name, med(recs, f)); };
  auto total = [](const R& r, Op op) { return r.offline.calls(op) + r.online.calls(op); };
  set("ct_math.powm_sec.calls.offline", [](auto& r) { return r.offline.calls(Op::CtPowmSec); });
  set("ct_math.powm_sec.calls.online", [](auto& r) { return r.online.calls(Op::CtPowmSec); });
  set("ct_math.powm_pub.calls.offline", [](auto& r) { return r.offline.calls(Op::CtPowmPub); });
  set("ct_math.powm_pub.calls.online", [](auto& r) { return r.online.calls(Op::CtPowmPub); });
  const std::pair<const char*, Op> totals[] = {
      {"ct_math.mod_inverse.calls", Op::CtModInverse},
      {"paillier.enc.calls", Op::PaillierEnc},
      {"paillier.enc_secret.calls", Op::PaillierEncSecret},
      {"paillier.dec.calls", Op::PaillierDec},
      {"paillier.eval.calls", Op::PaillierEval},
      {"paillier.tpdec.calls", Op::PaillierTpdec},
      {"paillier.extract_root.calls", Op::PaillierExtractRoot},
      {"nizk.prove.calls", Op::NizkProve},
      {"nizk.verify.calls", Op::NizkVerify},
      {"sharing.pack.calls", Op::SharePack},
      {"field.mul.calls", Op::FieldMul},
      {"wire.encode.calls", Op::CodecEncode},
      {"wire.decode.calls", Op::CodecDecode},
  };
  for (const auto& [name, op] : totals) set(name, [&](const R& r) { return total(r, op); });
  set("yoso.posts.offline", [](auto& r) { return r.posts[1]; });
  set("yoso.posts.online", [](auto& r) { return r.posts[2]; });
  set("yoso.bytes.setup", [](auto& r) { return r.bytes[0]; });
  set("yoso.bytes.offline", [](auto& r) { return r.bytes[1]; });
  set("yoso.bytes.online", [](auto& r) { return r.bytes[2]; });
}

void set_protocol_layer_metrics(Outcome& out, const std::vector<InstanceRecord>& sessions) {
  const auto& specs = per_layer_specs();
  auto set = [&](const char* name, auto f) { out.metrics.set(specs, name, med(sessions, f)); };
  set("net.offline.virtual_s", [](auto& r) { return r.net_offline_s; });
  set("net.online.virtual_s", [](auto& r) { return r.net_online_s; });
  set("net.rounds.online", [](auto& r) { return r.net_online_rounds; });
  set("net.decode_failures", [](auto& r) { return r.decode_failures; });
  set("mpc.epochs", [](auto& r) { return r.epochs; });
  set("mpc.committees", [](auto& r) { return r.committees; });
}

void set_explained(Outcome& out, double leaf_off_ns, double wall_off_s, double leaf_on_ns,
                   double wall_on_s) {
  out.metrics.set(per_layer_specs(), "explained.offline", ratio(leaf_off_ns * 1e-9, wall_off_s));
  out.metrics.set(per_layer_specs(), "explained.online", ratio(leaf_on_ns * 1e-9, wall_on_s));
}

void set_service_zero(Outcome& out) {
  for (const char* name : {"service.pool.hit_rate", "service.pool.useful_ratio",
                           "service.virtual_p50_s", "service.virtual_p99_s", "service.rejected",
                           "service.failed", "service.resubmits"}) {
    out.metrics.set(per_layer_specs(), name, 0);
  }
}

Outcome run_protocol_traced(const ProtocolShape& shape, const Args& a) {
  Outcome out;
  const auto t0 = Clock::now();
  set_layer_rows(out, run_layer_pass(shape.params(), a.seed));
  std::vector<InstanceRecord> muted, traced;
  for (std::uint64_t i = 0;; ++i) {
    // Alternate which of the pair runs first, so warm-up and drift do not
    // bias trace.overhead.
    const std::uint64_t s = derive_seed(a.seed, i);
    if (i % 2 == 1) traced.push_back(run_protocol_instance(shape, s, true));
    muted.push_back(run_protocol_instance(shape, s, false));
    if (i % 2 == 0) traced.push_back(run_protocol_instance(shape, s, true));
    account(out, muted.back());
    account(out, traced.back());
    if (muted.back().ok && traced.back().ok) {
      check_replay(out, muted.back(), traced.back(), "muted vs traced instance");
    }
    const double pair = muted.back().wall_s() + traced.back().wall_s();
    if (i + 1 >= kMinPairs && elapsed_since(t0) + pair > a.seconds) break;
  }
  const auto ok_muted = ok_only(muted), ok_traced = ok_only(traced);
  set_count_metrics(out, ok_traced);
  set_protocol_layer_metrics(out, ok_traced);
  double leaf_off = 0, leaf_on = 0, wall_off = 0, wall_on = 0;
  for (const auto& r : ok_traced) {
    leaf_off += static_cast<double>(r.offline.leaf_self_ns());
    leaf_on += static_cast<double>(r.online.leaf_self_ns());
    wall_off += r.offline_s;
    wall_on += r.online_s;
  }
  set_explained(out, leaf_off, wall_off, leaf_on, wall_on);
  set_service_zero(out);
  const auto& specs = per_layer_specs();
  out.metrics.set(specs, "proc.cpu_s", med(ok_muted, [](auto& r) { return r.cpu_s; }));
  out.metrics.set(specs, "trace.overhead",
                  ratio(med(ok_traced, [](auto& r) { return r.wall_s(); }),
                        med(ok_muted, [](auto& r) { return r.wall_s(); })) -
                      1.0);
  return out;
}

Outcome run_service_traced(const ProtocolShape& session, const Args& a) {
  Outcome out;
  const auto t0 = Clock::now();
  set_layer_rows(out, run_layer_pass(session.params(), a.seed));
  std::vector<ServicePassRecord> muted, traced;
  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t s = derive_seed(a.seed, i);
    if (i % 2 == 1) traced.push_back(run_service_pass(s, true));
    muted.push_back(run_service_pass(s, false));
    if (i % 2 == 0) traced.push_back(run_service_pass(s, true));
    account(out, muted.back());
    account(out, traced.back());
    if (muted.back().ok && traced.back().ok) {
      check_replay(out, muted.back(), traced.back(), "muted vs traced service pass");
    }
    const double pair = muted.back().wall_s() + traced.back().wall_s();
    if (i + 1 >= kMinPairs && elapsed_since(t0) + pair > a.seconds) break;
  }
  const auto ok_muted = ok_only(muted), ok_traced = ok_only(traced);
  set_count_metrics(out, ok_traced);
  set_protocol_layer_metrics(out, ok_only(probes_of(ok_traced)));
  double leaf_off = 0, leaf_on = 0, wall_off = 0, wall_on = 0;
  for (const auto& p : ok_traced) {
    leaf_off += static_cast<double>(p.phase_leaf_offline_ns);
    leaf_on += static_cast<double>(p.online.leaf_self_ns());
    wall_off += p.phase_wall_offline_s;
    wall_on += p.phase_wall_online_s;
  }
  set_explained(out, leaf_off, wall_off, leaf_on, wall_on);
  const auto& specs = per_layer_specs();
  auto set = [&](const char* name, auto f) { out.metrics.set(specs, name, med(ok_traced, f)); };
  set("service.pool.hit_rate",
      [](auto& p) { return ratio(p.pool_hits, static_cast<double>(p.pool_hits + p.pool_misses)); });
  set("service.pool.useful_ratio",
      [](auto& p) { return ratio(p.pool_hits, static_cast<double>(p.pool_produced)); });
  set("service.virtual_p50_s", [](auto& p) { return p.virtual_p50_s; });
  set("service.virtual_p99_s", [](auto& p) { return p.virtual_p99_s; });
  set("service.rejected", [](auto& p) { return p.rejected; });
  set("service.failed", [](auto& p) { return p.failed; });
  set("service.resubmits", [](auto& p) { return p.resubmits; });
  out.metrics.set(specs, "proc.cpu_s", med(ok_muted, [](auto& p) { return p.cpu_s; }));
  out.metrics.set(specs, "trace.overhead",
                  ratio(med(ok_traced, [](auto& p) { return p.run_s; }),
                        med(ok_muted, [](auto& p) { return p.run_s; })) -
                      1.0);
  return out;
}

void print_meta(const Args& a) {
  yoso::json::Writer w;
  w.begin_object().key("meta").begin_object();
  w.field("workload", workload_name(a.workload));
  w.field("seed", a.seed);
  w.field("seconds", a.seconds);
  w.field("trace", a.trace);
  w.field("build_type", WALLBENCH_BUILD_TYPE);
  w.field("assertions", kAssertions);
  w.field("sanitized", kSanitized);
  w.field("obs", a.trace ? "enabled on traced instances, muted otherwise" : "muted");
  w.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("threads", static_cast<std::uint64_t>(1));
  w.field("commit", a.commit);
  w.end_object().end_object();
  std::printf("%s\n", w.take().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload <offline_wide|online_deep|service_agg> "
                 "--seed <n> --seconds <1..600> --trace <0|1> [--commit <id>]\n"
                 "       wallbench --list-metrics\n");
    return 2;
  }
  if (a.list_metrics) {
    for (const auto& s : end_to_end_specs()) std::printf("end_to_end %s %s\n", s.name.c_str(), s.unit.c_str());
    for (const auto& s : per_layer_specs()) std::printf("per_layer %s %s\n", s.name.c_str(), s.unit.c_str());
    return 0;
  }
  if (kAssertions || kSanitized) {
    std::fprintf(stderr,
                 "wallbench: refusing to time a %s build (assertions %s, sanitizer %s); "
                 "build Release\n",
                 WALLBENCH_BUILD_TYPE, kAssertions ? "on" : "off", kSanitized ? "on" : "off");
    return 3;
  }
  yoso::obs::set_enabled(false);
  print_meta(a);

  Outcome out;
  try {
    const ProtocolShape shape = protocol_shape(a.workload);
    const bool service = a.workload == Workload::ServiceAgg;
    if (a.trace) {
      out = service ? run_service_traced(shape, a) : run_protocol_traced(shape, a);
    } else {
      out = service ? run_service_untraced(a) : run_protocol_untraced(shape, a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
  for (const auto& n : out.notes) std::printf("# %s\n", n.c_str());
  for (const auto& e : out.errors) std::printf("# FAIL %s\n", e.c_str());
  std::printf("# fail_share %.6g  (%zu failed / %zu attempted), deterministic %s\n",
              ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
              out.failed, out.attempted, out.deterministic ? "yes" : "NO");

  const bool correct = out.failed == 0 && out.deterministic;
  yoso::json::Writer w;
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", static_cast<std::uint64_t>(out.attempted));
  w.field("failed", static_cast<std::uint64_t>(out.failed));
  w.key("metrics").raw(out.metrics.json(a.trace ? per_layer_specs() : end_to_end_specs()));
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  return correct ? 0 : 1;
}

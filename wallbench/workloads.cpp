#include <sys/resource.h>

#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "circuit/workloads.hpp"
#include "crypto/rand.hpp"
#include "mpc/failure.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "service/workloads.hpp"

namespace wallbench {

using yoso::obs::Op;
using yoso::obs::PhaseCtx;

namespace {

constexpr std::uint64_t kBatchClients = 20'000;

// Timings read now_s(): pace-seconds under a Pacer (the untraced pass),
// wall seconds otherwise.
double seconds_since(double t0) { return now_s() - t0; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Turns obs recording on for a traced call and restores the muted state;
// op counts are recorded either way (the profiler's determinism contract).
class ObsScope {
public:
  explicit ObsScope(bool traced) : prev_(yoso::obs::enabled()) {
    yoso::obs::set_enabled(traced);
    yoso::obs::profiler().reset();
    if (traced) yoso::obs::tracer().reset();
  }
  ~ObsScope() { yoso::obs::set_enabled(prev_); }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

private:
  bool prev_;
};

// Counts committee spawns through the board's public spawn hook.
template <class Board>
class CountingBoard : public Board {
public:
  using Board::Board;
  void on_committee_spawn(yoso::Committee& committee) override {
    ++spawned_;
    Board::on_committee_spawn(committee);
  }
  unsigned spawned() const { return spawned_; }

private:
  unsigned spawned_ = 0;
};

using PassiveBoard = CountingBoard<yoso::Bulletin>;
using NetBoard = CountingBoard<yoso::net::NetBulletin>;

OpTotals cell_totals(const yoso::obs::InstrumentCell& cell,
                     const std::vector<PhaseCtx>& contexts) {
  OpTotals t;
  for (unsigned op = 0; op < yoso::obs::kOpCount; ++op) {
    for (PhaseCtx ctx : contexts) {
      t.count[op] += cell.op_count(ctx, static_cast<Op>(op));
      t.self_ns[op] += cell.op_self_ns(ctx, static_cast<Op>(op));
    }
  }
  return t;
}

const std::vector<PhaseCtx> kAllContexts = {
    PhaseCtx::Setup, PhaseCtx::Offline, PhaseCtx::Online, PhaseCtx::Cdn, PhaseCtx::Other};

OpTotals minus(const OpTotals& a, const OpTotals& b) {
  OpTotals d;
  for (unsigned op = 0; op < yoso::obs::kOpCount; ++op) {
    d.count[op] = a.count[op] - b.count[op];
    d.self_ns[op] = a.self_ns[op] - b.self_ns[op];
  }
  return d;
}

template <class L>
void ledger_by_phase(const L& ledger, std::array<std::size_t, 3>* bytes,
                     std::array<std::size_t, 3>* posts) {
  for (yoso::Phase p : {yoso::Phase::Setup, yoso::Phase::Offline, yoso::Phase::Online}) {
    const auto total = ledger.phase_total(p);
    (*bytes)[static_cast<unsigned>(p)] = total.bytes;
    (*posts)[static_cast<unsigned>(p)] = total.messages;
  }
}

// Everything an instance owns, in destruction-safe order: the protocol
// goes before the board it publishes to, the board before its ledger.
struct BuiltInstance {
  yoso::ProtocolParams params;
  Circuit circuit;
  std::vector<std::vector<mpz_class>> inputs;
  yoso::Ledger ledger;
  std::unique_ptr<PassiveBoard> passive;
  std::unique_ptr<NetBoard> net;
  std::unique_ptr<yoso::YosoMpc> mpc;

  unsigned committees() const { return net ? net->spawned() : passive->spawned(); }
};

std::unique_ptr<BuiltInstance> build_instance(const ProtocolShape& shape, std::uint64_t seed) {
  auto b = std::make_unique<BuiltInstance>();
  b->params = shape.params();
  b->circuit = shape.circuit;
  b->inputs = make_inputs(b->circuit, seed);
  yoso::Bulletin* board = nullptr;
  if (shape.link.empty()) {
    b->passive = std::make_unique<PassiveBoard>(b->ledger);
    board = b->passive.get();
  } else {
    yoso::net::NetConfig cfg;
    cfg.link = yoso::net::LinkModel::by_name(shape.link);
    b->net = std::make_unique<NetBoard>(b->ledger, cfg);
    board = b->net.get();
  }
  b->mpc = std::make_unique<yoso::YosoMpc>(b->params, b->circuit,
                                           yoso::AdversaryPlan::honest(shape.n), seed, board);
  return b;
}

yoso::service::ServiceConfig service_config(std::uint64_t seed, Circuit pool_circuit) {
  yoso::service::ServiceConfig cfg;
  cfg.n = 4;
  cfg.eps = kEps;
  cfg.paillier_bits = 96;
  cfg.seed = derive_seed(seed, 1);
  cfg.max_concurrent = 4;
  cfg.max_queue = 64;
  cfg.pool.lanes = 2;
  cfg.pool.capacity = 8;
  cfg.pool_circuit = std::move(pool_circuit);
  return cfg;
}

struct ServiceLoad {
  explicit ServiceLoad(std::uint64_t seed) : workload(aggregation_config(seed)) {
    service = std::make_unique<yoso::service::MpcService>(
        service_config(seed, workload.session_circuit()));
    for (std::uint64_t b = 0; b < kServiceSessions; ++b) {
      batches.push_back(workload.batch(b));
      service->submit_at(batches.back().submit_at, batches.back().request);
    }
  }

  yoso::service::AggregationWorkload workload;
  std::vector<yoso::service::AggregationBatch> batches;
  std::unique_ptr<yoso::service::MpcService> service;
};

}  // namespace

// service_agg: E13's secure-aggregation load (README.md).
yoso::service::AggregationConfig aggregation_config(std::uint64_t seed) {
  yoso::service::AggregationConfig a;
  a.clients_total = kServiceSessions * kBatchClients;
  a.batch_clients = kBatchClients;
  a.gateways = 4;
  a.interarrival_s = 0.01;  // virtual arrivals at 100/s
  a.seed = derive_seed(seed, 0);
  return a;
}

bool parse_workload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::OfflineWide, Workload::OnlineDeep, Workload::ServiceAgg}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::OfflineWide: return "offline_wide";
    case Workload::OnlineDeep: return "online_deep";
    case Workload::ServiceAgg: return "service_agg";
  }
  return "?";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ProtocolShape protocol_shape(Workload w) {
  switch (w) {
    case Workload::OfflineWide:
      return {8, 192, "", yoso::wide_mul_circuit(12)};
    case Workload::OnlineDeep:
      return {12, 192, "geo-continental", yoso::grid_mul_circuit(4, 2)};
    case Workload::ServiceAgg: {
      // One of the service's own sessions: its circuit, parameters and link.
      const auto cfg = service_config(
          0, yoso::service::AggregationWorkload(aggregation_config(0)).session_circuit());
      return {cfg.n, cfg.paillier_bits, cfg.net.link.name, cfg.pool_circuit};
    }
  }
  throw std::logic_error("protocol_shape: unknown workload");
}

std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  yoso::Rng rng(derive_seed(seed, 2));
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == yoso::GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1u << 20))));
    }
  }
  return inputs;
}

bool outputs_match(const Circuit& c, const std::vector<std::vector<mpz_class>>& inputs,
                   const std::vector<mpz_class>& outputs, const mpz_class& modulus) {
  return outputs == c.eval(inputs, modulus);
}

std::uint64_t OpTotals::leaf_self_ns() const {
  std::uint64_t ns = 0;
  for (Op op : {Op::CtPowmSec, Op::CtPowmPub, Op::CtModInverse, Op::SharePack, Op::ShareUnpack,
                Op::CodecEncode, Op::CodecDecode}) {
    ns += self_ns[static_cast<unsigned>(op)];
  }
  return ns;
}

bool InstanceRecord::same_counts(const InstanceRecord& o) const {
  return offline == o.offline && online == o.online && bytes == o.bytes && posts == o.posts;
}

InstanceRecord run_protocol_instance(const ProtocolShape& shape, std::uint64_t seed,
                                     bool traced) {
  InstanceRecord rec;
  rec.seed = seed;
  ObsScope obs_scope(traced);
  const double cpu0 = cpu_seconds();
  try {
    double t0 = now_s();
    auto inst = build_instance(shape, seed);
    rec.setup_s = seconds_since(t0);
    rec.mul_gates = inst->circuit.num_mul_gates();
    {
      yoso::obs::Span span("wallbench.preprocess", "wallbench");
      t0 = now_s();
      inst->mpc->preprocess();
      rec.offline_s = seconds_since(t0);
    }
    rec.offline = cell_totals(yoso::obs::profiler().snapshot(), kAllContexts);
    yoso::OnlineResult result;
    {
      yoso::obs::Span span("wallbench.evaluate", "wallbench");
      t0 = now_s();
      result = inst->mpc->evaluate(inst->inputs);
      rec.online_s = seconds_since(t0);
    }
    rec.online = minus(cell_totals(yoso::obs::profiler().snapshot(), kAllContexts), rec.offline);
    ledger_by_phase(inst->ledger, &rec.bytes, &rec.posts);
    rec.epochs = inst->mpc->epochs();
    rec.committees = inst->committees();
    if (inst->net) {
      inst->net->flush();
      rec.net_offline_s = inst->net->phase_traffic(yoso::Phase::Offline).seconds;
      rec.net_online_s = inst->net->phase_traffic(yoso::Phase::Online).seconds;
      rec.net_online_rounds = inst->net->phase_traffic(yoso::Phase::Online).rounds;
      rec.decode_failures = inst->net->decode_failures();
    }
    rec.ok = outputs_match(inst->circuit, inst->inputs, result.outputs,
                           inst->mpc->plaintext_modulus());
    if (!rec.ok) rec.error = "outputs differ from Circuit::eval";
  } catch (const yoso::ProtocolAbort& e) {
    rec.error = std::string("ProtocolAbort: ") + e.what();
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.cpu_s = cpu_seconds() - cpu0;
  return rec;
}

double time_protocol_setup(const ProtocolShape& shape, std::uint64_t seed) {
  const double t0 = now_s();
  auto inst = build_instance(shape, seed);
  const double s = seconds_since(t0);
  inst.reset();
  return s;
}

double ServicePassRecord::wall_s() const {
  double s = setup_s + run_s;
  for (const auto& p : probes) s += p.wall_s();
  return s;
}

bool ServicePassRecord::same_counts(const ServicePassRecord& o) const {
  if (probes.size() != o.probes.size()) return false;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (!probes[i].same_counts(o.probes[i])) return false;
  }
  return offline == o.offline && online == o.online && bytes == o.bytes && posts == o.posts &&
         verified == o.verified && pool_produced == o.pool_produced;
}

ServicePassRecord run_service_pass(std::uint64_t seed, bool traced) {
  ServicePassRecord rec;
  rec.seed = seed;
  rec.sessions = kServiceSessions;
  ObsScope obs_scope(traced);
  const double cpu0 = cpu_seconds();
  try {
    double t0 = now_s();
    ServiceLoad load(seed);
    rec.setup_s = seconds_since(t0);
    {
      yoso::obs::Span span("wallbench.service_run", "wallbench");
      t0 = now_s();
      load.service->run();
      rec.run_s = seconds_since(t0);
    }
    const auto stats = load.service->stats();
    for (std::uint64_t b = 0; b < kServiceSessions; ++b) {
      if (load.workload.verify(load.batches[b], load.service->session(b + 1))) ++rec.verified;
    }
    if (rec.verified != rec.sessions) rec.error = "session failed AggregationWorkload::verify";
    rec.mul_gates = rec.verified * load.workload.session_circuit().num_mul_gates();
    rec.rejected = stats.rejected;
    rec.failed = stats.failed;
    rec.resubmits = stats.resubmits;
    rec.pool_hits = stats.pool.hits;
    rec.pool_misses = stats.pool.misses;
    rec.pool_produced = stats.pool.produced;
    rec.virtual_p50_s = stats.latency_p50_s;
    rec.virtual_p99_s = stats.latency_p99_s;
    ledger_by_phase(load.service->aggregate_ledger(), &rec.bytes, &rec.posts);
    const auto cell = yoso::obs::profiler().snapshot();
    rec.online = cell_totals(cell, {PhaseCtx::Online});
    rec.offline = minus(cell_totals(cell, kAllContexts), rec.online);
    rec.phase_wall_offline_s =
        1e-9 * static_cast<double>(cell.phase_wall_ns(PhaseCtx::Setup) +
                                   cell.phase_wall_ns(PhaseCtx::Offline));
    rec.phase_wall_online_s = 1e-9 * static_cast<double>(cell.phase_wall_ns(PhaseCtx::Online));
    rec.phase_leaf_offline_ns =
        cell_totals(cell, {PhaseCtx::Setup, PhaseCtx::Offline}).leaf_self_ns();
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.cpu_s = cpu_seconds() - cpu0;
  const ProtocolShape probe = protocol_shape(Workload::ServiceAgg);
  bool probes_ok = true;
  for (unsigned j = 0; j < kProbeSessions; ++j) {
    rec.probes.push_back(run_protocol_instance(probe, derive_seed(seed, 7 + j), traced));
    probes_ok = probes_ok && rec.probes.back().ok;
  }
  rec.ok = rec.error.empty() && rec.verified == rec.sessions && probes_ok;
  return rec;
}

double time_service_setup(std::uint64_t seed) {
  const double t0 = now_s();
  auto load = std::make_unique<ServiceLoad>(seed);
  const double s = seconds_since(t0);
  load.reset();
  return s;
}

}  // namespace wallbench

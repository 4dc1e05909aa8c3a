#include "chaos/campaign.hpp"

#include <memory>
#include <set>

#include "common/json.hpp"
#include "mpc/protocol.hpp"
#include "net/wire_faults.hpp"  // mix64
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace yoso::chaos {

namespace {

// A NetBulletin together with the Ledger that backs it (the board holds a
// reference, so the pair must live and die together).
struct BoardBox {
  Ledger ledger;
  net::NetBulletin board;
  explicit BoardBox(net::NetConfig cfg) : board(ledger, std::move(cfg)) {}
};

std::vector<std::vector<mpz_class>> schedule_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(net::mix64(seed ^ 0x10901575ULL));
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1u << 16))));
    }
  }
  return inputs;
}

// Audit-log scan: committee posts must form one contiguous window each.
void check_one_shot(const Bulletin& board, std::vector<std::string>& violations) {
  std::set<std::string> closed;
  std::string open;
  for (const Post& p : board.log()) {
    if (p.external) continue;
    if (p.committee == open) continue;
    if (closed.count(p.committee) != 0) {
      violations.push_back("one-shot: committee " + p.committee + " posted after its window");
      return;
    }
    if (!open.empty()) closed.insert(open);
    open = p.committee;
  }
}

void check_board(net::NetBulletin& board, RunReport& r) {
  for (std::string& v : board.conservation_violations()) r.violations.push_back(std::move(v));
  const net::PhasePosts total = board.total_posts();
  r.posts_originated += total.originated;
  r.posts_delivered += total.delivered;
  r.posts_dropped += total.dropped();
  r.fuzz_rejected += board.fuzz_rejected();
  r.fuzz_decoded += board.fuzz_decoded();
  check_one_shot(board, r.violations);
}

bool report_consistent(const FailureReport& fr, unsigned n) {
  if (fr.kind == FailureKind::Consistency) return true;  // counts are informational
  return fr.verified < fr.threshold && fr.roles() == n && fr.threshold <= n;
}

// Service-mode run: the same fault layers, but the target is an MpcService
// multiplexing schedule.service_sessions sessions over a shared triple
// pool.  The contract lifts per-session: in-bounds schedules must complete
// every session correctly; every failed session must carry a classified,
// consistent FailureReport; each session board obeys conservation and the
// one-shot discipline; pool accounting must balance (hits + misses equals
// sessions run, and a stalled pool never serves a hit).
void run_one_service(const FaultSchedule& schedule, RunReport& r) {
  service::ServiceConfig cfg;
  cfg.n = schedule.n;
  cfg.eps = schedule.eps;
  cfg.paillier_bits = schedule.paillier_bits;
  cfg.failstop_mode = schedule.failstop_mode;
  cfg.seed = schedule.seed;
  cfg.max_concurrent = 2;
  cfg.max_queue = schedule.service_sessions;
  cfg.net = schedule.net_config();
  cfg.plan = schedule.adversary();
  cfg.pool.lanes = 1;
  cfg.pool.capacity = 2;
  cfg.pool.stalled = schedule.pool_stall;
  cfg.pool_circuit = schedule.circuit();
  // Resilience schedules turn on the self-healing layer: Section 5.4
  // resubmission with backoff, the phase watchdog, adaptive pool sizing and
  // a one-restart lane budget.  Plain service schedules keep every knob at
  // its legacy default, so their runs reproduce byte-for-byte.
  if (schedule.max_resubmits > 0 || schedule.phase_timeout_s > 0) {
    cfg.resilience.max_resubmits = schedule.max_resubmits;
    cfg.resilience.phase_timeout_s = schedule.phase_timeout_s;
    cfg.pool.adaptive = true;
    cfg.pool.max_lane_restarts = 1;
  }

  const Circuit circuit = schedule.circuit();
  std::vector<std::vector<std::vector<mpz_class>>> inputs;
  service::MpcService svc(cfg);
  for (unsigned i = 0; i < schedule.service_sessions; ++i) {
    inputs.push_back(
        schedule_inputs(circuit, net::mix64(schedule.seed ^ (0xabc0ULL + i))));
    service::SessionRequest req;
    req.tag = "chaos.session." + std::to_string(i);
    req.circuit = circuit;
    req.inputs = inputs.back();
    // Spaced past the pool's first banking time, so later sessions exercise
    // the hit path while the first usually misses cold.
    svc.submit_at(0.02 * static_cast<double>(i), std::move(req));
  }
  svc.run();

  bool any_failed = false, any_wrong = false;
  std::size_t ran = 0;
  for (const auto& rec : svc.sessions()) {
    if (!rec->terminal()) {
      r.violations.push_back("session " + std::to_string(rec->id) + " not terminal: " +
                             session_state_name(rec->state));
      continue;
    }
    switch (rec->state) {
      case service::SessionState::Rejected:
        ++r.svc_rejected;
        continue;  // never ran; no board to audit
      case service::SessionState::Completed: ++r.svc_completed; break;
      case service::SessionState::Failed: ++r.svc_failed; break;
      default: break;
    }
    ++ran;
    if (rec->board) {
      check_board(*rec->board, r);
      r.total_bytes += rec->ledger->total().bytes;
    }
    // Resilience contract: the resubmission budget is never exceeded, and
    // the retry bytes the final attempt's ledger carries under the
    // "session.resubmit" marker balance against the record's sunk-cost
    // accounting.
    r.svc_resubmits += rec->resubmits;
    r.svc_timeouts += rec->timeouts;
    r.svc_backoff_wait_s += rec->backoff_wait_s;
    r.svc_sunk_bytes += rec->sunk_bytes;
    if (rec->resubmits > schedule.max_resubmits) {
      r.violations.push_back("session " + std::to_string(rec->id) +
                             " exceeded the resubmission budget");
    }
    if (rec->ledger) {
      const auto& setup = rec->ledger->categories(Phase::Setup);
      const auto it = setup.find("session.resubmit");
      const std::size_t marker = it == setup.end() ? 0 : it->second.bytes;
      if (marker != rec->sunk_bytes) {
        r.violations.push_back("session " + std::to_string(rec->id) +
                               " retry ledger imbalance: marker " + std::to_string(marker) +
                               " != sunk " + std::to_string(rec->sunk_bytes));
      }
    }
    if (rec->state == service::SessionState::Completed) {
      if (rec->resubmits > 0) ++r.svc_recovered;
      const auto expected =
          circuit.eval(inputs[rec->id - 1], rec->plaintext_modulus);
      if (rec->outputs != expected) {
        any_wrong = true;
        r.violations.push_back("session " + std::to_string(rec->id) + " wrong output");
      }
    } else {
      any_failed = true;
      if (rec->failure) {
        if (!report_consistent(*rec->failure, schedule.n)) {
          r.violations.push_back("session " + std::to_string(rec->id) +
                                 " inconsistent FailureReport: " + rec->failure->describe());
        }
        if (!r.failure) r.failure = rec->failure;  // surface the first diagnosis
      } else if (rec->timeouts == 0) {
        // A watchdog cut is a classified failure in its own right; anything
        // else must carry a FailureReport.
        r.violations.push_back("session " + std::to_string(rec->id) +
                               " failed without a FailureReport: " + rec->error);
      }
    }
  }

  const service::PoolStats& pool = svc.pool().stats();
  r.svc_pool_hits = pool.hits;
  r.svc_pool_misses = pool.misses;
  if (pool.hits + pool.misses != ran) {
    r.violations.push_back("pool accounting: hits + misses != sessions run");
  }
  if (schedule.pool_stall && pool.hits != 0) {
    r.violations.push_back("stalled pool served a hit");
  }

  if (any_wrong) {
    r.outcome = Outcome::WrongOutput;
  } else if (any_failed) {
    r.outcome = Outcome::ClassifiedAbort;
  } else if (r.svc_recovered > 0) {
    // Every session delivered, at least one only via Section 5.4
    // resubmission: the self-healing layer recovered the run.
    r.recovered = true;
    r.outcome = Outcome::Recovered;
  } else {
    r.outcome = Outcome::Correct;
  }
}

}  // namespace

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Correct: return "correct";
    case Outcome::Recovered: return "recovered";
    case Outcome::ClassifiedAbort: return "classified_abort";
    case Outcome::WrongOutput: return "wrong_output";
    case Outcome::Crash: return "crash";
    case Outcome::InvariantViolation: return "invariant_violation";
  }
  return "?";
}

RunReport CampaignRunner::run_one(const FaultSchedule& schedule) {
  obs::Span span("chaos.run", "chaos");
  span.attr("seed", std::to_string(schedule.seed))
      .attr("n", schedule.n)
      .attr("faults", schedule.active_faults());
  RunReport r;
  r.schedule = schedule;
  r.in_bounds = schedule.in_bounds();

  const Circuit circuit = schedule.circuit();
  const auto inputs = schedule_inputs(circuit, schedule.seed);
  std::vector<std::unique_ptr<BoardBox>> boards;
  const auto make_board = [&](bool) -> Bulletin* {
    boards.push_back(std::make_unique<BoardBox>(schedule.net_config()));
    return &boards.back()->board;
  };

  std::optional<OnlineResult> result;
  mpz_class modulus = 0;
  try {
    if (schedule.service_sessions > 0) {
      run_one_service(schedule, r);
    } else if (schedule.degradation) {
      DegradedRunResult d =
          run_with_degradation(schedule.n, schedule.eps, schedule.paillier_bits, circuit,
                               schedule.adversary(), schedule.seed, make_board, inputs);
      r.degraded = d.degraded;
      r.recovered = d.recovered;
      r.strict_attempt_bytes = d.strict_attempt_bytes;
      if (d.failure) r.failure = *d.failure;
      else if (d.strict_failure) r.failure = *d.strict_failure;
      result = d.result;
      modulus = d.plaintext_modulus;
      if (!d.ok()) {
        r.outcome = Outcome::ClassifiedAbort;
        if (!d.failure && !d.strict_failure) {
          r.violations.push_back("abort carried no FailureReport");
        }
      }
    } else {
      ProtocolParams params = schedule.params();
      Bulletin* board = make_board(false);
      YosoMpc mpc(params, circuit, schedule.adversary(), schedule.seed, board);
      result = mpc.run(inputs);
      modulus = mpc.plaintext_modulus();
    }
  } catch (const ProtocolAbort& abort) {
    r.outcome = Outcome::ClassifiedAbort;
    if (abort.report()) r.failure = *abort.report();
    else r.violations.push_back("abort carried no FailureReport: " + std::string(abort.what()));
  } catch (const std::invalid_argument& e) {
    // Parameter-space rejection (params::validate): the schedule asks for a
    // protocol outside the theorem; that is a classified, pre-run refusal.
    r.outcome = Outcome::ClassifiedAbort;
    r.crash_what = e.what();
  } catch (const std::exception& e) {
    r.outcome = Outcome::Crash;
    r.crash_what = e.what();
  } catch (...) {
    r.outcome = Outcome::Crash;
    r.crash_what = "non-standard exception";
  }

  for (auto& box : boards) {
    box->board.flush();
    check_board(box->board, r);
  }
  if (!boards.empty()) r.total_bytes = boards.back()->ledger.total().bytes;

  if (result) {
    const auto expected = circuit.eval(inputs, modulus);
    if (result->outputs == expected) {
      r.outcome = r.recovered ? Outcome::Recovered : Outcome::Correct;
    } else {
      r.outcome = Outcome::WrongOutput;
    }
  }

  if (r.failure && !report_consistent(*r.failure, schedule.n)) {
    r.violations.push_back("inconsistent FailureReport: " + r.failure->describe());
  }
  if (r.in_bounds && r.outcome != Outcome::Correct && r.outcome != Outcome::Recovered) {
    r.violations.push_back(std::string("GOD violated in bounds: outcome ") +
                           outcome_name(r.outcome));
  }
  if (!r.violations.empty()) r.outcome = Outcome::InvariantViolation;
  span.attr("outcome", outcome_name(r.outcome));
  return r;
}

FaultSchedule CampaignRunner::campaign_schedule(std::uint64_t campaign_seed, std::size_t i) {
  return FaultSchedule::random(net::mix64(campaign_seed) ^ static_cast<std::uint64_t>(i));
}

FaultSchedule CampaignRunner::service_campaign_schedule(std::uint64_t campaign_seed,
                                                        std::size_t i) {
  return FaultSchedule::random_service(net::mix64(campaign_seed) ^
                                       static_cast<std::uint64_t>(i));
}

FaultSchedule CampaignRunner::churn_campaign_schedule(std::uint64_t campaign_seed,
                                                      std::size_t i) {
  return FaultSchedule::random_churn(net::mix64(campaign_seed) ^
                                     static_cast<std::uint64_t>(i));
}

namespace {

CampaignSummary run_campaign_with(
    std::uint64_t campaign_seed, std::size_t count,
    const std::function<FaultSchedule(std::uint64_t, std::size_t)>& schedule_for,
    const std::function<void(const RunReport&)>& on_run) {
  CampaignSummary s;
  s.campaign_seed = campaign_seed;
  for (std::size_t i = 0; i < count; ++i) {
    RunReport r = CampaignRunner::run_one(schedule_for(campaign_seed, i));
    ++s.runs;
    switch (r.outcome) {
      case Outcome::Correct: ++s.correct; break;
      case Outcome::Recovered: ++s.recovered; break;
      case Outcome::ClassifiedAbort: ++s.classified; break;
      case Outcome::WrongOutput: ++s.wrong_output; break;
      case Outcome::Crash: ++s.crashed; break;
      case Outcome::InvariantViolation: ++s.invariant_violations; break;
    }
    if (!r.acceptable()) s.unacceptable.push_back(r);
    if (on_run) on_run(r);
  }
  return s;
}

}  // namespace

CampaignSummary CampaignRunner::run_campaign(std::uint64_t campaign_seed, std::size_t count,
                                             const std::function<void(const RunReport&)>& on_run) {
  return run_campaign_with(campaign_seed, count, &CampaignRunner::campaign_schedule, on_run);
}

CampaignSummary CampaignRunner::run_service_campaign(
    std::uint64_t campaign_seed, std::size_t count,
    const std::function<void(const RunReport&)>& on_run) {
  return run_campaign_with(campaign_seed, count, &CampaignRunner::service_campaign_schedule,
                           on_run);
}

CampaignSummary CampaignRunner::run_churn_campaign(
    std::uint64_t campaign_seed, std::size_t count,
    const std::function<void(const RunReport&)>& on_run) {
  return run_campaign_with(campaign_seed, count, &CampaignRunner::churn_campaign_schedule,
                           on_run);
}

std::string RunReport::to_json() const {
  json::Writer w;
  w.begin_object();
  w.field("outcome", outcome_name(outcome));
  w.field("in_bounds", in_bounds ? 1 : 0);
  w.field("degraded", degraded ? 1 : 0);
  w.field("recovered", recovered ? 1 : 0);
  w.field("posts_originated", static_cast<std::uint64_t>(posts_originated));
  w.field("posts_delivered", static_cast<std::uint64_t>(posts_delivered));
  w.field("posts_dropped", static_cast<std::uint64_t>(posts_dropped));
  w.field("fuzz_rejected", static_cast<std::uint64_t>(fuzz_rejected));
  w.field("fuzz_decoded", static_cast<std::uint64_t>(fuzz_decoded));
  w.field("total_bytes", static_cast<std::uint64_t>(total_bytes));
  w.field("strict_attempt_bytes", static_cast<std::uint64_t>(strict_attempt_bytes));
  if (schedule.service_sessions > 0) {
    w.key("service").begin_object();
    w.field("sessions", schedule.service_sessions);
    w.field("completed", static_cast<std::uint64_t>(svc_completed));
    w.field("failed", static_cast<std::uint64_t>(svc_failed));
    w.field("rejected", static_cast<std::uint64_t>(svc_rejected));
    w.field("pool_hits", static_cast<std::uint64_t>(svc_pool_hits));
    w.field("pool_misses", static_cast<std::uint64_t>(svc_pool_misses));
    w.field("resubmits", static_cast<std::uint64_t>(svc_resubmits));
    w.field("timeouts", static_cast<std::uint64_t>(svc_timeouts));
    w.field("recovered_sessions", static_cast<std::uint64_t>(svc_recovered));
    w.field("backoff_wait_s", svc_backoff_wait_s);
    w.field("sunk_bytes", static_cast<std::uint64_t>(svc_sunk_bytes));
    w.end_object();
  }
  if (failure) w.key("failure").raw(failure->to_json());
  if (!violations.empty()) {
    w.key("violations").begin_array();
    for (const std::string& v : violations) w.str(v);
    w.end_array();
  }
  if (!crash_what.empty()) w.field("what", crash_what);
  w.key("schedule").raw(schedule.to_json());
  w.end_object();
  return w.take();
}

std::string CampaignSummary::to_json() const {
  json::Writer w;
  w.begin_object();
  w.field("campaign_seed", campaign_seed);
  w.field("runs", static_cast<std::uint64_t>(runs));
  w.field("correct", static_cast<std::uint64_t>(correct));
  w.field("recovered", static_cast<std::uint64_t>(recovered));
  w.field("classified", static_cast<std::uint64_t>(classified));
  w.field("wrong_output", static_cast<std::uint64_t>(wrong_output));
  w.field("crashed", static_cast<std::uint64_t>(crashed));
  w.field("invariant_violations", static_cast<std::uint64_t>(invariant_violations));
  w.key("unacceptable").begin_array();
  for (const RunReport& rr : unacceptable) w.raw(rr.to_json());
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace yoso::chaos

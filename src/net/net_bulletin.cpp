#include "net/net_bulletin.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "crypto/ct.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "wire/codec.hpp"

namespace yoso::net {

namespace {

std::size_t phase_idx(Phase p) { return static_cast<std::size_t>(p); }

// The fate table: one row per PhasePosts field, in Tally (= report) order.
// A tally bumps its field and, for committee posts, its counter; a loss
// tally also leaves a span named like its counter.
struct FateRow {
  std::size_t PhasePosts::*field;
  const char* key;      // report_json "posts" key
  const char* counter;  // obs counter (nullptr: none)
  PostStatus status;    // returned to the publisher of a post with this fate
  bool loss;            // counts into PhasePosts::dropped()
};

constexpr FateRow kFates[] = {
    {&PhasePosts::originated, "originated", nullptr, PostStatus::Accepted, false},
    {&PhasePosts::delivered, "delivered", "post.accepted", PostStatus::Accepted, false},
    {&PhasePosts::dropped_link, "dropped_link", "post.dropped_link", PostStatus::DroppedLink,
     true},
    {&PhasePosts::corrupt, "corrupt", "post.corrupt", PostStatus::CorruptPayload, true},
    {&PhasePosts::truncated, "truncated", "post.truncated", PostStatus::Truncated, true},
    {&PhasePosts::late, "late", "post.late", PostStatus::Late, true},
    // The injected copy of a duplicated post; the original is delivered.
    {&PhasePosts::duplicate, "duplicate", "post.duplicate", PostStatus::Accepted, true},
    {&PhasePosts::late_graced, "late_graced", "post.late_graced", PostStatus::Accepted, false},
};

}  // namespace

// A post's fate, decided once from the fault plans before any bookkeeping.
struct NetBulletin::PostFate {
  Tally tally = Tally::Delivered;  // Delivered or a loss class
  bool graced = false;             // late but within the grace window
  std::size_t wire_bytes = 0;      // what hits the wire (a truncated prefix)
  const std::vector<std::uint8_t>* payload = nullptr;  // decode-checked on the wire
  double release_delay = 0;
  bool duplicate = false;          // a replayed copy follows on the wire
  bool duplicate_dropped = false;  // ...and is lost on the sender's uplink
};

// Where a post came from: everything the fan-out needs besides its fate.
struct NetBulletin::PostOrigin {
  Phase phase;
  bool external;              // client/dealer: outside the fault plans and counters
  std::string round_key;      // consecutive posts under one key form a round
  std::string sender;         // the uplink the post leaves on
  const std::string& author;  // flow-matrix source
  const std::string& label;
  std::size_t bytes;          // the post's size (its payload's, when given)
  std::size_t elements;
};

NetBulletin::NetBulletin(Ledger& ledger, NetConfig cfg)
    : Bulletin(ledger), cfg_(std::move(cfg)),
      transport_(loop_, cfg_.link, cfg_.topology, cfg_.observers, cfg_.faults,
                 cfg_.link_mix) {
#ifndef OBS_DISABLED
  // Spans begun while this board is alive get deterministic virtual
  // timestamps.  Keyed by `this` so destroying an old board (degradation
  // retries, chaos campaigns) cannot clobber a newer board's clock.
  obs::tracer().attach_virtual_clock(this, [this] { return clock_; });
#endif
}

NetBulletin::~NetBulletin() {
#ifndef OBS_DISABLED
  obs::tracer().detach_virtual_clock(this);
#endif
}

bool NetBulletin::roundtrip_ok(const std::vector<std::uint8_t>& payload) {
  try {
    std::vector<std::uint8_t> again;
    switch (peek_tag(payload)) {
      case kTagLinkProof: again = encode_link_proof(decode_link_proof(payload)); break;
      case kTagMultProof: again = encode_mult_proof(decode_mult_proof(payload)); break;
      case kTagRootProof: again = encode_root_proof(decode_root_proof(payload)); break;
      case kTagMaskMsg: again = encode_mask_msg(decode_mask_msg(payload)); break;
      case kTagHandoverMsg: again = encode_handover_msg(decode_handover_msg(payload)); break;
      case kTagFutureCt: again = encode_future_ct(decode_future_ct(payload)); break;
      case kTagPdecMsg: again = encode_pdec_msg(decode_pdec_msg(payload)); break;
      case kTagContribMsg: again = encode_contrib_msg(decode_contrib_msg(payload)); break;
      case kTagBeaverMsg: again = encode_beaver_msg(decode_beaver_msg(payload)); break;
      case kTagMultShareMsg: again = encode_mult_share_msg(decode_mult_share_msg(payload)); break;
      case kTagMaskBatch: again = encode_mask_batch(decode_mask_batch(payload)); break;
      default: return false;
    }
    // Compare round-trip digests instead of the raw byte vectors: the digest
    // comparison runs in time independent of where the first mismatch falls.
    const Sha256::Digest d_again = Sha256::hash(again.data(), again.size());
    const Sha256::Digest d_payload = Sha256::hash(payload.data(), payload.size());
    return ct_equal(d_again, d_payload);
  } catch (const CodecError&) {
    return false;
  }
}

// Runs a fault-mutated payload through the decoder: it must either reject
// with CodecError (counted as a clean rejection) or decode to some value (a
// flip inside a bignum body is syntactically valid — the frame checksum is
// what rejects the post).  Anything else (crash, UB) is caught by the
// sanitizer jobs running the chaos campaign.
void NetBulletin::probe_mutated(std::vector<std::uint8_t> mutated) {
  if (mutated.empty()) {
    ++fuzz_rejected_;
    return;
  }
  if (roundtrip_ok(mutated)) {
    ++fuzz_decoded_;
  } else {
    ++fuzz_rejected_;
  }
}

void NetBulletin::enqueue(std::string round_key, Phase phase, std::string sender,
                          std::size_t bytes, const std::vector<std::uint8_t>* payload,
                          bool link_dropped, double release_delay) {
  if (payload != nullptr && cfg_.decode_check && !roundtrip_ok(*payload)) ++decode_failures_;
  if (!pending_.empty() && (round_key != pending_key_ || phase != pending_phase_)) flush();
  pending_key_ = std::move(round_key);
  pending_phase_ = phase;
  pending_.push_back(PendingPost{std::move(sender), bytes, link_dropped, release_delay});
}

PostStatus NetBulletin::publish(Committee& committee, unsigned index0, Phase phase,
                                const std::string& label, std::size_t bytes,
                                std::size_t elements, bool first_post_of_role,
                                const std::vector<std::uint8_t>* payload) {
  // Close the compute window since the previous publish boundary: the delta
  // belongs to the posting role (the protocol interleaves "compute message
  // j, publish j"); everything between here and dag_.end_post — the
  // decode-check round-trip, fault probing — is the post's pipeline work.
  dag_.begin_post(committee.name, index0, static_cast<std::uint8_t>(phase_idx(phase)),
                  /*external=*/false);
  Bulletin::publish(committee, index0, phase, label, bytes, elements, first_post_of_role,
                    payload);
  // A committee that begins publishing has just activated; in the YOSO
  // handover order it consumed everything already on the board, so pending
  // flow edges resolve to it on its first post.  (Resolution cannot happen
  // at spawn time: YosoMpc spawns the whole committee schedule up front,
  // before any of them act.)
  if (committee.name != flow_actor_) {
    flow_.resolve(committee.name);
    flow_actor_ = committee.name;
  }
  if (payload != nullptr) bytes = payload->size();  // price the real serialized message
  std::string sender = committee.name + "#" + std::to_string(index0);
  const PostFate fate = decide(sender, bytes, payload);
  return land(fate, PostOrigin{phase, false, "c:" + committee.name, std::move(sender),
                               committee.name, label, bytes, elements});
}

void NetBulletin::publish_external(const std::string& who, Phase phase, const std::string& label,
                                   std::size_t bytes, std::size_t elements,
                                   const std::vector<std::uint8_t>* payload) {
  dag_.begin_post(who, 0, static_cast<std::uint8_t>(phase_idx(phase)), /*external=*/true);
  Bulletin::publish_external(who, phase, label, bytes, elements, payload);
  if (payload != nullptr) bytes = payload->size();
  // External senders (clients, the dealer) are outside the committee fault
  // plans: their posts always count.
  land(PostFate{.wire_bytes = bytes, .payload = payload},
       PostOrigin{phase, true, "x:" + label, who, who, label, bytes, elements});
}

NetBulletin::PostFate NetBulletin::decide(const std::string& sender, std::size_t bytes,
                                          const std::vector<std::uint8_t>* payload) {
  PostFate fate{.wire_bytes = bytes, .payload = payload};
  // Link-level fate first: a post lost on the sender's uplink never reaches
  // the board, whatever its payload.
  if (transport_.roll_drop(sender)) {
    fate.tally = Tally::DroppedLink;
    return fate;
  }
  // Wire-level fate: at most one fault per post, deterministic from
  // (seed, sender, sequence).
  std::uint64_t aux = 0;
  const bool mutable_payload = payload != nullptr && !payload->empty();
  switch (cfg_.wire_faults.roll(sender, ++post_seq_, &aux)) {
    case WireFault::BitFlip:
      if (mutable_payload) {
        std::vector<std::uint8_t> flipped = *payload;
        const std::uint64_t bit = aux % (static_cast<std::uint64_t>(flipped.size()) * 8);
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        probe_mutated(std::move(flipped));
      }
      fate.tally = Tally::Corrupt;
      break;
    case WireFault::Truncate:
      fate.wire_bytes = bytes == 0 ? 0 : static_cast<std::size_t>(aux % bytes);
      if (mutable_payload) {
        std::vector<std::uint8_t> shorter = *payload;
        shorter.resize(std::min<std::size_t>(fate.wire_bytes, shorter.size()));
        probe_mutated(std::move(shorter));
      }
      fate.payload = nullptr;  // only the truncated prefix ever hit the wire
      fate.tally = Tally::Truncated;
      break;
    case WireFault::Duplicate:
      fate.duplicate = true;
      fate.duplicate_dropped = transport_.roll_drop(sender);
      break;
    case WireFault::LatePost:
      fate.release_delay = cfg_.wire_faults.late_delay_s;
      fate.graced = fate.release_delay <= cfg_.grace_window_s;
      if (!fate.graced) fate.tally = Tally::Late;
      break;
    case WireFault::None: break;
  }
  return fate;
}

// The one fan-out of a decided fate to every sink: tallies and counters,
// loss spans, the flow matrix, the wire, and the DAG.
PostStatus NetBulletin::land(const PostFate& fate, const PostOrigin& origin) {
  const std::uint8_t phase = static_cast<std::uint8_t>(phase_idx(origin.phase));
  const bool delivered = fate.tally == Tally::Delivered;
  if (!origin.external) OBS_HIST("post.bytes", origin.bytes);
  tally(origin, Tally::Originated);
  tally(origin, fate.tally);
  if (fate.graced) tally(origin, Tally::LateGraced);
  if (delivered) flow_.record(origin.author, origin.label, phase, origin.bytes, origin.elements);
  enqueue(origin.round_key, origin.phase, origin.sender, fate.wire_bytes, fate.payload,
          fate.tally == Tally::DroppedLink, fate.release_delay);
  if (fate.duplicate) {
    // The replayed copy is priced on the wire, but the board's one-shot
    // discipline ignores it.
    tally(origin, Tally::Originated);
    tally(origin, Tally::Duplicate);
    enqueue(origin.round_key, origin.phase, origin.sender, origin.bytes, nullptr,
            fate.duplicate_dropped, 0);
  }
  // One DAG post for the original only: an injected copy never becomes a
  // board post, so it must never grow consume edges.
  dag_.end_post(origin.label, origin.bytes, delivered);
  return kFates[static_cast<std::size_t>(fate.tally)].status;
}

void NetBulletin::tally(const PostOrigin& origin, Tally t) {
  static_assert(std::size(kFates) == static_cast<std::size_t>(Tally::kCount));
  const FateRow& row = kFates[static_cast<std::size_t>(t)];
  ++(posts(origin.phase).*row.field);
#ifndef OBS_DISABLED
  if (origin.external || row.counter == nullptr) return;
  // Cached per board rather than through OBS_COUNT, whose function-local
  // static would count every tally under the first name it saw.  Resolved
  // lazily: a registered counter shows in the metrics report even at zero.
  obs::Counter*& counter = counters_[static_cast<std::size_t>(t)];
  if (counter == nullptr) counter = &obs::metrics().counter(row.counter);
  counter->add();
  if (!row.loss) return;
  obs::Span(row.counter, "net")
      .attr("sender", origin.sender)
      .attr("phase", phase_name(origin.phase));
#endif
}

void NetBulletin::on_committee_spawn(Committee& committee) {
  if (transport_.observers() == 0) transport_.set_observers(committee.n());
  // Churn first: a role whose member left between activations is silent
  // regardless of the link fault plan.  Silence injection below then skips
  // already-churned roles (they are no longer Honest), so the two fault
  // sources stack rather than overlap.
  unsigned churned = 0;
  if (!cfg_.churn.empty()) {
    for (unsigned i = 0; i < committee.n(); ++i) {
      if (cfg_.churn.max_per_committee != 0 && churned >= cfg_.churn.max_per_committee) break;
      if (committee.corruption.status[i] != RoleStatus::Honest) continue;
      if (!cfg_.churn.leaves(committee.name, i)) continue;
      committee.corruption.status[i] = RoleStatus::FailStop;
      ++churned;
    }
  }
  roles_churned_ += churned;
  unsigned silenced = 0;
  for (unsigned i = committee.n(); i-- > 0 && silenced < cfg_.faults.silence_per_committee;) {
    if (committee.corruption.status[i] == RoleStatus::Honest) {
      committee.corruption.status[i] = RoleStatus::FailStop;
      ++silenced;
    }
  }
  roles_silenced_ += silenced;
}

void NetBulletin::flush() {
  if (pending_.empty()) return;
  PhaseTraffic& pt = traffic_[phase_idx(pending_phase_)];
  const double round_start = clock_;
  std::size_t round_bytes = 0;
  const std::size_t round_posts = pending_.size();
  for (const PendingPost& p : pending_) {
    transport_.broadcast_decided(p.sender, p.bytes, clock_ + p.release_delay, p.link_dropped);
    pt.messages += 1;
    pt.payload_bytes += p.bytes;
    round_bytes += p.bytes;
  }
  transport_.run();
  const double round_end = std::max(clock_, transport_.last_delivery());
  pt.seconds += round_end - clock_;
  pt.rounds += 1;
  clock_ = round_end;
  pending_.clear();
  pending_key_.clear();
#ifndef OBS_DISABLED
  // Sample the round's shape on the virtual clock: what was in flight, how
  // deep the board queue ran, and the bandwidth the round achieved.  These
  // render as Perfetto counter tracks under the span timeline.
  //
  // Handles are resolved once and cached (docs/OBSERVABILITY.md, "Cached
  // handles"): flush() runs every broadcast round, and the per-call lookup
  // — registry lock plus string hash, with a string concatenation for the
  // bandwidth series — was the last repeated registry access on the net hot
  // path.  Registry handles are stable for the process lifetime (reset()
  // clears points, never nodes), so the cached pointers never dangle.
  static obs::Series* const queue_posts = &obs::timeseries().series("net.queue.posts");
  static obs::Series* const inflight = &obs::timeseries().series("net.inflight.bytes");
  static obs::Series* const bw_by_phase[3] = {
      &obs::timeseries().series("net.bw.setup"),
      &obs::timeseries().series("net.bw.offline"),
      &obs::timeseries().series("net.bw.online"),
  };
  queue_posts->sample(round_start, static_cast<double>(round_posts));
  inflight->sample(round_start, static_cast<double>(round_bytes));
  inflight->sample(round_end, 0);
  const std::size_t pidx = phase_idx(pending_phase_);
  if (round_end > round_start && pidx < 3) {
    bw_by_phase[pidx]->sample(round_end,
                              static_cast<double>(round_bytes) / (round_end - round_start));
  }
#else
  (void)round_start;
  (void)round_posts;
#endif
}

double NetBulletin::elapsed() {
  flush();
  return clock_;
}

const PhaseTraffic& NetBulletin::phase_traffic(Phase phase) {
  flush();
  return traffic_[phase_idx(phase)];
}

const TransportStats& NetBulletin::stats() {
  flush();
  return transport_.stats();
}

const PhasePosts& NetBulletin::phase_posts(Phase phase) const {
  return posts_[phase_idx(phase)];
}

const obs::FlowMatrix& NetBulletin::flow() {
  flush();
  flow_.finalize("observers");
  return flow_;
}

const obs::dag::DagRecorder& NetBulletin::dag() {
  flush();
  dag_.finalize();
  return dag_;
}

PhasePosts NetBulletin::total_posts() const {
  PhasePosts total;
  for (const PhasePosts& pp : posts_) {
    for (const FateRow& row : kFates) total.*row.field += pp.*row.field;
  }
  return total;
}

std::vector<std::string> NetBulletin::conservation_violations() {
  std::vector<std::string> violations;
  for (Phase phase : {Phase::Setup, Phase::Offline, Phase::Online}) {
    const PhasePosts& pp = posts(phase);
    if (!pp.conserved()) {
      violations.push_back(std::string("conservation: phase ") + phase_name(phase) +
                           " originated=" + std::to_string(pp.originated) +
                           " delivered=" + std::to_string(pp.delivered) +
                           " dropped=" + std::to_string(pp.dropped()));
    }
#ifndef OBS_DISABLED
    const std::uint64_t flowed =
        flow().phase_total(static_cast<std::uint8_t>(phase_idx(phase))).messages;
    if (flowed != pp.delivered) {
      violations.push_back(std::string("flow: phase ") + phase_name(phase) +
                           " messages=" + std::to_string(flowed) +
                           " delivered=" + std::to_string(pp.delivered));
    }
#endif
  }
  return violations;
}

std::string NetBulletin::report_json() const {
  const_cast<NetBulletin*>(this)->flush();
  const TransportStats& ts = transport_.stats();
  json::Writer w;
  w.begin_object();
  // Self-describing header: what build/obs generation produced this report
  // (obs/report.hpp) — cross-run diffs warn on mismatch instead of
  // reporting spurious deltas.
  w.key("meta").raw(obs::run_metadata_json());
  w.field("link", cfg_.link_mix.empty() ? cfg_.link.name : cfg_.link_mix.name);
  w.field("topology", topology_name(cfg_.topology));
  w.field("elapsed_s", clock_);
  // Always stated, even when zero: an absent key would be ambiguous between
  // "grace disabled" and "no grace configured".
  w.field("grace_window_s", cfg_.grace_window_s);
  w.key("phases").begin_object();
  for (Phase phase : {Phase::Setup, Phase::Offline, Phase::Online}) {
    const PhaseTraffic& pt = traffic_[phase_idx(phase)];
    const PhasePosts& pp = posts_[phase_idx(phase)];
    w.key(phase_name(phase)).begin_object();
    w.field("seconds", pt.seconds);
    w.field("rounds", static_cast<std::uint64_t>(pt.rounds));
    w.field("messages", static_cast<std::uint64_t>(pt.messages));
    w.field("payload_bytes", static_cast<std::uint64_t>(pt.payload_bytes));
    w.key("posts").begin_object();
    for (const FateRow& row : kFates) {
      w.field(row.key, static_cast<std::uint64_t>(pp.*row.field));
      if (row.field == &PhasePosts::delivered) {
        w.field("dropped", static_cast<std::uint64_t>(pp.dropped()));
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  const PhasePosts total = total_posts();
  w.field("delivered", static_cast<std::uint64_t>(ts.delivered));
  w.field("dropped", static_cast<std::uint64_t>(ts.dropped));
  w.field("downlink_queue_s", ts.downlink_queue_seconds);
  w.field("posts_originated", static_cast<std::uint64_t>(total.originated));
  w.field("posts_delivered", static_cast<std::uint64_t>(total.delivered));
  w.field("posts_dropped", static_cast<std::uint64_t>(total.dropped()));
  w.field("decode_failures", static_cast<std::uint64_t>(decode_failures_));
  w.field("fuzz_rejected", static_cast<std::uint64_t>(fuzz_rejected_));
  w.field("fuzz_decoded", static_cast<std::uint64_t>(fuzz_decoded_));
  w.field("roles_silenced", static_cast<std::uint64_t>(roles_silenced_));
  w.field("roles_churned", static_cast<std::uint64_t>(roles_churned_));
  if (!ts.link_class_counts.empty()) {
    w.key("link_classes").begin_object();
    for (const auto& [cls, count] : ts.link_class_counts) {
      w.field(cls, static_cast<std::uint64_t>(count));
    }
    w.end_object();
  }
  w.key("flow").begin_object();
  {
    // flow() flushes and finalizes pending edges to "observers".
    const obs::FlowMatrix& fm = const_cast<NetBulletin*>(this)->flow();
    json::Writer edges;
    fm.write_json(edges);
    w.key("edges").raw(edges.take());
#ifndef OBS_DISABLED
    w.key("series").raw(obs::timeseries().report_json());
#else
    w.key("series").raw("{}");
#endif
  }
  w.end_object();
  // Happens-before DAG summary (counts only — deterministic).
  w.key("dag").raw(const_cast<NetBulletin*>(this)->dag().report_json());
  w.key("base").raw(Bulletin::report_json());
  w.end_object();
  return w.take();
}

}  // namespace yoso::net

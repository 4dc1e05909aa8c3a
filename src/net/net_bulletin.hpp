// A Bulletin whose posts travel over the simulated network.
//
// NetBulletin implements the Bulletin publish surface, so YosoMpc (and the
// CDN baseline) run completely unmodified; in addition to the ledger's byte
// accounting it yields per-phase virtual wall-clock timings, queueing
// delays, and per-role bandwidth histograms from the discrete-event
// Transport underneath.
//
// Round model: consecutive posts by the same committee (or under the same
// external label) form one round — all senders release in parallel at the
// round's start, and the round completes when the slowest observer has
// downloaded every message (YOSO proceeds in broadcast rounds, Section 3.3).
// The virtual clock then advances to that completion time; per-phase time
// is the sum of the phase's round durations.
//
// Payloads: when the protocol hands a real serialized message (one tagged
// wire/codec buffer per post), the transport prices that exact byte string
// and — with decode_check on — round-trips it through the codec to catch
// encoder drift.  Posts without payloads fall back to the ledger's byte
// count.
//
// Fault model: beyond the link-level FaultPlan (dead links realized as
// fail-stop roles, per-message drops, added delay), a WireFaultPlan
// injects message-level faults at the codec boundary — bit-flipped
// payloads (rejected by the frame checksum), truncated frames (rejected by
// the codec), duplicated posts (ignored by the one-shot discipline), and
// late posts (rejected unless within `grace_window_s`).  A post's fate is
// decided once (decide) and applied once (land): a single fan-out bumps the
// PhasePosts tallies and post.* counters, emits the loss span, records the
// flow edge, prices the wire copies and closes the DAG post, then returns
// the PostStatus to the publishing protocol code.  conservation_violations()
// checks originated == delivered + dropped and flow == delivered per phase;
// the chaos campaign (src/chaos) runs it on every board.  docs/NETWORK.md
// ("Post fate") tabulates every fate.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/link.hpp"
#include "net/transport.hpp"
#include "net/wire_faults.hpp"
#include "obs/dag/dag.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "yoso/bulletin.hpp"

namespace yoso::net {

struct NetConfig {
  LinkModel link = LinkModel::lan();
  // Heterogeneous per-member link classes; non-empty overrides `link` with
  // a deterministic per-party class assignment.
  LinkClassMix link_mix = {};
  Topology topology = Topology::StarViaBoard;
  unsigned observers = 0;  // downloading parties; 0 = first committee's n
  FaultPlan faults = {};
  // Background churn realized at committee spawn (departed members' roles
  // become fail-stop, Section 5.4).
  ChurnPlan churn = {};
  WireFaultPlan wire_faults = {};
  double grace_window_s = 0;  // late posts within this window still count
  bool decode_check = true;   // round-trip every payload through the codec
};

// Virtual-time traffic accumulated for one protocol phase.
struct PhaseTraffic {
  double seconds = 0;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::size_t payload_bytes = 0;
};

// Board-level post accounting for one protocol phase.  Conservation law:
// originated == delivered + dropped, where dropped splits into the loss
// classes below (duplicate counts the injected copies the board ignored).
struct PhasePosts {
  std::size_t originated = 0;  // posts attempted, including duplicate copies
  std::size_t delivered = 0;   // accepted onto the board
  std::size_t dropped_link = 0;
  std::size_t corrupt = 0;
  std::size_t truncated = 0;
  std::size_t late = 0;        // late beyond the grace window
  std::size_t duplicate = 0;   // injected copies ignored by the board
  std::size_t late_graced = 0; // late but within grace (subset of delivered)

  std::size_t dropped() const {
    return dropped_link + corrupt + truncated + late + duplicate;
  }
  bool conserved() const { return originated == delivered + dropped(); }
};

class NetBulletin : public Bulletin {
public:
  NetBulletin(Ledger& ledger, NetConfig cfg = {});
  ~NetBulletin() override;

  PostStatus publish(Committee& committee, unsigned index0, Phase phase,
                     const std::string& label, std::size_t bytes, std::size_t elements,
                     bool first_post_of_role = false,
                     const std::vector<std::uint8_t>* payload = nullptr) override;
  void publish_external(const std::string& who, Phase phase, const std::string& label,
                        std::size_t bytes, std::size_t elements,
                        const std::vector<std::uint8_t>* payload = nullptr) override;

  bool wants_payload() const override { return true; }

  // Realizes churn and the fault plan at activation: roles whose members
  // departed between activations (ChurnPlan, deterministic per committee
  // and role) and the last `silence_per_committee` honest roles have their
  // links down for the whole activation, so they behave as fail-stop
  // parties (Section 5.4).
  void on_committee_spawn(Committee& committee) override;

  // Delivers any buffered round.  Accessors below flush implicitly; call
  // this explicitly after the protocol finishes to close the final round.
  void flush();

  // Virtual wall-clock so far (seconds).
  double elapsed();
  const PhaseTraffic& phase_traffic(Phase phase);
  const TransportStats& stats();
  const NetConfig& config() const { return cfg_; }
  std::size_t decode_failures() const { return decode_failures_; }
  unsigned roles_silenced() const { return roles_silenced_; }
  unsigned roles_churned() const { return roles_churned_; }

  // Post accounting (chaos invariants + report_json).
  const PhasePosts& phase_posts(Phase phase) const;
  PhasePosts total_posts() const;
  // Every breach of the board's accounting laws, one line each (empty when
  // the books balance): per phase, originated == delivered + dropped, and
  // flow-matrix messages == delivered (obs-enabled builds only; the matrix
  // is compiled out otherwise).  Finalizes the flow matrix, as flow() does.
  std::vector<std::string> conservation_violations();
  // Per-edge traffic matrix over delivered posts: sender committee ->
  // consuming committee (the next one to begin publishing), keyed by ledger
  // category.  Edges still pending a consumer — the final committee's
  // output posts — resolve to "observers" on first access.
  const obs::FlowMatrix& flow();
  // Mutated payloads probed through the codec: rejected cleanly vs. decoded
  // anyway (a flip inside a bignum body is syntactically valid; the frame
  // checksum still rejects the post).
  std::size_t fuzz_rejected() const { return fuzz_rejected_; }
  std::size_t fuzz_decoded() const { return fuzz_decoded_; }

  // Happens-before DAG of the run as the board observed it (obs/dag).
  // Finalizes the trailing compute residue; meaningful for boards that host
  // one protocol run (service boards interleave sessions on one profiler
  // cell, so their deltas blur across sessions — docs/OBSERVABILITY.md).
  const obs::dag::DagRecorder& dag();

  std::string report_json() const override;

private:
  // Concurrency note (docs/STATIC_ANALYSIS.md): unlike the base Bulletin,
  // whose window/log state is lock-protected, NetBulletin's own members are
  // deliberately *not* annotated — each instance is confined to one session
  // or pool lane and driven by one event loop, so the multi-core plan never
  // shares an instance across workers.  Cross-session state (the Ledger the
  // board feeds, the obs registries) carries its own locks.
  struct PendingPost {
    std::string sender;
    std::size_t bytes;
    bool link_dropped = false;
    double release_delay = 0;  // late posts enter the uplink this much later
  };
  // The PhasePosts fields, in report order; rows of the fate table
  // (net_bulletin.cpp) that also name each field's counter and report key.
  enum class Tally : std::uint8_t {
    Originated, Delivered, DroppedLink, Corrupt, Truncated, Late, Duplicate, LateGraced, kCount
  };
  struct PostFate;
  struct PostOrigin;

  PostFate decide(const std::string& sender, std::size_t bytes,
                  const std::vector<std::uint8_t>* payload);
  PostStatus land(const PostFate& fate, const PostOrigin& origin);
  void tally(const PostOrigin& origin, Tally t);
  void enqueue(std::string round_key, Phase phase, std::string sender, std::size_t bytes,
               const std::vector<std::uint8_t>* payload, bool link_dropped,
               double release_delay);
  bool roundtrip_ok(const std::vector<std::uint8_t>& payload);
  void probe_mutated(std::vector<std::uint8_t> mutated);
  PhasePosts& posts(Phase phase) { return posts_[static_cast<std::size_t>(phase)]; }

  NetConfig cfg_;
  EventLoop loop_;
  Transport transport_;
  double clock_ = 0;
  std::vector<PendingPost> pending_;
  std::string pending_key_;
  Phase pending_phase_ = Phase::Setup;
  std::array<PhaseTraffic, 3> traffic_{};
  std::array<PhasePosts, 3> posts_{};
  obs::FlowMatrix flow_;
  obs::dag::DagRecorder dag_;
  std::string flow_actor_;  // committee currently publishing (flow consumer tracking)
  std::size_t decode_failures_ = 0;
  std::size_t fuzz_rejected_ = 0;
  std::size_t fuzz_decoded_ = 0;
  std::uint64_t post_seq_ = 0;  // wire-fault roll sequence
#ifndef OBS_DISABLED
  // Per-tally counter handles, resolved on a tally's first bump.
  std::array<obs::Counter*, static_cast<std::size_t>(Tally::kCount)> counters_{};
#endif
  unsigned roles_silenced_ = 0;
  unsigned roles_churned_ = 0;
};

}  // namespace yoso::net

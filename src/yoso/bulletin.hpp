// The simulated bulletin board.
//
// In YOSO, every message — point-to-point included — is realized as a
// broadcast of (possibly encrypted) data on a public board, so one-to-one
// communication costs the same as one-to-all (Section 3.3).  The base
// Bulletin only needs to (a) keep an auditable log, (b) feed the
// communication Ledger, and (c) enforce the one-shot discipline; actual
// payloads flow through typed protocol structs in src/mpc.
//
// The publish surface is virtual: net::NetBulletin (src/net) substitutes a
// discrete-event network simulation behind the same interface, so YosoMpc
// runs unmodified but additionally yields virtual wall-clock timings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "yoso/committee.hpp"
#include "yoso/ledger.hpp"

namespace yoso {

struct Post {
  std::string committee;
  unsigned role_index0 = 0;
  std::string label;
  std::size_t bytes = 0;
  std::size_t elements = 0;
  Phase phase = Phase::Setup;
  bool external = false;  // client/dealer post, not a one-shot role
};

// Fate of one post, reported back to the publishing protocol code.  The
// passive board accepts everything; fault-injecting transports
// (net::NetBulletin under a chaos schedule) return the loss class so the
// caller can treat the role as unheard — the role still spoke (its one-shot
// token is consumed) but no observer ever sees the message.
enum class PostStatus : std::uint8_t {
  Accepted,        // on the board, visible to every observer
  DroppedLink,     // lost on the sender's access link
  CorruptPayload,  // bit-flipped in flight; the frame checksum rejects it
  Truncated,       // truncated frame; the codec rejects it
  Late,            // arrived after the committee's window (+ grace) closed
};

class Bulletin {
public:
  explicit Bulletin(Ledger& ledger) : ledger_(&ledger) {}
  virtual ~Bulletin() = default;

  // Records that role `index0` of `committee` published `elements` ring
  // elements totaling `bytes` under `label`.
  //
  // One-shot enforcement is on the default path: a committee gets exactly
  // one contiguous posting window (its activation), a role is marked as
  // having spoken on its first post, and re-activating a committee whose
  // window has closed throws — even when the caller forgot to thread
  // `first_post_of_role` / Committee::speak.  `first_post_of_role = true`
  // additionally insists this is the role's first post (throws otherwise).
  //
  // `payload` optionally carries the real serialized message (one tagged
  // wire/codec message per post); transports that model traffic request it
  // via wants_payload() and fragment it into frames.
  //
  // The return value is the post's fate.  Anything other than Accepted
  // means no observer sees the message: the publishing code must treat the
  // role as silent for this value (its in-memory contribution is void).
  virtual PostStatus publish(Committee& committee, unsigned index0, Phase phase,
                             const std::string& label, std::size_t bytes, std::size_t elements,
                             bool first_post_of_role = false,
                             const std::vector<std::uint8_t>* payload = nullptr);

  // Publication by an entity outside any committee (a client / the dealer);
  // those senders are not one-shot roles.
  virtual void publish_external(const std::string& who, Phase phase, const std::string& label,
                                std::size_t bytes, std::size_t elements,
                                const std::vector<std::uint8_t>* payload = nullptr);

  // Should the protocol hand real encoded payloads to publish()?  The
  // passive board does not need them; network transports do.
  virtual bool wants_payload() const { return false; }

  // Hook invoked by the protocol driver right after a committee is spawned.
  // The net layer uses it to realize link failures as fail-stop roles; the
  // passive board ignores it.
  virtual void on_committee_spawn(Committee& committee) { (void)committee; }

  const Ledger& ledger() const { return *ledger_; }
  // Locks internally; the reference stays valid for the board's lifetime
  // but is only consistent while no publisher is active (today the
  // simulation is single-threaded).
  const std::vector<Post>& log() const;
  std::size_t posts_by(const std::string& committee) const;

  // Machine-readable single-line JSON dump (ledger + audit-log summary).
  virtual std::string report_json() const;

protected:
  // Shared bookkeeping for subclasses: ledger recording + audit log.
  void record_post(const std::string& sender, unsigned index0, Phase phase,
                   const std::string& label, std::size_t bytes, std::size_t elements,
                   bool external = false);

private:
  Ledger* ledger_;
  // The audit log and the one-shot window state are shared across every
  // publisher, so they are lock-protected and thread-safety-annotated
  // ahead of the multi-core engine (docs/STATIC_ANALYSIS.md).  The Ledger
  // carries its own lock.
  mutable Mutex mu_;
  std::vector<Post> log_ GUARDED_BY(mu_);
  std::string open_committee_ GUARDED_BY(mu_);               // committee currently posting
  std::set<std::string> closed_committees_ GUARDED_BY(mu_);  // posting window closed
};

}  // namespace yoso

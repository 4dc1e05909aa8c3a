// Wire-level fault injection at the NetBulletin / codec boundary.
//
// Where FaultPlan (link.hpp) models the *link* failing (dead links, drops,
// delay), WireFaultPlan models the *message* failing: a payload bit flips
// in flight (the frame checksum rejects it at the board), a frame is
// truncated (the codec rejects the partial buffer), a role's post is
// duplicated by a confused relay (the board's one-shot discipline must
// ignore the copy), or a post arrives after the committee's posting window
// closed (it only counts if the board runs with a grace window).
//
// Decisions are deterministic from (seed, sender, per-board sequence) so a
// chaos schedule replays bit-for-bit; the protocol's own Rng stream is
// never touched.
#pragma once

#include <cstdint>
#include <string>

namespace yoso::net {

// Which wire fault hits one post (at most one per post).
enum class WireFault : std::uint8_t { None, BitFlip, Truncate, Duplicate, LatePost };

struct WireFaultPlan {
  double bitflip_prob = 0;    // payload corrupted in flight
  double truncate_prob = 0;   // frame cut short
  double duplicate_prob = 0;  // post replayed a second time
  double late_prob = 0;       // post delayed past the posting window
  double late_delay_s = 1.0;  // how late a LatePost arrives
  std::uint64_t seed = 1;

  bool empty() const {
    return bitflip_prob == 0 && truncate_prob == 0 && duplicate_prob == 0 && late_prob == 0;
  }

  // The fault hitting post number `seq` from `sender`, plus an auxiliary
  // 64-bit draw (bit position to flip / truncation point), both pure
  // functions of (seed, sender, seq).
  WireFault roll(const std::string& sender, std::uint64_t seq, std::uint64_t* aux) const;
};

// SplitMix64 — shared by the drop decisions in transport.cpp and the wire
// fault rolls here.
std::uint64_t mix64(std::uint64_t x);

// Hash of (seed, string) for deterministic per-sender streams.
std::uint64_t mix64_str(std::uint64_t seed, const std::string& s);

}  // namespace yoso::net

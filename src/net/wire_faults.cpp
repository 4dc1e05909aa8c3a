#include "net/wire_faults.hpp"

namespace yoso::net {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t mix64_str(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed;
  for (char c : s) h = mix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  return h;
}

WireFault WireFaultPlan::roll(const std::string& sender, std::uint64_t seq,
                              std::uint64_t* aux) const {
  if (empty()) return WireFault::None;
  std::uint64_t h = mix64(mix64_str(seed, sender) ^ seq);
  if (aux != nullptr) *aux = mix64(h);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  double acc = bitflip_prob;
  if (u < acc) return WireFault::BitFlip;
  acc += truncate_prob;
  if (u < acc) return WireFault::Truncate;
  acc += duplicate_prob;
  if (u < acc) return WireFault::Duplicate;
  acc += late_prob;
  if (u < acc) return WireFault::LatePost;
  return WireFault::None;
}

}  // namespace yoso::net

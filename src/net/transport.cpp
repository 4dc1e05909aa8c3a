#include "net/transport.hpp"

#include <algorithm>

#include "net/wire_faults.hpp"  // mix64 / mix64_str

namespace yoso::net {

Transport::Transport(EventLoop& loop, LinkModel link, Topology topo, unsigned observers,
                     FaultPlan faults, LinkClassMix mix)
    : loop_(&loop), link_(std::move(link)), topo_(topo), observers_(observers),
      faults_(std::move(faults)), mix_(std::move(mix)) {}

const LinkModel& Transport::link_for(const std::string& party) {
  if (mix_.empty()) return link_;
  auto it = assigned_.find(party);
  if (it == assigned_.end()) {
    it = assigned_.emplace(party, mix_.pick(party)).first;
    ++stats_.link_class_counts[it->second.name];
  }
  return it->second;
}

// Observers are addressed by index; their download links draw from the
// same mix under a synthetic party name, so a heterogeneous committee pays
// heterogeneous download times too.
const LinkModel& Transport::downlink_for(unsigned observer) {
  if (mix_.empty()) return link_;
  if (downlinks_.size() <= observer) downlinks_.resize(observer + 1, nullptr);
  if (downlinks_[observer] == nullptr) {
    downlinks_[observer] = &link_for("down#" + std::to_string(observer));
  }
  return *downlinks_[observer];
}

// Deterministic per-message drop decisions from (seed, sender, sequence)
// without touching the protocol's Rng stream.
bool Transport::should_drop(const std::string& sender) {
  if (faults_.drop_prob <= 0) return false;
  std::uint64_t h = mix64(mix64_str(faults_.seed, sender) ^ msg_seq_);
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < faults_.drop_prob;
}

bool Transport::roll_drop(const std::string& sender) {
  ++msg_seq_;
  return should_drop(sender);
}

bool Transport::broadcast(const std::string& sender, std::size_t bytes, double release) {
  return broadcast_decided(sender, bytes, release, roll_drop(sender));
}

bool Transport::broadcast_decided(const std::string& sender, std::size_t bytes, double release,
                                  bool dropped) {
  if (dropped) {
    ++stats_.dropped;
    return false;
  }
  if (downlink_free_.size() < observers_) downlink_free_.resize(observers_, 0.0);

  const LinkModel& up = link_for(sender);
  const std::size_t frames = up.frames_for(bytes);
  const std::size_t wire = up.wire_bytes(bytes);
  const double one_copy_tx = up.transmit_seconds(bytes);
  const double up_tx = topo_ == Topology::UniformMesh
                           ? one_copy_tx * static_cast<double>(std::max(observers_, 1u))
                           : one_copy_tx;
  const double hop_delay = up.latency_s + faults_.extra_delay_s;

  double& upfree = uplink_free_[sender];
  const double start = std::max(release, upfree);
  upfree = start + up_tx;

  EndpointStats& es = stats_.senders[sender];
  es.messages += 1;
  es.payload_bytes += bytes;
  es.wire_bytes += topo_ == Topology::UniformMesh ? wire * std::max(observers_, 1u) : wire;
  es.frames += topo_ == Topology::UniformMesh ? frames * std::max(observers_, 1u) : frames;
  es.busy_seconds += up_tx;
  es.queue_seconds += start - release;

  // The full message reaches the board (star) / egresses the sender (mesh)
  // one propagation delay after the last frame leaves the uplink; each
  // observer then pulls its copy through its own serialized downlink (its
  // own link class under a heterogeneous mix).
  const double arrival = start + up_tx + hop_delay;
  const bool extra_hop = topo_ == Topology::StarViaBoard;
  loop_->schedule_at(arrival, [this, bytes, one_copy_tx, extra_hop]() {
    const double now = loop_->now();
    for (unsigned r = 0; r < observers_; ++r) {
      const LinkModel& down = downlink_for(r);
      const double down_tx = mix_.empty() ? one_copy_tx : down.transmit_seconds(bytes);
      const double dstart = std::max(now, downlink_free_[r]);
      stats_.downlink_queue_seconds += dstart - now;
      downlink_free_[r] = dstart + down_tx;
      const double delivery =
          downlink_free_[r] + (extra_hop ? down.latency_s + faults_.extra_delay_s : 0.0);
      last_delivery_ = std::max(last_delivery_, delivery);
      ++stats_.delivered;
    }
  });
  return true;
}

double Transport::run() {
  loop_->run();
  return last_delivery_;
}

}  // namespace yoso::net

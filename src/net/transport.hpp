// Serialized store-and-forward transport over the configured link model.
//
// Every broadcast is fragmented into frames and pushed through per-party
// access links whose serialization is exclusive: a link busy with one
// message queues the next (the queueing delay is measured and reported).
// Delivery of a round is complete when the slowest observer has downloaded
// every message of the round; the discrete-event loop orders all of this
// deterministically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/link.hpp"

namespace yoso::net {

struct EndpointStats {
  std::size_t messages = 0;      // broadcasts originated
  std::size_t payload_bytes = 0; // serialized payload uploaded
  std::size_t wire_bytes = 0;    // payload + frame overhead
  std::size_t frames = 0;
  double busy_seconds = 0;       // uplink serialization time
  double queue_seconds = 0;      // waited for a busy uplink
};

struct TransportStats {
  std::map<std::string, EndpointStats> senders;  // per-role bandwidth accounting
  std::size_t delivered = 0;        // message copies handed to observers
  std::size_t dropped = 0;          // messages lost to fault injection
  double downlink_queue_seconds = 0;
  // Heterogeneous profiles: parties per assigned link class (uplinks and
  // downlinks; empty under a uniform link).
  std::map<std::string, std::size_t> link_class_counts;
};

class Transport {
public:
  Transport(EventLoop& loop, LinkModel link, Topology topo, unsigned observers,
            FaultPlan faults = {}, LinkClassMix mix = {});

  // Queues a broadcast of `bytes` payload from `sender`, released no
  // earlier than virtual time `release`.  Returns false when the fault
  // plan drops the message at the sender's link.
  bool broadcast(const std::string& sender, std::size_t bytes, double release);

  // Pre-rolls the drop decision for the next broadcast from `sender`,
  // advancing the per-message sequence.  Callers that need the verdict
  // before the message is priced (NetBulletin decides a post's fate at
  // publish time but prices it at round flush) roll here and pass the
  // decision back through broadcast_decided.
  bool roll_drop(const std::string& sender);

  // As broadcast(), but with the drop decision already made by roll_drop.
  bool broadcast_decided(const std::string& sender, std::size_t bytes, double release,
                         bool dropped);

  // Drains the event loop (all queued frames delivered).
  double run();

  // Completion time of the latest delivery so far.
  double last_delivery() const { return last_delivery_; }
  const TransportStats& stats() const { return stats_; }
  const LinkModel& link() const { return link_; }
  // The access link pricing `party`'s traffic: the uniform link, or the
  // party's deterministically assigned class under a heterogeneous mix.
  const LinkModel& link_for(const std::string& party);
  Topology topology() const { return topo_; }
  unsigned observers() const { return observers_; }
  void set_observers(unsigned n) { observers_ = n; }

private:
  bool should_drop(const std::string& sender);
  const LinkModel& downlink_for(unsigned observer);

  EventLoop* loop_;
  LinkModel link_;
  Topology topo_;
  unsigned observers_;
  FaultPlan faults_;
  LinkClassMix mix_;
  std::map<std::string, LinkModel> assigned_;  // heterogeneous per-party cache
  std::vector<const LinkModel*> downlinks_;    // per-observer class (mix only)
  std::map<std::string, double> uplink_free_;
  std::vector<double> downlink_free_;
  double last_delivery_ = 0;
  std::uint64_t msg_seq_ = 0;
  TransportStats stats_;
};

}  // namespace yoso::net

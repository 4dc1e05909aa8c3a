// Deterministic discrete-event scheduler: the virtual clock driving the
// network simulation.
//
// Events fire in (time, insertion order); the monotone sequence number
// breaks ties so identical runs replay identically regardless of allocator
// or container internals.  Handlers may schedule further events (frames
// spawning deliveries); run() drains the queue to quiescence.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace yoso::net {

class EventLoop {
public:
  using Handler = std::function<void()>;

  // Schedules `fn` at absolute virtual time `at` (clamped to now()).
  void schedule_at(double at, Handler fn);
  void schedule_in(double delay, Handler fn);

  // Drains the queue; returns the final clock value.
  double run();

  double now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t processed() const { return processed_; }

private:
  struct Event {
    double at = 0;
    std::uint64_t seq = 0;
    Handler fn;
  };
  // Min-heap on (at, seq).
  static bool later(const Event& a, const Event& b);
  Event pop_next();

  std::vector<Event> heap_;
  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace yoso::net

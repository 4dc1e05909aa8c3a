#include "net/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace yoso::net {

bool EventLoop::later(const Event& a, const Event& b) {
  if (a.at != b.at) return a.at > b.at;
  return a.seq > b.seq;
}

void EventLoop::schedule_at(double at, Handler fn) {
  Event ev;
  ev.at = std::max(at, now_);
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void EventLoop::schedule_in(double delay, Handler fn) {
  schedule_at(now_ + delay, std::move(fn));
}

EventLoop::Event EventLoop::pop_next() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

double EventLoop::run() {
  while (!heap_.empty()) {
    Event ev = pop_next();
    now_ = ev.at;
    ++processed_;
    ev.fn();
  }
  return now_;
}

}  // namespace yoso::net

#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace stems {

namespace {

/// Heap order: the root is the earliest (time, seq) pair.
bool Later(const EventQueue::Entry& a, const EventQueue::Entry& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

}  // namespace

void EventQueue::Push(SimTime time, EventTarget* target, uint64_t arg) {
  heap_.push_back(Entry{time, next_seq_++, target, arg});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

SimTime EventQueue::NextTime() const {
  return heap_.empty() ? kSimTimeNever : heap_.front().time;
}

EventQueue::Entry EventQueue::Pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

}  // namespace stems

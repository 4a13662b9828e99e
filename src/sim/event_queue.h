// Time-ordered event queue for the discrete-event simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/clock.h"

namespace stems {

/// The receiver of a simulated event. A module (or any other actor on the
/// clock) owns its targets and must outlive every event scheduled on them;
/// the event's payload is the 64-bit `arg` handed back on delivery, so
/// scheduling never allocates.
class EventTarget {
 public:
  virtual void OnEvent(uint64_t arg) = 0;

 protected:
  ~EventTarget() = default;
};

/// An EventTarget that forwards to a member function of its owner, so one
/// class can own several kinds of event:
///   MemberEvent<&Stem::OnIoMarker> io_marker_{this};
template <auto Method>
class MemberEvent;

template <typename T, void (T::*Method)(uint64_t)>
class MemberEvent<Method> final : public EventTarget {
 public:
  explicit MemberEvent(T* owner) : owner_(owner) {}
  void OnEvent(uint64_t arg) override { (owner_->*Method)(arg); }

 private:
  T* owner_;
};

/// Flat binary min-heap of (time, insertion order) keyed events. Events at
/// equal time run in insertion order, which makes executions fully
/// deterministic.
class EventQueue {
 public:
  struct Entry {
    SimTime time;
    uint64_t seq;
    EventTarget* target;
    uint64_t arg;
  };
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) <= 32);

  void Push(SimTime time, EventTarget* target, uint64_t arg);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; kSimTimeNever when empty.
  SimTime NextTime() const;

  /// Removes and returns the earliest event.
  Entry Pop();

 private:
  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace stems

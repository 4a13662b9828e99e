// Simulation: the discrete-event driver all modules run on.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"

namespace stems {

/// Owns virtual time and the event queue. Modules schedule typed events
/// with Schedule()/At() -- a target plus a 64-bit argument, never a
/// closure -- and Run()/RunUntil()/RunSteps() deliver them in time order
/// until the queue drains or a time/step limit is hit.
class Simulation {
 public:
  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  /// Delivers `target->OnEvent(arg)` `delay` after now. Negative delays
  /// clamp to 0 (runs after currently pending events at `now`).
  void Schedule(SimTime delay, EventTarget* target, uint64_t arg = 0);

  /// Delivers `target->OnEvent(arg)` at absolute time `when` (>= now).
  void At(SimTime when, EventTarget* target, uint64_t arg = 0);

  /// Runs until the event queue is empty. Returns the final time.
  SimTime Run();

  /// Runs events up to and including time `limit`. Returns true if the
  /// queue drained (no events remain), false if events beyond `limit`
  /// are still pending.
  bool RunUntil(SimTime limit);

  /// Runs at most `max_events` events; returns events actually run.
  uint64_t RunSteps(uint64_t max_events);

  bool Idle() const { return queue_.empty(); }

 private:
  /// Pops the earliest event, advances the clock to it and delivers it.
  void Step();

  SimTime now_ = 0;
  uint64_t events_processed_ = 0;
  EventQueue queue_;
};

}  // namespace stems

#include "sim/simulation.h"

#include <cassert>

namespace stems {

void Simulation::Schedule(SimTime delay, EventTarget* target, uint64_t arg) {
  if (delay < 0) delay = 0;
  queue_.Push(now_ + delay, target, arg);
}

void Simulation::At(SimTime when, EventTarget* target, uint64_t arg) {
  assert(when >= now_ && "cannot schedule in the past");
  queue_.Push(when, target, arg);
}

void Simulation::Step() {
  const EventQueue::Entry event = queue_.Pop();
  now_ = event.time;
  ++events_processed_;
  event.target->OnEvent(event.arg);
}

SimTime Simulation::Run() {
  while (!queue_.empty()) Step();
  return now_;
}

bool Simulation::RunUntil(SimTime limit) {
  while (!queue_.empty() && queue_.NextTime() <= limit) Step();
  if (now_ < limit) now_ = limit;
  return queue_.empty();
}

uint64_t Simulation::RunSteps(uint64_t max_events) {
  uint64_t run = 0;
  while (!queue_.empty() && run < max_events) {
    ++run;
    Step();
  }
  return run;
}

}  // namespace stems

#include "server/request_queue.h"

#include <algorithm>

namespace stems::server {

void RequestQueue::PushLocked(Request&& request) {
  lanes_[request.lane].push_back(std::move(request));
  ++lane_total_;
  high_water_ = std::max(high_water_, lane_total_);
}

bool RequestQueue::TryPush(Request&& request) {
  {
    MutexLock lock(&mu_);
    auto it = lanes_.find(request.lane);
    // Full lane: return before touching `request`, so the caller still
    // holds the intact frame and can retry it later. Other lanes keep
    // their own budget (fairness: see header).
    if (it != lanes_.end() && it->second.size() >= per_lane_capacity_) {
      return false;
    }
    PushLocked(std::move(request));
  }
  cv_.NotifyOne();
  return true;
}

void RequestQueue::PushControl(Request request) {
  {
    MutexLock lock(&mu_);
    PushLocked(std::move(request));
  }
  cv_.NotifyOne();
}

Request RequestQueue::PopLocked() {
  // Lane 0 (pre-auth) drains first — required for per-session FIFO across
  // the Hello-time lane switch (see header). It is the smallest key.
  auto it = lanes_.begin();
  if (it->first != 0) {
    // Round-robin: the first lane strictly after the cursor, wrapping to
    // the lowest lane id. Empty deques are erased on pop, so every map
    // entry is a candidate.
    it = lanes_.upper_bound(rr_cursor_);
    if (it == lanes_.end()) it = lanes_.begin();
    rr_cursor_ = it->first;
  }
  Request out = std::move(it->second.front());
  it->second.pop_front();
  --lane_total_;
  if (it->second.empty()) lanes_.erase(it);
  return out;
}

bool RequestQueue::PopWithTimeout(Request* request,
                                  std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  // Explicit predicate loop (not a wait lambda): the guarded reads stay in
  // this function, where the analysis sees the lock held.
  while (!HasWorkLocked()) {
    if (woken_) {
      woken_ = false;
      return false;
    }
    if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout &&
        !HasWorkLocked()) {
      return false;
    }
  }
  *request = PopLocked();
  return true;
}

size_t RequestQueue::size() const {
  MutexLock lock(&mu_);
  return lane_total_;
}

size_t RequestQueue::high_water() const {
  MutexLock lock(&mu_);
  return high_water_;
}

void RequestQueue::WakeAll() {
  {
    MutexLock lock(&mu_);
    woken_ = true;
  }
  cv_.NotifyAll();
}

}  // namespace stems::server

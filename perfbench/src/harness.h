// Measurement plumbing shared by every perfbench workload: wall clock,
// percentiles, RSS, the traced run's allocation counter and span recorder,
// and the metric table a run prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (sorts a copy); 0 when
/// empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& v);

/// setup_s from per-batch medians of repeated set-ups spread over a run: a
/// batch's median drops its one-off stalls, and the mean over batches
/// weighs the host's fast and slow phases by how long each lasted. A set-up
/// does the same work every time, so its times gather at the host's two
/// speeds (~1.5x apart); a median over all of them would jump from one
/// speed to the other as the share of slow batches crosses one half.
inline double SetupSeconds(const std::vector<double>& batch_medians) {
  return Mean(batch_medians);
}

/// Fails the run unless `n` samples leave at least ten beyond quantile `q`
/// (p90 needs 100 samples, p99 needs 1000): a tail with fewer samples behind
/// it is one outlier, not a percentile.
void RequireTailSamples(const char* metric, size_t n, double q);

/// Resident set now / at its peak, in MiB (/proc/self/status).
double RssMb();
double PeakRssMb();

/// Gives `v` room for `n` elements and touches that room, so the resident
/// memory it will need is paid now: the traced run reads RSS after warm-up
/// and again at the end, and engine.rss_growth_mb must not include the
/// growth of the benchmark's own buffers.
template <typename T>
void Pretouch(std::vector<T>* v, size_t n) {
  const size_t keep = v->size();
  if (n <= keep) return;
  v->resize(n);
  v->resize(keep);  // keeps the capacity
}

/// Room for the queries one caller finishes in `seconds` at `mean_query_ms`
/// (the warm-up's mean), with twice that for a host that speeds up.
inline size_t QueryBound(double seconds, double mean_query_ms) {
  return static_cast<size_t>(2 * seconds * 1e3 /
                             std::max(mean_query_ms, 0.01)) +
         1024;
}

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per `interval_ms`, when Tick() is called between operations. A
/// single-threaded run then samples every CPU evenly: on a VM each vCPU
/// slows down and speeds up on its own as the host's other tenants come and
/// go, and a thread the scheduler leaves on one vCPU would measure that
/// vCPU alone.
class CpuRotor {
 public:
  explicit CpuRotor(double interval_ms);
  void Tick();
  /// Lets the thread run on every allowed CPU again (threads it starts
  /// inherit its CPU mask).
  void Release();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  double interval_ms_;
  Clock::time_point last_{};
};

/// The host's clock speed, read off a fixed chain of dependent integer
/// steps: a multiply, an add, a shift and an xor each, a few cycles whatever
/// the other cores run. On a shared VM the clock the vCPUs get drifts with
/// the host's other tenants, by up to ~1.4x, in phases that can outlast a
/// run, and every wall time moves with it. So the end-to-end timings are
/// reported in reference-clock time: wall time x Factor(), i.e. the cycles
/// a measurement took, in ms at a fixed clock. A cycle counter would give
/// the same, but the VM exposes none. The chain is the benchmark's own code,
/// so no change to the engine moves it.
class HostClock {
 public:
  /// The reference clock: ns per chain step (about this host's usual
  /// speed, so reference times read close to wall times there).
  static constexpr double kReferenceNsPerStep = 2.25;

  HostClock();
  /// Times the chain a few times on every CPU the thread may run on
  /// (moving the thread there, then restoring its CPU mask) and returns the
  /// median ns per step. Call it while the workload is paused: a busy CPU
  /// would time-share the chain.
  double NsPerStep();
  /// Reference time per wall time at `ns_per_step`.
  static double Factor(double ns_per_step) {
    return ns_per_step > 0 ? kReferenceNsPerStep / ns_per_step : 1;
  }

 private:
  std::vector<int> cpus_;
};

/// Heap traffic counted by the benchmark binary's operator new, only while
/// enabled (the traced run): the untraced run pays one relaxed load per
/// allocation.
struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
void SetAllocCounting(bool on);
AllocCounts ReadAllocCounts();

/// Spans the benchmark places around its calls into each layer. Spans of one
/// query share its id; a span's parent is the innermost open span.
class SpanRecorder {
 public:
  /// Opens a span; returns its index (pass to End).
  size_t Begin(const char* name, uint64_t query_id);
  void End(size_t index);
  /// Makes room for `more` spans, so recording them allocates nothing (the
  /// traced run counts allocations around spanned calls).
  void Reserve(size_t more);
  /// Makes touched room for `n` more spans (see Pretouch).
  void Preallocate(size_t n);
  /// Adds another recorder's spans (e.g. one per generator thread).
  void Append(const SpanRecorder& other);

  /// Per-layer span count, total and self time (span minus the part its
  /// children cover), keyed by span name.
  struct LayerTime {
    uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Chrome trace_event JSON of every span, with `other_data` (a JSON
  /// object) as its "otherData".
  std::string ToChromeJson(const std::string& other_data) const;

 private:
  struct Span {
    const char* name;
    uint64_t query_id;
    int64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t query_id)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(name, query_id) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  size_t index_;
};

/// Ordered name -> (value, unit) table; the result line's "metrics".
class Metrics {
 public:
  struct Entry {
    double value;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  const std::map<std::string, Entry>& entries() const { return values_; }
  std::string ToJson() const;

 private:
  std::map<std::string, Entry> values_;
};

/// Number with all its digits, as JSON.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// Ratio that reads 0 (not NaN) on an empty base.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void RequireTailSamples(const char* metric, size_t n, double q) {
  const double beyond = static_cast<double>(n) * (1.0 - q);
  if (beyond + 1e-9 < 10.0) {
    std::fprintf(stderr,
                 "perfbench: %s needs >= 10 samples beyond it, run has %zu "
                 "samples (%.1f beyond)\n",
                 metric, n, beyond);
    std::exit(4);
  }
}

namespace {
double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}
}  // namespace

double RssMb() { return StatusFieldMb("VmRSS:"); }
double PeakRssMb() { return StatusFieldMb("VmHWM:"); }

namespace {

/// The CPUs the calling thread may run on (empty if unknown).
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace

CpuRotor::CpuRotor(double interval_ms)
    : cpus_(AllowedCpus()), interval_ms_(interval_ms) {}

void CpuRotor::Tick() {
  if (cpus_.size() < 2) return;
  const Clock::time_point now = Clock::now();
  if (MsBetween(last_, now) < interval_ms_) return;
  last_ = now;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  // Best effort: a refused move leaves the thread where it is.
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotor::Release() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
  last_ = {};
}

namespace {

constexpr int kChainSteps = 8192;
constexpr int kChainRepsPerCpu = 5;

/// One timed pass over the chain, in ns per step.
double ChainNsPerStep() {
  static volatile uint64_t sink;
  const Clock::time_point t0 = Clock::now();
  uint64_t x = sink | 1;
  for (int i = 0; i < kChainSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 17;
  }
  sink = x;
  return UsBetween(t0, Clock::now()) * 1e3 / kChainSteps;
}

}  // namespace

HostClock::HostClock() : cpus_(AllowedCpus()) {}

double HostClock::NsPerStep() {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool have_mask = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  std::vector<double> times;
  // Best effort: a refused move times the CPU the thread is on.
  for (size_t i = 0; i < std::max<size_t>(1, cpus_.size()); ++i) {
    if (!cpus_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    for (int rep = 0; rep < kChainRepsPerCpu; ++rep) {
      times.push_back(ChainNsPerStep());
    }
  }
  if (have_mask) sched_setaffinity(0, sizeof(saved), &saved);
  return Median(times);
}

size_t SpanRecorder::Begin(const char* name, uint64_t query_id) {
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({name, query_id, parent, Clock::now(), {}});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::Reserve(size_t more) {
  if (spans_.capacity() < spans_.size() + more) {
    spans_.reserve(2 * (spans_.size() + more));
  }
  if (open_.capacity() < open_.size() + more) open_.reserve(open_.size() + more);
}

void SpanRecorder::Preallocate(size_t n) {
  Pretouch(&spans_, spans_.size() + n);
  Reserve(4);
}

void SpanRecorder::Append(const SpanRecorder& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::LayerTimes()
    const {
  // Children of one parent never overlap (one caller thread opens them in
  // sequence), so the covered part is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += MsBetween(s.start, s.end);
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& t = out[s.name];
    const double ms = MsBetween(s.start, s.end);
    ++t.spans;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return out;
}

std::string SpanRecorder::ToChromeJson(const std::string& other_data) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",";
    out << "{\"name\":" << JsonString(s.name) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.query_id
        << ",\"ts\":" << JsonNumber(UsBetween(origin, s.start))
        << ",\"dur\":" << JsonNumber(UsBetween(s.start, s.end))
        << ",\"args\":{\"query\":" << s.query_id << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "],\"otherData\":" << other_data << "}";
  return out.str();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : values_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": " + JsonString(e.unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench

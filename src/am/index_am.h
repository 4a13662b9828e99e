// Index Access Module (paper §2.1.3, §3.3).
//
// Models an asynchronous (remote) index: a probe tuple binds the AM's bind
// columns through equi-join predicates; the lookup completes after a
// latency drawn from a LatencyModel, with at most `concurrency` lookups
// outstanding (the paper's sources are sleeps of identical duration with
// one outstanding request). On completion the AM emits each match as a
// singleton, then the EOT tuple encoding the probing predicate. Probe
// tuples themselves are asynchronously bounced back.
//
// Identical-key probes are coalesced: a probe whose bind values are already
// in flight or already completed triggers no second lookup (the shared SteM
// is the cache that makes the first lookup's results visible to everyone,
// paper §3.3: "the work of probing alternate AMs is not wasted").
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "am/access_module.h"
#include "sim/latency_model.h"
#include "storage/table_store.h"

namespace stems {

struct IndexAmOptions {
  /// Latency of one remote lookup; defaults to the paper's fixed sleep.
  /// Shared so option structs stay copyable; models are stateless (their
  /// randomness comes from the Rng passed at sample time).
  std::shared_ptr<LatencyModel> latency;
  /// Maximum outstanding lookups.
  int concurrency = 1;
  /// Admin cost of accepting a probe.
  SimTime service_time = Micros(1);
  /// Seed for the latency model.
  uint64_t seed = 42;
  /// Coalesce identical-key probes (in flight or completed). Disabling this
  /// is an ablation: it shows the redundant remote work the shared SteM +
  /// coalescing save (cf. the DEC Rdb competition discussion, §5).
  bool coalesce_duplicate_probes = true;
};

class IndexAm : public AccessModule {
 public:
  /// `bind_columns` are column ordinals of the table; `store` is the data
  /// the simulated remote source answers from.
  IndexAm(QueryContext* ctx, std::string name, std::string table_name,
          std::vector<int> bind_columns, const StoredTable* store,
          IndexAmOptions options);

  ModuleKind kind() const override { return ModuleKind::kIndexAm; }

  const std::vector<int>& bind_columns() const { return bind_columns_; }

  bool Quiescent() const override {
    return Module::Quiescent() && active_lookups_ == 0 && pending_.empty();
  }

  /// Number of real (non-coalesced) lookups issued so far.
  uint64_t lookups_issued() const { return lookups_issued_; }
  /// Probes absorbed by in-flight/completed coalescing.
  uint64_t probes_coalesced() const { return probes_coalesced_; }
  /// Match singletons emitted so far.
  uint64_t matches_emitted() const { return matches_emitted_; }
  /// Probes accepted (coalesced or not): the denominator for yield.
  uint64_t probes_accepted() const { return probes_accepted_; }
  /// Lookups queued or in flight right now (policy cost signal).
  size_t outstanding() const { return pending_.size() + active_lookups_; }
  /// Mean observed lookup latency; the configured default until observed.
  SimTime MeanLookupLatency() const {
    if (lookups_completed_ == 0) return Millis(100);
    return static_cast<SimTime>(total_lookup_latency_ /
                                static_cast<int64_t>(lookups_completed_));
  }

  /// Extracts the bind values for probing this AM from `tuple` for matches
  /// at `target_slot`, via the query's equi-join predicates. Empty result
  /// means the tuple cannot bind this AM (routing error).
  std::vector<Value> ExtractBindValues(const Tuple& tuple,
                                       int target_slot) const;

 protected:
  SimTime ServiceTime(const Tuple&) const override {
    return options_.service_time;
  }
  void Process(TuplePtr tuple) override;

 private:
  struct LookupRequest {
    std::vector<Value> bind_values;
  };

  void StartNextLookup();
  /// The completion event of the lookup parked in lookups_[slot].
  void CompleteLookup(uint64_t slot);
  int ResolveTargetSlot(const Tuple& tuple) const;

  std::vector<int> bind_columns_;
  const StoredTable* store_;
  IndexAmOptions options_;
  Rng rng_;

  std::deque<LookupRequest> pending_;
  /// In-flight lookups by slot (at most `concurrency` are live); a
  /// completion event's argument names its slot, and freed slots are
  /// reused.
  std::vector<LookupRequest> lookups_;
  std::vector<uint32_t> free_lookup_slots_;
  MemberEvent<&IndexAm::CompleteLookup> lookup_done_{this};
  CounterSeries* probes_series_ = nullptr;
  CounterSeries* coalesced_series_ = nullptr;
  int active_lookups_ = 0;
  uint64_t lookups_issued_ = 0;
  uint64_t probes_coalesced_ = 0;
  uint64_t matches_emitted_ = 0;
  uint64_t probes_accepted_ = 0;
  uint64_t lookups_completed_ = 0;
  int64_t total_lookup_latency_ = 0;

  std::set<std::vector<Value>> in_flight_;
  std::set<std::vector<Value>> completed_;
};

}  // namespace stems

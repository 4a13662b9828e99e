// PolicyBase: the constraint-respecting routing skeleton shared by all
// built-in policies.
//
// PolicyBase encodes the generalized n-ary symmetric hash join flow of
// paper §2.3/§3 — build first, then probe adjacent SteMs, complete probes
// through index AMs, park §3.5 re-probers — and leaves the *choices* to
// subclasses:
//   * ChooseProbeSlot    — join ordering / spanning tree selection (the one
//                          choice both executors consult; see ProbeStats)
//   * ChooseIndexAm      — competitive access method selection
//   * ShouldProbeIndexAm — whether an optional bounce is worth an index
//                          lookup (join algorithm hybridization, §4.3)
//   * SelectionsFirst    — selection pushdown vs. adaptive interleaving
#pragma once

#include <cstdint>
#include <vector>

#include "eddy/eddy.h"
#include "eddy/routing_policy.h"

namespace stems {

/// Per-slot probe statistics behind a probe-slot choice (§4.1), owned by
/// the caller: the sim reads each slot's SteM, a threaded worker its own
/// counters (docs/parallelism.md).
class ProbeStats {
 public:
  virtual ~ProbeStats() = default;
  virtual uint64_t probes(int slot) const = 0;
  virtual uint64_t matches(int slot) const = 0;
  /// Mean cost of one probe: virtual service latency in the sim, entries
  /// scanned per probe under threads.
  virtual double mean_cost(int slot) const = 0;
  virtual size_t queue_length(int slot) const = 0;
  /// Expected fault-in cost of probing spilled state.
  virtual SimTime spill_cost(int slot) const = 0;
};

class PolicyBase : public RoutingPolicy {
 public:
  RouteDecision Route(const TuplePtr& tuple) override;

  /// Picks the next SteM to probe from non-empty, ascending `candidates`
  /// (slots). Reads only its arguments: under the threaded executor there
  /// is no eddy (`eddy_` is null) and each worker owns one policy instance.
  virtual int ChooseProbeSlot(const Tuple& tuple,
                              const std::vector<int>& candidates,
                              const ProbeStats& stats) = 0;

  /// Slots whose SteM `tuple` may probe next, ascending into `*out`:
  /// unspanned, unprobed and joined to the tuple's span, or every such
  /// slot when none is joined (cross products). The one candidate rule of
  /// both executors.
  static void ProbeCandidates(const QuerySpec& query, const JoinGraph& graph,
                              const Tuple& tuple, std::vector<int>* out);

  /// Batch routing with homogeneous-lineage amortization: when the subclass
  /// opts in (AmortizeHomogeneousLineage), the decision computed for the
  /// first tuple of each RouteLineage group is reused for the rest of the
  /// group, so one policy consultation covers the whole group. Seeds and
  /// prior probers always go through the scalar Route() (their decisions
  /// depend on per-tuple state beyond the lineage key).
  void ChooseBatch(const TupleBatch& batch,
                   std::vector<RouteDecision>* out) override;

 protected:
  /// Opt-in for ChooseBatch's decision sharing. Policies whose per-tuple
  /// randomness is the point (e.g. lottery scheduling) keep this off and
  /// still benefit from the eddy's batched event-queue hops.
  virtual bool AmortizeHomogeneousLineage() const { return false; }

  /// Picks one of the bindable index AMs on the completion table.
  virtual IndexAm* ChooseIndexAm(const Tuple& tuple,
                                 const std::vector<IndexAm*>& ams);

  /// For *optional* bounces (the completion table also has a scan AM):
  /// probe the index anyway, or retire and let the scan deliver the
  /// matches? Default: always use the index.
  virtual bool ShouldProbeIndexAm(const Tuple& tuple,
                                  const std::vector<IndexAm*>& ams) {
    (void)tuple;
    (void)ams;
    return true;
  }

  /// After a probe completed through one AM, hedge it through another
  /// bindable AM on the same table? (Competitive access methods, §3.2: the
  /// eddy can run multiple AMs for the same request and take whichever
  /// answers first — the shared SteM absorbs the overlap.) Default: no.
  virtual bool ShouldHedgeProbe(const Tuple& tuple,
                                const std::vector<IndexAm*>& unprobed) {
    (void)tuple;
    (void)unprobed;
    return false;
  }

  /// Route tuples through pending selection modules before SteM probes?
  virtual bool SelectionsFirst() const { return true; }

 private:
  RouteDecision RoutePriorProber(const TuplePtr& tuple);
  /// Spawns the strict-timestamp retarget clone for self-joins, once.
  void MaybeSpawnRetargetClone(const TuplePtr& tuple);

  /// ChooseBatch's per-batch decision cache (member so the steady state
  /// allocates nothing; cleared at every batch).
  struct CachedDecision {
    RouteLineage key;
    RouteDecision decision;
  };
  std::vector<CachedDecision> batch_cache_;
  std::vector<int> candidates_scratch_;
};

}  // namespace stems

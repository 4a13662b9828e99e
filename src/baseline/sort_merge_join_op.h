// SortMergeJoinOp: blocking sort-merge join — the algorithm a SteM with a
// tournament-tree (ordered) index simulates under deferred bounce-backs
// (paper §3.1).
//
// Buffers both inputs ("sorted runs"); when both are complete, sorts them
// by the join key (charging n log n virtual time) and merges, emitting
// results as the merge advances.
#pragma once

#include <vector>

#include "baseline/operator.h"

namespace stems {

struct SortMergeJoinOpOptions {
  SimTime buffer_time = Micros(2);        ///< per input tuple
  SimTime compare_time = Micros(1);       ///< per comparison during sort
  SimTime merge_step_time = Micros(2);    ///< per merge advance
};

class SortMergeJoinOp : public JoinOperator {
 public:
  SortMergeJoinOp(QueryContext* ctx, std::string name, uint64_t left_mask,
                  uint64_t right_mask, int key_predicate_id,
                  SortMergeJoinOpOptions options = {});

 protected:
  SimTime ServiceTime(const Tuple& tuple) const override;
  void ProcessData(TuplePtr tuple, int side) override;
  void Finalize() override;

 private:
  /// One equal-key run of each sorted input.
  struct KeyGroup {
    size_t left_begin, left_end, right_begin, right_end;
  };

  const Value* KeyOf(const Tuple& tuple, int side) const;
  void JoinPair(const TuplePtr& left, const TuplePtr& right);
  /// The sort event: sorts both runs, then schedules one event per key
  /// group as the merge reaches it.
  void SortAndMerge(uint64_t arg);
  /// Emits the cross pairs of key_groups_[index].
  void EmitKeyGroup(uint64_t index);

  SortMergeJoinOpOptions options_;
  ColumnRef keys_[2];
  std::vector<TuplePtr> runs_[2];
  std::vector<KeyGroup> key_groups_;
  MemberEvent<&SortMergeJoinOp::SortAndMerge> sort_done_{this};
  MemberEvent<&SortMergeJoinOp::EmitKeyGroup> group_ready_{this};
};

}  // namespace stems

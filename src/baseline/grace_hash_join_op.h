// GraceHashJoinOp [7] and HybridHashJoinOp [6] — the blocking hash joins
// the paper's §3.1 shows the eddy can simulate (and hybridize with SHJ) by
// re-routing.
//
// Grace: both inputs are hash-partitioned to "disk" as they arrive; when
// both are complete, partitions are processed one at a time (build left,
// probe right), paying a per-tuple partition I/O cost. No results appear
// before inputs finish — the opposite extreme from the SHJ on the online
// metric, with better locality.
//
// Hybrid-hash: partition 0 stays memory-resident and joins in a pipelined
// fashion (early results); the remaining partitions behave like Grace.
#pragma once

#include <vector>

#include "baseline/shj_op.h"

namespace stems {

struct GraceHashJoinOpOptions {
  size_t num_partitions = 8;
  /// Number of partitions processed in memory, pipelined (0 = pure Grace;
  /// >= 1 = hybrid hash join).
  size_t memory_resident_partitions = 0;
  SimTime partition_write_time = Micros(4);  ///< per input tuple
  SimTime partition_read_time = Micros(4);   ///< per tuple at join time
  SimTime probe_time = Micros(2);
};

class GraceHashJoinOp : public JoinOperator {
 public:
  GraceHashJoinOp(QueryContext* ctx, std::string name, uint64_t left_mask,
                  uint64_t right_mask, int key_predicate_id,
                  GraceHashJoinOpOptions options = {});

  size_t num_partitions() const { return options_.num_partitions; }

 protected:
  SimTime ServiceTime(const Tuple& tuple) const override;
  void ProcessData(TuplePtr tuple, int side) override;
  void Finalize() override;

 private:
  struct Partition {
    std::vector<TuplePtr> inputs[2];
  };

  size_t PartitionOf(const Value& key) const;
  const Value* KeyOf(const Tuple& tuple, int side) const;
  void JoinPair(const TuplePtr& left, const TuplePtr& right);
  /// Schedules partition `p` for processing, charging its read I/O.
  void ProcessPartition(size_t p);
  /// The event of partition `p`: joins it, then chains the next one.
  void JoinPartition(uint64_t p);

  GraceHashJoinOpOptions options_;
  ColumnRef keys_[2];
  std::vector<Partition> partitions_;
  MemberEvent<&GraceHashJoinOp::JoinPartition> partition_ready_{this};
  /// In-memory hash for resident partitions (hybrid mode).
  std::unordered_map<Value, std::vector<TuplePtr>, ValueHash>
      resident_hash_[2];
};

}  // namespace stems

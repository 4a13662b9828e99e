#include "baseline/grace_hash_join_op.h"

#include <cassert>

namespace stems {

GraceHashJoinOp::GraceHashJoinOp(QueryContext* ctx, std::string name,
                                 uint64_t left_mask, uint64_t right_mask,
                                 int key_predicate_id,
                                 GraceHashJoinOpOptions options)
    : JoinOperator(ctx, std::move(name), {left_mask, right_mask}),
      options_(options),
      partitions_(options.num_partitions) {
  const Predicate& p = ctx->query->predicates()[key_predicate_id];
  assert(p.is_join() && p.op() == CompareOp::kEq);
  const ColumnRef& a = p.lhs();
  const ColumnRef& b = p.rhs();
  if (left_mask & (1ULL << a.table_slot)) {
    keys_[0] = a;
    keys_[1] = b;
  } else {
    keys_[0] = b;
    keys_[1] = a;
  }
}

const Value* GraceHashJoinOp::KeyOf(const Tuple& tuple, int side) const {
  return tuple.ValueAt(keys_[side].table_slot, keys_[side].column);
}

size_t GraceHashJoinOp::PartitionOf(const Value& key) const {
  return key.Hash() % options_.num_partitions;
}

SimTime GraceHashJoinOp::ServiceTime(const Tuple& tuple) const {
  if (tuple.IsEot()) return options_.probe_time;
  return options_.partition_write_time;
}

void GraceHashJoinOp::JoinPair(const TuplePtr& left, const TuplePtr& right) {
  TuplePtr result = left;
  for (int s = 0; s < right->num_slots(); ++s) {
    if (!right->Spans(s)) continue;
    if (result->Spans(s)) return;
    result = result->ConcatWith(s, right->component(s).row, 0);
  }
  for (size_t pid = 0; pid < ctx_->query->num_predicates(); ++pid) {
    if (left->PassedPredicate(static_cast<int>(pid)) ||
        right->PassedPredicate(static_cast<int>(pid))) {
      result->MarkPredicatePassed(static_cast<int>(pid));
    }
  }
  if (ApplyEvaluablePredicates(result.get())) Emit(std::move(result));
}

void GraceHashJoinOp::ProcessData(TuplePtr tuple, int side) {
  const Value* key = KeyOf(*tuple, side);
  if (key == nullptr) return;
  const size_t p = PartitionOf(*key);
  if (p < options_.memory_resident_partitions) {
    // Hybrid-hash fast path: pipelined symmetric join in memory.
    resident_hash_[side][*key].push_back(tuple);
    auto it = resident_hash_[1 - side].find(*key);
    if (it != resident_hash_[1 - side].end()) {
      for (const TuplePtr& match : it->second) {
        side == 0 ? JoinPair(tuple, match) : JoinPair(match, tuple);
      }
    }
    return;
  }
  partitions_[p].inputs[side].push_back(std::move(tuple));
}

void GraceHashJoinOp::Finalize() {
  // Both inputs complete: process spilled partitions sequentially, charging
  // read I/O per stored tuple. Scheduled as chained events so results carry
  // realistic virtual timestamps.
  ProcessPartition(options_.memory_resident_partitions);
}

void GraceHashJoinOp::ProcessPartition(size_t p) {
  if (p >= options_.num_partitions) return;
  Partition& part = partitions_[p];
  const SimTime cost =
      options_.partition_read_time *
          static_cast<SimTime>(part.inputs[0].size() + part.inputs[1].size()) +
      options_.probe_time * static_cast<SimTime>(part.inputs[1].size() + 1);
  sim()->Schedule(cost, &partition_ready_, p);
}

void GraceHashJoinOp::JoinPartition(uint64_t p) {
  Partition& part = partitions_[p];
  std::unordered_map<Value, std::vector<TuplePtr>, ValueHash> hash;
  for (const TuplePtr& t : part.inputs[0]) {
    const Value* key = KeyOf(*t, 0);
    hash[*key].push_back(t);
  }
  for (const TuplePtr& t : part.inputs[1]) {
    const Value* key = KeyOf(*t, 1);
    auto it = hash.find(*key);
    if (it == hash.end()) continue;
    for (const TuplePtr& match : it->second) JoinPair(match, t);
  }
  part.inputs[0].clear();
  part.inputs[1].clear();
  ProcessPartition(p + 1);
}

}  // namespace stems

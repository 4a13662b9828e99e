#include "baseline/sort_merge_join_op.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace stems {

SortMergeJoinOp::SortMergeJoinOp(QueryContext* ctx, std::string name,
                                 uint64_t left_mask, uint64_t right_mask,
                                 int key_predicate_id,
                                 SortMergeJoinOpOptions options)
    : JoinOperator(ctx, std::move(name), {left_mask, right_mask}),
      options_(options) {
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

const Value* SortMergeJoinOp::KeyOf(const Tuple& tuple, int side) const {
  return tuple.ValueAt(keys_[side].table_slot, keys_[side].column);
}

SimTime SortMergeJoinOp::ServiceTime(const Tuple&) const {
  return options_.buffer_time;
}

void SortMergeJoinOp::ProcessData(TuplePtr tuple, int side) {
  if (KeyOf(*tuple, side) == nullptr) return;
  runs_[side].push_back(std::move(tuple));
}

void SortMergeJoinOp::JoinPair(const TuplePtr& left, const TuplePtr& right) {
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

void SortMergeJoinOp::Finalize() {
  // Charge the sort: c * (nL log nL + nR log nR) comparisons.
  auto sort_cost = [this](size_t n) -> SimTime {
    if (n < 2) return options_.compare_time;
    return options_.compare_time *
           static_cast<SimTime>(
               static_cast<double>(n) * std::log2(static_cast<double>(n)));
  };
  const SimTime total_sort = sort_cost(runs_[0].size()) +
                             sort_cost(runs_[1].size());
  sim()->Schedule(total_sort, &sort_done_);
}

void SortMergeJoinOp::SortAndMerge(uint64_t /*arg*/) {
  for (int side = 0; side < 2; ++side) {
    std::sort(runs_[side].begin(), runs_[side].end(),
              [this, side](const TuplePtr& a, const TuplePtr& b) {
                return *KeyOf(*a, side) < *KeyOf(*b, side);
              });
  }
  // Merge; each key group emits its cross pairs at its own merge time.
  size_t i = 0, j = 0;
  SimTime at = 0;
  while (i < runs_[0].size() && j < runs_[1].size()) {
    at += options_.merge_step_time;
    const Value& ki = *KeyOf(*runs_[0][i], 0);
    const Value& kj = *KeyOf(*runs_[1][j], 1);
    if (ki < kj) {
      ++i;
      continue;
    }
    if (kj < ki) {
      ++j;
      continue;
    }
    size_t i_end = i;
    while (i_end < runs_[0].size() && *KeyOf(*runs_[0][i_end], 0) == ki) {
      ++i_end;
    }
    size_t j_end = j;
    while (j_end < runs_[1].size() && *KeyOf(*runs_[1][j_end], 1) == ki) {
      ++j_end;
    }
    sim()->Schedule(at, &group_ready_, key_groups_.size());
    key_groups_.push_back({i, i_end, j, j_end});
    i = i_end;
    j = j_end;
  }
}

void SortMergeJoinOp::EmitKeyGroup(uint64_t index) {
  const KeyGroup g = key_groups_[index];
  for (size_t a = g.left_begin; a < g.left_end; ++a) {
    for (size_t b = g.right_begin; b < g.right_end; ++b) {
      JoinPair(runs_[0][a], runs_[1][b]);
    }
  }
}

}  // namespace stems

#include "reference/brute_force.h"

#include <unordered_set>

namespace stems {

std::string ResultKey(const Tuple& tuple) {
  std::string key;
  for (int s = 0; s < tuple.num_slots(); ++s) {
    key += "|s" + std::to_string(s) + ":";
    if (tuple.Spans(s)) key += tuple.component(s).row->ToString();
  }
  return key;
}

std::set<std::string> BruteForceResultSet(const QuerySpec& query,
                                          const TableStore& store) {
  const int n = static_cast<int>(query.num_slots());

  // Deduplicate base tables (set semantics).
  std::vector<std::vector<RowRef>> tables(n);
  for (int s = 0; s < n; ++s) {
    const StoredTable* data =
        store.GetTable(query.slots()[s].table_name).ValueOrDie();
    std::unordered_set<RowRef, RowRefContentHash, RowRefContentEq> seen;
    for (const auto& row : data->rows()) {
      if (seen.insert(row).second) tables[s].push_back(row);
    }
  }

  std::set<std::string> results;
  // Iterative DFS over slot assignments with early predicate pruning.
  std::vector<size_t> cursor(n, 0);
  std::vector<TuplePtr> partials(n + 1);
  partials[0] = Tuple::Make(n);
  int depth = 0;
  while (depth >= 0) {
    if (depth == n) {
      results.insert(ResultKey(*partials[n]));
      --depth;
      continue;
    }
    if (cursor[depth] >= tables[depth].size()) {
      cursor[depth] = 0;
      --depth;
      continue;
    }
    const RowRef& row = tables[depth][cursor[depth]++];
    TuplePtr next = partials[depth]->ConcatWith(depth, row, 0);
    bool pass = true;
    for (const auto& p : query.predicates()) {
      if (p.CanEvaluate(next->spanned_mask()) &&
          !p.CanEvaluate(partials[depth]->spanned_mask())) {
        if (!p.Evaluate(*next)) {
          pass = false;
          break;
        }
      }
    }
    if (!pass) continue;
    partials[depth + 1] = next;
    ++depth;
  }
  return results;
}

std::set<std::string> KeysOf(const std::vector<TuplePtr>& results,
                             std::vector<std::string>* duplicates) {
  std::set<std::string> keys;
  for (const auto& t : results) {
    std::string key = ResultKey(*t);
    if (!keys.insert(key).second && duplicates != nullptr) {
      duplicates->push_back(key);
    }
  }
  return keys;
}

}  // namespace stems

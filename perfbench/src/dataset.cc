#include "dataset.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "reference/brute_force.h"

namespace perfbench {

using stems::AccessMethodKind;
using stems::Schema;
using stems::TableDef;
using stems::Value;
using stems::ValueType;

namespace {

void Die(const stems::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

std::vector<stems::RowRef> MakeRows(
    const std::vector<std::vector<int64_t>>& raw) {
  std::vector<stems::RowRef> rows;
  rows.reserve(raw.size());
  for (const auto& r : raw) {
    std::vector<Value> values;
    values.reserve(r.size());
    for (int64_t v : r) values.push_back(Value::Int64(v));
    rows.push_back(stems::MakeRow(std::move(values)));
  }
  return rows;
}

Schema Schema3(const char* c0, const char* c1, const char* c2) {
  return Schema({{c0, ValueType::kInt64},
                 {c1, ValueType::kInt64},
                 {c2, ValueType::kInt64}});
}

}  // namespace

Dataset MakeDataset(const Sizes& sizes) {
  Rng rng(0xDA7A5E7ULL);
  Dataset d;
  for (size_t i = 0; i < sizes.r_rows; ++i) {
    d.r.push_back({static_cast<int64_t>(i), rng.Uniform(sizes.a_domain),
                   rng.Uniform(Dataset::kKDomain)});
  }
  for (size_t i = 0; i < sizes.s_rows; ++i) {
    d.s.push_back({static_cast<int64_t>(i), rng.Uniform(sizes.a_domain),
                   rng.Uniform(sizes.b_domain)});
  }
  for (size_t i = 0; i < sizes.t_rows; ++i) {
    d.t.push_back({static_cast<int64_t>(i), rng.Uniform(sizes.b_domain),
                   rng.Uniform(Dataset::kKDomain)});
  }
  return d;
}

void LoadTables(const Dataset& data, stems::Engine* engine) {
  Die(engine->AddTable(
          TableDef{"R", Schema3("id", "a", "k"),
                   {{"R.scan", AccessMethodKind::kScan, {}}}},
          MakeRows(data.r)),
      "AddTable R");
  Die(engine->AddTable(
          TableDef{"S", Schema3("id", "a", "b"),
                   {{"S.scan", AccessMethodKind::kScan, {}}}},
          MakeRows(data.s)),
      "AddTable S");
  Die(engine->AddTable(TableDef{"T", Schema3("id", "b", "c"),
                                {{"T.scan", AccessMethodKind::kScan, {}},
                                 {"T.idx_b", AccessMethodKind::kIndex, {1}}}},
                       MakeRows(data.t)),
      "AddTable T");
}

stems::sql::SqlParams Statement::Params(size_t point) const {
  stems::sql::SqlParams params;
  for (size_t j = 0; j < param_names.size(); ++j) {
    params.Set(param_names[j], Value::Int64(grid[point][j]));
  }
  return params;
}

Statement ChainJoinStatement() {
  Statement st;
  st.name = "chain_join";
  st.sql =
      "SELECT R.id, S.id, T.c FROM R, S, T "
      "WHERE R.a = S.a AND S.b = T.b AND R.k < $p AND T.c < $p";
  st.param_names = {"p"};
  st.projection = {{0, 0}, {1, 0}, {2, 2}};
  // One parameter selects on both R and T, from 5% to 100% in 39 even
  // steps: per-query work varies smoothly over a range (~4x) wider than the
  // host's own speed swings, so no percentile can flip between modes.
  for (int64_t p = 50; p <= Dataset::kKDomain; p += 25) st.grid.push_back({p});
  return st;
}

std::vector<Statement> ServerStatements() {
  Statement sel;
  sel.name = "range_select";
  sel.sql =
      "SELECT R.id, R.a, R.k FROM R WHERE R.k >= $lo AND R.k < $hi";
  sel.param_names = {"lo", "hi"};
  sel.slot_widths = {3};
  for (int64_t i = 0; i < 24; ++i) {
    const int64_t lo = 10 * i;
    sel.grid.push_back({lo, lo + 300 + 25 * i});
  }
  Statement join;
  join.name = "join2";
  join.sql =
      "SELECT R.id, R.a, R.k, S.id, S.a, S.b FROM R, S "
      "WHERE R.a = S.a AND R.k < $p";
  join.param_names = {"p"};
  join.slot_widths = {3, 3};
  for (int64_t i = 0; i < 24; ++i) join.grid.push_back({100 + 15 * i});
  return {sel, join};
}

void Reference::Compute(stems::Engine* engine,
                        const std::vector<Statement>& stmts) {
  for (size_t s = 0; s < stmts.size(); ++s) {
    auto prepared = engine->Prepare(stmts[s].sql);
    Die(prepared.status(), "Prepare (reference)");
    for (size_t p = 0; p < stmts[s].grid.size(); ++p) {
      stems::BoundQuery bound = prepared.Value().Bind(stmts[s].Params(p));
      Die(bound.status(), "Bind (reference)");
      const std::set<std::string> keys =
          stems::BruteForceResultSet(bound.spec(), engine->store());
      expected_[{s, p}] = std::vector<std::string>(keys.begin(), keys.end());
    }
  }
}

const std::vector<std::string>& Reference::Expected(const QueryDraw& q) const {
  return expected_.at({q.stmt, q.point});
}

bool Reference::Check(const QueryDraw& q, std::vector<std::string> got) const {
  std::sort(got.begin(), got.end());
  return got == Expected(q);
}

bool ProjectionMatches(const Statement& stmt, const stems::RowView& row) {
  if (row.num_columns() != stmt.projection.size()) return false;
  const stems::Tuple& tuple = *row.tuple();
  for (size_t i = 0; i < stmt.projection.size(); ++i) {
    const auto [slot, column] = stmt.projection[i];
    if (slot >= tuple.num_slots()) return false;
    const stems::RowRef& base = tuple.component(slot).row;
    if (base == nullptr || column >= base->num_values() ||
        !(row.value(i) == base->value(column))) {
      return false;
    }
  }
  return true;
}

std::string WireRowKey(const std::vector<Value>& values,
                       const std::vector<size_t>& widths) {
  stems::Tuple tuple(static_cast<int>(widths.size()));
  size_t offset = 0;
  for (size_t slot = 0; slot < widths.size(); ++slot) {
    if (offset + widths[slot] > values.size()) return "<short row>";
    tuple.SetComponent(
        static_cast<int>(slot),
        stems::MakeRow(std::vector<Value>(values.begin() + offset,
                                          values.begin() + offset +
                                              widths[slot])));
    offset += widths[slot];
  }
  if (offset != values.size()) return "<long row>";
  return stems::ResultKey(tuple);
}

}  // namespace perfbench

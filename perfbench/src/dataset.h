// The benchmark's inputs: fixed tables, the prepared statements with the
// parameter grids --seed draws from, and the correctness gate that holds
// every query's rows against the src/reference/ brute-force result set.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    uint64_t z = (x_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t x_;
};

/// Row counts and key domains. Fixed per workload, never scaled to the
/// machine.
struct Sizes {
  size_t r_rows = 0;
  size_t s_rows = 0;
  size_t t_rows = 0;
  int64_t a_domain = 0;  ///< R.a = S.a join key domain
  int64_t b_domain = 0;  ///< S.b = T.b join key domain
};

/// Raw table contents: R(id, a, k), S(id, a, b), T(id, b, c). R.k and T.c
/// are uniform in [0, kKDomain) and carry the seed-drawn selections.
///
/// The tables depend on the sizes only, never on --seed: the seed draws the
/// query parameters. A seed that moved the data would move where in the
/// scans the first matches sit, and with it first_row_ms, by more than any
/// bound the benchmark could hold.
struct Dataset {
  static constexpr int64_t kKDomain = 1000;
  std::vector<std::vector<int64_t>> r, s, t;
};

Dataset MakeDataset(const Sizes& sizes);

/// Creates the rows and registers R, S and T (T also offers an index AM on
/// T.b, so the sim's eddy chooses between competing access methods, §3.2).
void LoadTables(const Dataset& data, stems::Engine* engine);

/// A prepared statement and the finite grid its parameters are drawn from.
/// Every grid point gets its own reference result set before timing.
struct Statement {
  std::string name;
  std::string sql;
  std::vector<std::string> param_names;
  std::vector<std::vector<int64_t>> grid;  ///< grid[i][j]: value of param j
  /// Columns projected per FROM table, for statements that project every
  /// column in slot order (see WireRowKey); empty otherwise.
  std::vector<size_t> slot_widths;
  /// For statements with an explicit projection: (FROM slot, column) of
  /// each output column, in SELECT order (see ProjectionMatches).
  std::vector<std::pair<int, size_t>> projection;

  stems::sql::SqlParams Params(size_t point) const;
};

/// One query of a run: statement and grid point.
struct QueryDraw {
  size_t stmt = 0;
  size_t point = 0;
};

/// The in-process join: R ⋈ S ⋈ T chain with one seed-drawn parameter
/// selecting on R and T, and an explicit projection.
Statement ChainJoinStatement();

/// The server mix: a range selection on R and a 2-way join R ⋈ S. Both
/// project every column in slot order, so a wire row identifies its
/// composite tuple and the reference check covers the server path too.
std::vector<Statement> ServerStatements();

/// Expected result sets keyed by (statement, grid point): canonical
/// stems::ResultKey strings, sorted.
class Reference {
 public:
  /// Brute-forces every grid point of every statement against `engine`'s
  /// stored tables (outside any timer).
  void Compute(stems::Engine* engine, const std::vector<Statement>& stmts);

  const std::vector<std::string>& Expected(const QueryDraw& q) const;

  /// True when `got` (any order) is exactly the expected set: a dropped,
  /// extra or duplicated row is a mismatch.
  bool Check(const QueryDraw& q, std::vector<std::string> got) const;

 private:
  std::map<std::pair<size_t, size_t>, std::vector<std::string>> expected_;
};

/// True when every output value of `row` is the column `stmt.projection`
/// names of the composite tuple the row was made from. Reference::Check
/// covers the tuple; this covers what the cursor hands the caller.
bool ProjectionMatches(const Statement& stmt, const stems::RowView& row);

/// Canonical key of a wire row of a statement that projects every column of
/// each FROM table in slot order (`widths` = column count per slot).
std::string WireRowKey(const std::vector<stems::Value>& values,
                       const std::vector<size_t>& widths);

}  // namespace perfbench

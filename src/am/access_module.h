// Access Modules (paper §2.1.3): shared declarations.
#pragma once

#include <vector>

#include "catalog/catalog.h"
#include "runtime/module.h"
#include "runtime/query_context.h"
#include "types/row.h"

namespace stems {

/// Builds the EOT row for a completed probe: bound columns carry their
/// probe values, all other columns carry the EOT marker (paper §2.1.3).
/// With no bound columns this is the scan EOT ("predicate true").
RowRef MakeEotRow(size_t num_columns, const std::vector<int>& bind_columns,
                  const std::vector<Value>& bind_values);

/// Common base for scan and index AMs: knows its table and which query
/// slots that table occupies.
class AccessModule : public Module {
 public:
  AccessModule(QueryContext* ctx, std::string name, std::string table_name);

  const std::string& table_name() const { return table_name_; }
  /// The slot AM-produced singletons are placed at (first slot of the
  /// table; SteMs store rows slot-agnostically, see stem/stem.h).
  int canonical_slot() const { return canonical_slot_; }
  const std::vector<int>& table_slots() const { return table_slots_; }

 protected:
  /// Counts one event now on this AM's `<name><suffix>` metric series. The
  /// series is resolved into `*handle` on first use, so the per-row and
  /// per-probe paths neither build the name nor search the recorder.
  void CountOn(CounterSeries** handle, const char* suffix) {
    if (*handle == nullptr) {
      *handle = ctx_->metrics.SeriesHandle(name() + suffix);
    }
    (*handle)->Increment(sim()->now());
  }

  QueryContext* ctx_;

 private:
  std::string table_name_;
  std::vector<int> table_slots_;
  int canonical_slot_ = -1;
};

}  // namespace stems

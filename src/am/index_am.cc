#include "am/index_am.h"

#include <cassert>

namespace stems {

IndexAm::IndexAm(QueryContext* ctx, std::string name, std::string table_name,
                 std::vector<int> bind_columns, const StoredTable* store,
                 IndexAmOptions options)
    : AccessModule(ctx, std::move(name), std::move(table_name)),
      bind_columns_(std::move(bind_columns)),
      store_(store),
      options_(std::move(options)),
      rng_(options_.seed) {
  assert(!bind_columns_.empty() && "index AM requires bind columns");
  if (options_.latency == nullptr) {
    options_.latency = std::make_shared<FixedLatency>(Millis(100));
  }
  if (options_.concurrency < 1) options_.concurrency = 1;
}

int IndexAm::ResolveTargetSlot(const Tuple& tuple) const {
  // Prefer the slot the eddy targeted; otherwise the first slot of this
  // table that the probe does not span.
  if (tuple.route_target_slot() >= 0) {
    for (int s : table_slots()) {
      if (s == tuple.route_target_slot()) return s;
    }
  }
  for (int s : table_slots()) {
    if (!tuple.Spans(s)) return s;
  }
  return canonical_slot();
}

std::vector<Value> IndexAm::ExtractBindValues(const Tuple& tuple,
                                              int target_slot) const {
  std::vector<Value> values;
  for (int bind_col : bind_columns_) {
    const Value* found = nullptr;
    for (const auto& p : ctx_->query->predicates()) {
      auto col = p.EquiJoinColumnFor(target_slot);
      if (!col.has_value() || *col != bind_col) continue;
      auto peer = p.EquiJoinPeerOf(target_slot);
      if (!peer.has_value() || peer->table_slot == target_slot) continue;
      const Value* v = tuple.ValueAt(peer->table_slot, peer->column);
      if (v != nullptr) {
        found = v;
        break;
      }
    }
    if (found == nullptr) return {};  // cannot bind
    values.push_back(*found);
  }
  return values;
}

void IndexAm::Process(TuplePtr tuple) {
  if (tuple->is_seed()) return;  // seeds are for scans only; drop
  ++probes_accepted_;
  const int target_slot = ResolveTargetSlot(*tuple);
  std::vector<Value> bind_values = ExtractBindValues(*tuple, target_slot);
  assert(!bind_values.empty() &&
         "tuple routed to an index AM it cannot bind (validation bug)");

  const bool fresh = !options_.coalesce_duplicate_probes ||
                     (in_flight_.count(bind_values) == 0 &&
                      completed_.count(bind_values) == 0);
  if (fresh) {
    in_flight_.insert(bind_values);
    pending_.push_back({std::move(bind_values)});
    StartNextLookup();
  } else {
    ++probes_coalesced_;
    CountOn(&coalesced_series_, ".coalesced");
  }

  // Asynchronously bounce the probe tuple back (paper Table 1). Its matches
  // rendezvous with it through the SteM on the probe's own table(s), so the
  // probe itself is done with this AM: probe completion (Def. 3) satisfied.
  tuple->MarkProbeCompleted();
  Emit(std::move(tuple));
}

void IndexAm::StartNextLookup() {
  if (pending_.empty() || active_lookups_ >= options_.concurrency) return;
  LookupRequest request = std::move(pending_.front());
  pending_.pop_front();
  ++active_lookups_;
  ++lookups_issued_;
  CountOn(&probes_series_, ".probes");
  const SimTime latency = options_.latency->Sample(sim()->now(), rng_);
  total_lookup_latency_ += latency;
  ++lookups_completed_;
  uint32_t slot = static_cast<uint32_t>(lookups_.size());
  if (free_lookup_slots_.empty()) {
    lookups_.push_back(std::move(request));
  } else {
    slot = free_lookup_slots_.back();
    free_lookup_slots_.pop_back();
    lookups_[slot] = std::move(request);
  }
  sim()->Schedule(latency, &lookup_done_, slot);
}

void IndexAm::CompleteLookup(uint64_t slot) {
  LookupRequest request = std::move(lookups_[slot]);
  free_lookup_slots_.push_back(static_cast<uint32_t>(slot));
  const int num_slots = static_cast<int>(ctx_->query->num_slots());
  const auto& matches = store_->Lookup(bind_columns_, request.bind_values);
  for (const auto& row : matches) {
    // Residual selections on this table prune here when the table occupies a
    // single slot (unambiguous); otherwise downstream SMs/SteMs enforce them.
    if (table_slots().size() == 1) {
      bool pass = true;
      auto singleton = Tuple::MakeSingleton(num_slots, canonical_slot(), row);
      for (const Predicate* sel : ctx_->query->SelectionsOn(canonical_slot())) {
        if (!sel->Evaluate(*singleton)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      ++matches_emitted_;
      Emit(std::move(singleton));
    } else {
      ++matches_emitted_;
      Emit(Tuple::MakeSingleton(num_slots, canonical_slot(), row));
    }
  }
  // End-Of-Transmission for this probing predicate (paper §2.1.3).
  const size_t num_cols = store_->schema().num_columns();
  Emit(Tuple::MakeSingleton(
      num_slots, canonical_slot(),
      MakeEotRow(num_cols, bind_columns_, request.bind_values)));

  in_flight_.erase(request.bind_values);
  completed_.insert(std::move(request.bind_values));
  --active_lookups_;
  StartNextLookup();
}

}  // namespace stems

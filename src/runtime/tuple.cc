#include "runtime/tuple.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>

namespace stems {

namespace {

/// A thread's free tuple blocks: an intrusive stack of at most
/// Tuple::kBlockCacheCap blocks, all of one size (the control block plus
/// Tuple that allocate_shared lays out). A block freed on any thread joins
/// that thread's cache; the cache returns its blocks to the allocator at
/// thread exit.
class BlockCache {
 public:
  ~BlockCache();

  void* Take(size_t bytes) {
    if (head_ == nullptr) return ::operator new(bytes);
    FreeBlock* block = head_;
    head_ = block->next;
    --count_;
    return block;
  }

  void Give(void* p) {
    if (count_ >= Tuple::kBlockCacheCap) {
      ::operator delete(p);
      return;
    }
    head_ = new (p) FreeBlock{head_};
    ++count_;
  }

  size_t count() const { return count_; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  FreeBlock* head_ = nullptr;
  size_t count_ = 0;
};

// Set once this thread's cache is destroyed: tuples that die later in
// thread teardown (say, in another thread_local) free straight to the
// allocator. Trivially destructible, so it stays readable until the thread
// is gone.
thread_local bool t_cache_closed = false;
thread_local BlockCache t_cache;

BlockCache::~BlockCache() {
  t_cache_closed = true;
  while (head_ != nullptr) {
    FreeBlock* block = head_;
    head_ = block->next;
    ::operator delete(block);
  }
}

/// The allocator Tuple::Make hands to allocate_shared: single blocks go
/// through the calling thread's BlockCache.
template <typename T>
struct TupleBlockAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  TupleBlockAllocator() = default;
  template <typename U>
  TupleBlockAllocator(const TupleBlockAllocator<U>&) {}

  T* allocate(size_t n) {
    if (!Tuple::kCachesBlocks || n != 1 || t_cache_closed) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    return static_cast<T*>(t_cache.Take(sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    if (!Tuple::kCachesBlocks || n != 1 || t_cache_closed) {
      ::operator delete(p);
      return;
    }
    t_cache.Give(p);
  }

  template <typename U>
  bool operator==(const TupleBlockAllocator<U>&) const {
    return true;
  }
};

}  // namespace

Tuple::Tuple(int num_slots) : components_(inline_), num_slots_(num_slots) {
  assert(num_slots >= 0 && num_slots <= 64);
  if (num_slots > kInlineSlots) {
    heap_components_ = std::make_unique<Component[]>(num_slots);
    components_ = heap_components_.get();
  }
}

TuplePtr Tuple::Make(int num_slots) {
  return std::allocate_shared<Tuple>(TupleBlockAllocator<Tuple>(), num_slots);
}

size_t Tuple::ThreadCachedBlocks() {
  return t_cache_closed ? 0 : t_cache.count();
}

TuplePtr Tuple::MakeSingleton(int num_slots, int slot, RowRef row) {
  TuplePtr t = Make(num_slots);
  t->SetComponent(slot, std::move(row));
  return t;
}

TuplePtr Tuple::MakeSeed(int num_slots) {
  TuplePtr t = Make(num_slots);
  t->is_seed_ = true;
  return t;
}

int Tuple::SpanSize() const { return std::popcount(spanned_mask_); }

int Tuple::SingletonSlot() const {
  if (SpanSize() != 1) return -1;
  return std::countr_zero(spanned_mask_);
}

void Tuple::SetComponent(int slot, RowRef row, BuildTs ts) {
  assert(slot >= 0 && slot < num_slots());
  const uint64_t bit = 1ULL << slot;
  Component& c = components_[slot];
  c.row = std::move(row);
  c.timestamp = ts;
  if (c.row != nullptr) {
    spanned_mask_ |= bit;
  } else {
    spanned_mask_ &= ~bit;
  }
  if (c.row != nullptr && c.row->IsEot()) {
    eot_mask_ |= bit;
  } else {
    eot_mask_ &= ~bit;
  }
}

void Tuple::SetBuilt(int slot, BuildTs ts) {
  assert(Spans(slot));
  components_[slot].timestamp = ts;
}

BuildTs Tuple::Timestamp() const {
  BuildTs max_ts = 0;
  for (uint64_t m = spanned_mask_; m != 0; m &= m - 1) {
    const BuildTs ts = components_[std::countr_zero(m)].timestamp;
    if (ts == kTsInfinity) return kTsInfinity;
    if (ts > max_ts) max_ts = ts;
  }
  return max_ts;
}

bool Tuple::AllComponentsBuilt() const {
  for (uint64_t m = spanned_mask_; m != 0; m &= m - 1) {
    if (components_[std::countr_zero(m)].timestamp == kTsInfinity) {
      return false;
    }
  }
  return true;
}

TuplePtr Tuple::ConcatWith(int slot, RowRef row, BuildTs row_ts) const {
  assert(!Spans(slot) && "concatenation target slot already spanned");
  TuplePtr t = Make(num_slots());
  std::copy_n(components_, num_slots_, t->components_);
  t->spanned_mask_ = spanned_mask_;
  t->eot_mask_ = eot_mask_;
  t->preds_passed_ = preds_passed_;
  t->prioritized_ = prioritized_;
  t->SetComponent(slot, std::move(row), row_ts);
  return t;
}

TuplePtr Tuple::RetargetSingleton(int to_slot) const {
  const int from = SingletonSlot();
  assert(from >= 0 && "retarget requires a singleton");
  TuplePtr t = Make(num_slots());
  t->SetComponent(to_slot, components_[from].row, components_[from].timestamp);
  t->prioritized_ = prioritized_;
  // Predicate state does not transfer: passed bits refer to the old slot.
  return t;
}

const Value* Tuple::ValueAt(int slot, int col) const {
  if (slot < 0 || slot >= num_slots()) return nullptr;
  const auto& c = components_[slot];
  if (c.row == nullptr || static_cast<size_t>(col) >= c.row->num_values()) {
    return nullptr;
  }
  return &c.row->value(col);
}

std::string Tuple::ToString() const {
  if (is_seed_) return "<seed>";
  std::string out = "{";
  bool first = true;
  for (int s = 0; s < num_slots(); ++s) {
    if (!Spans(s)) continue;
    if (!first) out += " ";
    first = false;
    out += "s" + std::to_string(s) + ":" + components_[s].row->ToString();
    if (components_[s].timestamp != kTsInfinity) {
      out += "@" + std::to_string(components_[s].timestamp);
    }
  }
  out += "}";
  return out;
}

}  // namespace stems

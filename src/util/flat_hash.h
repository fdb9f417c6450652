// Open-addressing hash containers with insertion-ordered iteration.
//
// The per-packet hot paths (service table, pending-SYN tracking, scan
// detector state) hammer small hash tables; std::unordered_map's
// node-per-element layout makes every lookup a pointer chase. FlatMap /
// FlatSet keep the elements contiguous in insertion order and index them
// through a power-of-two open-addressing slot table of 32-bit entry
// references, so a probe touches one cache line of slots and the element
// array stays scan-friendly. Both are thin fronts over one core,
// detail::FlatTable, which stores each element as its bare value_type:
// no per-entry flag. Erased entries are marked in a bit vector that is
// allocated on the first erase, so a table that never erases carries
// none.
//
// Guarantees the rest of the system relies on:
//   * Iteration visits live elements in insertion order — deterministic
//     across platforms and standard libraries, unlike unordered_map.
//   * Erase is O(1) (tombstone slot plus a dead bit); erased elements are
//     compacted away on the next rehash, preserving the relative order of
//     survivors.
//   * The user-supplied hash is finalized through hash_mix, so the
//     sequential keys this simulator produces (pool addresses, ports)
//     cannot cluster even under a weak seed hash.
//
// Unlike unordered_map, references and iterators are invalidated by any
// mutation that can rehash (insert/emplace/operator[]); callers must not
// hold them across inserts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace svcdisc::util {

/// splitmix64 finalizer: a strong 64-bit avalanche. Applied on top of
/// user hashes so identity-like hashes still spread across slots.
constexpr std::uint64_t hash_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

namespace detail {

inline constexpr std::uint32_t kSlotEmpty = 0;
inline constexpr std::uint32_t kSlotTombstone = ~std::uint32_t{0};

inline constexpr std::size_t flat_npos = static_cast<std::size_t>(-1);

/// Capacity (power of two, >= 16) keeping `live` elements under 75% load.
inline std::size_t slot_capacity_for(std::size_t live) {
  std::size_t cap = 16;
  while (cap * 3 < (live + 1) * 4) cap <<= 1;
  return cap;
}

/// The open-addressing core of FlatMap and FlatSet: a dense vector of
/// `Value` in insertion order, a slot table holding 1 + entry index (0
/// empty, ~0 tombstone), and the dead-entry bits. `KeyOf` projects a
/// stored value to its key.
template <typename Value, typename Key, typename KeyOf, typename Hash,
          typename Eq>
class FlatTable {
 public:
  /// Iterator over the live entries, in insertion order.
  template <bool Const>
  class Iter {
    using Table = std::conditional_t<Const, const FlatTable, FlatTable>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const Value*, Value*>;
    using reference = std::conditional_t<Const, const Value&, Value&>;

    Iter() = default;
    Iter(Table* table, std::size_t i) : t_(table), i_(i) { skip_dead(); }
    /// iterator -> const_iterator conversion.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : t_(o.t_), i_(o.i_) {}

    reference operator*() const { return t_->entries_[i_]; }
    pointer operator->() const { return &t_->entries_[i_]; }
    Iter& operator++() {
      ++i_;
      skip_dead();
      return *this;
    }
    Iter operator++(int) {
      Iter tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    template <bool>
    friend class Iter;
    void skip_dead() {
      while (t_->is_dead(i_)) ++i_;
    }
    Table* t_{nullptr};
    std::size_t i_{0};
  };

  FlatTable() = default;
  FlatTable(const FlatTable&) = default;
  FlatTable& operator=(const FlatTable&) = default;
  /// A moved-from table is empty and reusable.
  FlatTable(FlatTable&& o) noexcept
      : entries_(std::move(o.entries_)),
        slots_(std::move(o.slots_)),
        dead_(std::move(o.dead_)),
        size_(std::exchange(o.size_, 0)),
        used_slots_(std::exchange(o.used_slots_, 0)) {
    o.clear();
  }
  FlatTable& operator=(FlatTable&& o) noexcept {
    entries_ = std::move(o.entries_);
    slots_ = std::move(o.slots_);
    dead_ = std::move(o.dead_);
    size_ = std::exchange(o.size_, 0);
    used_slots_ = std::exchange(o.used_slots_, 0);
    o.clear();
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Iter<false> begin() { return {this, 0}; }
  Iter<false> end() { return {this, entries_.size()}; }
  Iter<true> begin() const { return {this, 0}; }
  Iter<true> end() const { return {this, entries_.size()}; }

  void clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), kSlotEmpty);
    dead_.clear();
    size_ = 0;
    used_slots_ = 0;
  }

  void reserve(std::size_t n) {
    entries_.reserve(n);
    const std::size_t cap = slot_capacity_for(n);
    if (cap > slots_.size()) rehash(cap);
  }

  bool contains(const Key& k) const { return find_slot(k) != flat_npos; }

  std::size_t erase(const Key& k) {
    const std::size_t slot = find_slot(k);
    if (slot == flat_npos) return 0;
    const std::size_t idx = slots_[slot] - 1;
    if (idx / 64 >= dead_.size()) dead_.resize(entries_.size() / 64 + 1);
    dead_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    slots_[slot] = kSlotTombstone;
    --size_;
    return 1;
  }

 protected:
  /// Entry index of `k`, or end index when absent.
  std::size_t index_of(const Key& k) const {
    const std::size_t slot = find_slot(k);
    return slot == flat_npos ? entries_.size() : slots_[slot] - 1;
  }

  /// Appends Value(args...) for key `k` unless `k` is present. Returns
  /// (entry index, inserted?).
  template <typename... Args>
  std::pair<std::size_t, bool> try_emplace(const Key& k, Args&&... args) {
    grow_if_needed();
    std::size_t i = mixed_hash(k) & (slots_.size() - 1);
    std::size_t first_tomb = flat_npos;
    while (true) {
      const std::uint32_t s = slots_[i];
      if (s == kSlotEmpty) break;
      if (s == kSlotTombstone) {
        if (first_tomb == flat_npos) first_tomb = i;
      } else if (Eq{}(KeyOf{}(entries_[s - 1]), k)) {
        return {s - 1, false};
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    if (first_tomb != flat_npos) {
      i = first_tomb;  // reuse a tombstone; slot usage unchanged
    } else {
      ++used_slots_;
    }
    entries_.emplace_back(std::forward<Args>(args)...);
    slots_[i] = static_cast<std::uint32_t>(entries_.size());
    ++size_;
    return {entries_.size() - 1, true};
  }

 private:
  bool is_dead(std::size_t i) const {
    return i / 64 < dead_.size() && ((dead_[i / 64] >> (i % 64)) & 1) != 0;
  }

  std::size_t mixed_hash(const Key& k) const {
    return static_cast<std::size_t>(
        hash_mix(static_cast<std::uint64_t>(Hash{}(k))));
  }

  std::size_t find_slot(const Key& k) const {
    if (slots_.empty()) return flat_npos;
    std::size_t i = mixed_hash(k) & (slots_.size() - 1);
    while (true) {
      const std::uint32_t s = slots_[i];
      if (s == kSlotEmpty) return flat_npos;
      if (s != kSlotTombstone && Eq{}(KeyOf{}(entries_[s - 1]), k)) return i;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(16);
      return;
    }
    // Rehash on slot pressure (live + tombstones) or when dead entries
    // dominate the dense array (insert/erase churn).
    if ((used_slots_ + 1) * 4 > slots_.size() * 3 ||
        entries_.size() > 2 * size_ + 8) {
      rehash(slot_capacity_for(size_ + 1));
    }
  }

  /// Rebuilds the slot table tombstone-free, first compacting dead
  /// entries away (survivors keep their insertion order).
  void rehash(std::size_t capacity) {
    if (entries_.size() != size_) {
      std::vector<Value> compact;
      compact.reserve(size_);
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!is_dead(i)) compact.push_back(std::move(entries_[i]));
      }
      entries_ = std::move(compact);
      dead_.clear();
    }
    slots_.assign(capacity, kSlotEmpty);
    for (std::size_t idx = 0; idx < entries_.size(); ++idx) {
      std::size_t i = mixed_hash(KeyOf{}(entries_[idx])) & (capacity - 1);
      while (slots_[i] != kSlotEmpty) i = (i + 1) & (capacity - 1);
      slots_[i] = static_cast<std::uint32_t>(idx + 1);
    }
    used_slots_ = size_;
  }

  std::vector<Value> entries_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> dead_;  ///< erased bits; empty until an erase
  std::size_t size_{0};
  std::size_t used_slots_{0};  ///< filled slots incl. tombstones
};

template <typename Key, typename T>
struct PairFirst {
  const Key& operator()(const std::pair<Key, T>& kv) const { return kv.first; }
};

template <typename Key>
struct Identity {
  const Key& operator()(const Key& k) const { return k; }
};

}  // namespace detail

/// Insertion-ordered open-addressing map. See file comment for the
/// guarantees and the reference-invalidation caveat.
template <typename Key, typename T, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class FlatMap : public detail::FlatTable<std::pair<Key, T>, Key,
                                         detail::PairFirst<Key, T>, Hash, Eq> {
  using Table = detail::FlatTable<std::pair<Key, T>, Key,
                                  detail::PairFirst<Key, T>, Hash, Eq>;

 public:
  using value_type = std::pair<Key, T>;
  using iterator = typename Table::template Iter<false>;
  using const_iterator = typename Table::template Iter<true>;

  iterator find(const Key& k) { return {this, this->index_of(k)}; }
  const_iterator find(const Key& k) const { return {this, this->index_of(k)}; }

  T& operator[](const Key& k) { return emplace(k).first->second; }

  /// Inserts (k, T(args...)) unless present. Returns (pointer-like
  /// iterator to the element, inserted?).
  template <typename... Args>
  std::pair<iterator, bool> emplace(const Key& k, Args&&... args) {
    const auto [idx, inserted] = this->try_emplace(
        k, std::piecewise_construct, std::forward_as_tuple(k),
        std::forward_as_tuple(std::forward<Args>(args)...));
    return {iterator(this, idx), inserted};
  }
};

/// Insertion-ordered open-addressing set; iteration yields const Key&.
template <typename Key, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class FlatSet
    : private detail::FlatTable<Key, Key, detail::Identity<Key>, Hash, Eq> {
  using Table = detail::FlatTable<Key, Key, detail::Identity<Key>, Hash, Eq>;

 public:
  using const_iterator = typename Table::template Iter<true>;
  using iterator = const_iterator;

  using Table::clear;
  using Table::contains;
  using Table::empty;
  using Table::erase;
  using Table::reserve;
  using Table::size;

  const_iterator begin() const { return Table::begin(); }
  const_iterator end() const { return Table::end(); }

  /// Returns true when `k` was newly inserted.
  bool insert(const Key& k) { return this->try_emplace(k, k).second; }
};

}  // namespace svcdisc::util

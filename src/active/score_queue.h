// The adaptive prober's scan queue (DESIGN.md §16): candidate indices
// drained highest score first, lowest index first among equal scores.
//
// A scan re-scores its queue lazily: while probes land in dark space,
// global port popularity keeps falling, and most entries are re-pushed
// at a lower score many times before they are probed. One flat heap of
// (score, index) pairs pays a full sift for each of those re-pushes.
// Scores, however, come from a few tallies and repeat exactly, so the
// queue is two-level instead:
//   * one bucket per distinct stored score, holding a min-heap of 4-byte
//     candidate indices;
//   * a max-heap of the live buckets' scores, plus a score -> bucket map.
// A re-push is a hash lookup and a sift in one (usually small) bucket.
//
// The order is the flat heap's strict total order (score desc, index
// asc), so pop_best() returns the same index sequence and leaves the
// same stored scores as the flat heap would.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/flat_hash.h"

namespace svcdisc::active {

class ScoreQueue {
 public:
  /// Empties the queue and releases every bucket.
  void clear() {
    buckets_.clear();
    free_.clear();
    order_.clear();
    slot_of_.clear();
    size_ = 0;
    repushes_ = 0;
  }

  /// Queues `index` at `score`. Scores must be finite and >= 0; an index
  /// may be queued at most once at a time.
  void push(double score, std::uint32_t index) {
    assert(std::isfinite(score) && score >= 0.0);
    std::vector<std::uint32_t>& heap = bucket_for(score).heap;
    heap.push_back(index);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  /// Distinct stored scores currently queued.
  std::size_t bucket_count() const { return order_.size(); }
  /// Entries re-pushed by pop_best() since the last clear().
  std::uint64_t repushes() const { return repushes_; }

  /// Lazy-rescore pop. Takes the top entry and asks `rescore(index)` for
  /// its current score. If that fell below both the stored score and the
  /// next entry's stored score, the entry is re-pushed at the fresh score
  /// and the loop looks again; otherwise the index is returned. Stored
  /// scores only ever fall on re-push, so the loop terminates.
  template <typename Rescore>
  std::optional<std::uint32_t> pop_best(Rescore&& rescore) {
    while (size_ > 0) {
      const std::uint32_t slot = order_.front().slot;
      Bucket& top = buckets_[slot];
      const double stored = top.score;
      const std::uint32_t index = top.heap.front();
      const double fresh = rescore(index);
      std::pop_heap(top.heap.begin(), top.heap.end(), std::greater<>{});
      top.heap.pop_back();
      --size_;
      if (top.heap.empty()) release_top(slot);
      // The next entry is the top bucket's own next index when it has
      // one (same score), else the best of the next bucket.
      if (size_ > 0 && fresh < stored && fresh < order_.front().score) {
        push(fresh, index);
        ++repushes_;
        continue;
      }
      return index;
    }
    return std::nullopt;
  }

 private:
  struct Bucket {
    double score{0.0};
    std::vector<std::uint32_t> heap;  ///< min-heap of candidate indices
  };
  struct Rank {
    double score{0.0};
    std::uint32_t slot{0};
    /// Max-heap on score; live buckets never share one.
    bool operator<(const Rank& other) const { return score < other.score; }
  };

  static std::uint64_t key_of(double score) {
    // + 0.0 folds -0.0 into +0.0: equal doubles share one bucket.
    return std::bit_cast<std::uint64_t>(score + 0.0);
  }

  Bucket& bucket_for(double score) {
    const auto [it, inserted] =
        slot_of_.emplace(key_of(score), std::uint32_t{0});
    if (!inserted) return buckets_[it->second];
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    it->second = slot;
    buckets_[slot].score = score;
    order_.push_back({score, slot});
    std::push_heap(order_.begin(), order_.end());
    return buckets_[slot];
  }

  /// Drops the emptied top bucket and frees its storage: a scan creates
  /// thousands of short-lived buckets.
  void release_top(std::uint32_t slot) {
    std::pop_heap(order_.begin(), order_.end());
    order_.pop_back();
    slot_of_.erase(key_of(buckets_[slot].score));
    std::vector<std::uint32_t>().swap(buckets_[slot].heap);
    free_.push_back(slot);
  }

  std::vector<Bucket> buckets_;       ///< bucket slots, live or free
  std::vector<std::uint32_t> free_;   ///< released slots, reused first
  std::vector<Rank> order_;           ///< max-heap of live buckets
  util::FlatMap<std::uint64_t, std::uint32_t> slot_of_;  ///< score -> slot
  std::size_t size_{0};
  std::uint64_t repushes_{0};
};

}  // namespace svcdisc::active

// The adaptive prober's scan queue (DESIGN.md §16): candidate indices
// drained highest score first, lowest index first among equal scores.
//
// A scan re-scores its queue lazily: while probes land in dark space,
// global port popularity keeps falling, and most entries move to a lower
// score many times before they are probed. Scores come from a few
// tallies and repeat exactly, so the queue is two-level:
//   * one bucket per distinct stored score;
//   * a max-heap of the live buckets' scores, plus a score -> bucket map.
//
// A bucket holds two kinds of entry, each in a min-heap:
//   * single candidate indices (hints, and cells whose score has a
//     per-cell term);
//   * class runs. A run is one (/24 page, column) class: a 256-bit set
//     over the page's rows, registered ascending through add_page(), so
//     bit order is index order. Its heap key is its least index.
// Every cell of a run scores the same, so pop_best() re-scores a run once,
// through `class_score`, where a per-cell queue re-scored each cell. A
// cell leaves its run when promote() names it (its address gained a
// per-cell term); it is split out lazily, into the run's own bucket as a
// single entry at the same stored score, when the run is next walked.
//
// pop_best() walks the top bucket in index order and returns the first
// entry whose fresh score is not below the bucket's; every entry it
// passed moves to its fresh score's bucket (a run, only its part below
// that entry). When none qualifies, all but the greatest index move, and
// that one is returned unless its fresh score is below the best bucket
// left, in which case it moves too and the walk goes on there. That is
// exactly the flat heap's rule (score desc, index asc; an entry re-pushed
// when its fresh score is below both its stored score and the next
// entry's), applied to a whole bucket at once: the score callbacks cannot
// change during one call, so every cell of a run has one fresh score, and
// entries passed over in one bucket never outrank one another's stored
// scores. pop_best() returns the same index sequence, and leaves the same
// stored scores, as the flat heap would.
//
// Over the 36 scans of the half-budget adaptive dtcp1_18d campaign, a
// queue of single cells re-pushed 2.77M entries; this one moves 0.50M,
// since each scan's 78k cells fall into 310 classes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "util/flat_hash.h"

namespace svcdisc::active {

class ScoreQueue {
 public:
  /// A run's cells: bit k is the k-th row of its page.
  using RunBits = std::array<std::uint64_t, 4>;

  /// Empties the queue and releases every bucket and page.
  void clear() {
    buckets_.clear();
    free_.clear();
    order_.clear();
    slot_of_.clear();
    row_base_.clear();
    page_start_.assign(1, 0);
    promoted_.clear();
    size_ = 0;
    repushes_ = 0;
  }

  /// Registers a page of at most 256 rows: the candidate index of each
  /// row's column 0, ascending. Returns its id for push_run().
  std::uint32_t add_page(std::span<const std::uint32_t> row_bases) {
    assert(row_bases.size() <= 256);
    assert(std::is_sorted(row_bases.begin(), row_bases.end()));
    row_base_.insert(row_base_.end(), row_bases.begin(), row_bases.end());
    page_start_.push_back(static_cast<std::uint32_t>(row_base_.size()));
    promoted_.emplace_back();
    return static_cast<std::uint32_t>(page_start_.size() - 2);
  }

  /// Queues `index` at `score`. Scores must be finite and >= 0; an index
  /// may be queued at most once at a time.
  void push(double score, std::uint32_t index) {
    assert(std::isfinite(score) && score >= 0.0);
    push_cell(bucket_for(score), index);
    ++size_;
  }

  /// Queues the cells `bits` of class (page, column) at `score`, the
  /// class score every one of them shares.
  void push_run(double score, std::uint32_t page, std::uint32_t column,
                const RunBits& bits) {
    assert(std::isfinite(score) && score >= 0.0);
    assert(page + 1 < page_start_.size());
    Run run{0, page, column, bits};
    if (!fix_least(run)) return;
    size_ += static_cast<std::size_t>(count(bits));
    push_run_entry(bucket_for(score), run);
  }

  /// The row of `page` whose column-0 index is `row_base` now scores per
  /// cell: its queued run cells become single entries, at the same
  /// stored score, before they are next re-scored.
  void promote(std::uint32_t page, std::uint32_t row_base) {
    const std::span<const std::uint32_t> rows = page_rows(page);
    const auto it = std::lower_bound(rows.begin(), rows.end(), row_base);
    assert(it != rows.end() && *it == row_base);
    const auto bit = static_cast<unsigned>(it - rows.begin());
    promoted_[page][bit / 64] |= std::uint64_t{1} << (bit % 64);
  }

  bool empty() const { return size_ == 0; }
  /// Distinct stored scores currently queued.
  std::size_t bucket_count() const { return order_.size(); }
  /// Entries moved by pop_best() since the last clear(): a single index
  /// or the moved part of one run counts once. Without runs this is the
  /// flat heap's re-push count.
  std::uint64_t repushes() const { return repushes_; }

  /// Lazy-rescore pop (see the file comment). `rescore(index)` is a
  /// single entry's current score; `class_score(index)` the current score
  /// shared by every cell of the run holding `index`. Each pass that does
  /// not return lowers stored scores only, so the loop ends.
  template <typename Rescore, typename ClassScore>
  std::optional<std::uint32_t> pop_best(Rescore&& rescore,
                                        ClassScore&& class_score) {
    while (size_ > 0) {
      const std::uint32_t slot = order_.front().slot;
      const double stored = buckets_[slot].score;
      held_runs_.clear();
      std::uint32_t held_greatest = 0;  // greatest cell of the held runs
      std::optional<Held<std::uint32_t>> held_cell;  // the bucket's last
      std::optional<std::uint32_t> pick;
      // Walk the top bucket in index order until an entry holds its
      // score. A run that does not waits for the cutoff; a cell that does
      // not moves at once, unless it is the bucket's last entry.
      while (!pick) {
        Bucket& top = buckets_[slot];
        if (top.runs.empty() && top.cells.empty()) break;
        if (!top.runs.empty() &&
            (top.cells.empty() || top.runs.front().least < top.cells.front())) {
          if (split_promoted(top)) continue;
          Run& front = top.runs.front();
          const double fresh = class_score(front.least);
          if (fresh >= stored) {
            // Its least cell goes; the rest keeps its place in the heap.
            pick = front.least;
            clear_bit(front, lowest(front.bits));
            if (fix_least(front)) {
              sift_down_front(top.runs);
            } else {
              pop_run(top);
            }
          } else {
            const Run run = pop_run(top);
            held_greatest =
                std::max(held_greatest, index_at(run, highest(run.bits)));
            held_runs_.push_back({fresh, run});
          }
        } else {
          const std::uint32_t index = pop_cell(top);
          const double fresh = rescore(index);
          if (fresh >= stored) {
            pick = index;
          } else if (top.cells.empty() && top.runs.empty() &&
                     (held_runs_.empty() || held_greatest < index)) {
            held_cell = Held<std::uint32_t>{fresh, index};
          } else {
            move_cell({fresh, index});  // invalidates `top`
          }
        }
      }
      if (pick) {
        // Every run walked before the pick moves its part below it.
        for (Held<Run>& r : held_runs_) {
          Run rest = r.entry;
          const RunBits low = prefix(r.entry, *pick);
          for (std::size_t w = 0; w < 4; ++w) {
            r.entry.bits[w] = low[w];
            rest.bits[w] &= ~low[w];
          }
          if (fix_least(rest)) push_run_entry(buckets_[slot], rest);
          if (fix_least(r.entry)) move_run(r);
        }
        --size_;
        if (buckets_[slot].runs.empty() && buckets_[slot].cells.empty()) {
          release_top(slot);
        }
        return pick;
      }
      // No entry held its score: all but the greatest index move, then
      // that one meets the best bucket left.
      assert(held_cell || !held_runs_.empty());
      Held<std::uint32_t> last{0.0, 0};
      std::optional<Run> last_run;  // its class, when the last is a run's
      if (held_cell) {
        last = *held_cell;
      } else {
        for (Held<Run>& r : held_runs_) {
          const unsigned bit = highest(r.entry.bits);
          if (index_at(r.entry, bit) != held_greatest) continue;
          last = {r.fresh, held_greatest};
          last_run = r.entry;
          last_run->bits = {};
          set_bit(*last_run, bit);
          fix_least(*last_run);
          clear_bit(r.entry, bit);
          break;
        }
      }
      for (Held<Run>& r : held_runs_) {
        if (fix_least(r.entry)) move_run(r);
      }
      release_top(slot);
      if (size_ > 1 && last.fresh < order_.front().score) {
        // Back into its class as a run: it still has no per-cell term.
        if (last_run) {
          move_run({last.fresh, *last_run});
        } else {
          move_cell(last);
        }
        continue;
      }
      --size_;
      return last.entry;
    }
    return std::nullopt;
  }

  /// pop_best() for a queue of single entries only, or one whose runs
  /// re-score as their least index does.
  template <typename Rescore>
  std::optional<std::uint32_t> pop_best(Rescore&& rescore) {
    return pop_best(rescore, rescore);
  }

 private:
  struct Run {
    std::uint32_t least{0};  ///< heap key: the index of its lowest bit
    std::uint32_t page{0};
    std::uint32_t column{0};
    RunBits bits{};
  };
  template <typename Entry>
  struct Held {
    double fresh{0.0};
    Entry entry{};
  };
  struct Bucket {
    double score{0.0};
    std::vector<std::uint32_t> cells;  ///< min-heap of candidate indices
    std::vector<Run> runs;             ///< min-heap on Run::least
  };
  struct Rank {
    double score{0.0};
    std::uint32_t slot{0};
    /// Max-heap on score; live buckets never share one.
    bool operator<(const Rank& other) const { return score < other.score; }
  };
  struct RunAfter {
    bool operator()(const Run& a, const Run& b) const {
      return a.least > b.least;
    }
  };

  static std::uint64_t key_of(double score) {
    // + 0.0 folds -0.0 into +0.0: equal doubles share one bucket.
    return std::bit_cast<std::uint64_t>(score + 0.0);
  }

  static int count(const RunBits& bits) {
    int n = 0;
    for (const std::uint64_t w : bits) n += std::popcount(w);
    return n;
  }
  /// The lowest set bit; `bits` must not be empty.
  static unsigned lowest(const RunBits& bits) {
    for (unsigned w = 0;; ++w) {
      if (bits[w] != 0) {
        return w * 64 + static_cast<unsigned>(std::countr_zero(bits[w]));
      }
    }
  }
  /// The highest set bit; `bits` must not be empty.
  static unsigned highest(const RunBits& bits) {
    for (unsigned w = 4; w-- > 0;) {
      if (bits[w] != 0) {
        return w * 64 + 63 - static_cast<unsigned>(std::countl_zero(bits[w]));
      }
    }
    return 0;
  }
  static void set_bit(Run& run, unsigned bit) {
    run.bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  static void clear_bit(Run& run, unsigned bit) {
    run.bits[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
  }

  std::span<const std::uint32_t> page_rows(std::uint32_t page) const {
    return {row_base_.data() + page_start_[page],
            row_base_.data() + page_start_[page + 1]};
  }
  std::uint32_t index_at(const Run& run, unsigned bit) const {
    return row_base_[page_start_[run.page] + bit] + run.column;
  }
  /// The bits of `run` whose index is below `cutoff`.
  RunBits prefix(const Run& run, std::uint32_t cutoff) const {
    const std::span<const std::uint32_t> rows = page_rows(run.page);
    const auto below = static_cast<unsigned>(
        std::partition_point(rows.begin(), rows.end(),
                             [&](std::uint32_t base) {
                               return base + run.column < cutoff;
                             }) -
        rows.begin());
    RunBits out = run.bits;
    for (unsigned w = 0; w < 4; ++w) {
      const unsigned from = w * 64;
      if (below <= from) {
        out[w] = 0;
      } else if (below < from + 64) {
        out[w] &= (std::uint64_t{1} << (below - from)) - 1;
      }
    }
    return out;
  }
  /// Sets run.least; false when the run holds no cell.
  bool fix_least(Run& run) const {
    if (std::ranges::all_of(run.bits, [](std::uint64_t w) { return w == 0; })) {
      return false;
    }
    run.least = index_at(run, lowest(run.bits));
    return true;
  }

  static void push_cell(Bucket& bucket, std::uint32_t index) {
    bucket.cells.push_back(index);
    std::push_heap(bucket.cells.begin(), bucket.cells.end(), std::greater<>{});
  }
  static std::uint32_t pop_cell(Bucket& bucket) {
    std::pop_heap(bucket.cells.begin(), bucket.cells.end(), std::greater<>{});
    const std::uint32_t index = bucket.cells.back();
    bucket.cells.pop_back();
    return index;
  }
  static void push_run_entry(Bucket& bucket, const Run& run) {
    bucket.runs.push_back(run);
    std::push_heap(bucket.runs.begin(), bucket.runs.end(), RunAfter{});
  }
  static Run pop_run(Bucket& bucket) {
    std::pop_heap(bucket.runs.begin(), bucket.runs.end(), RunAfter{});
    const Run run = bucket.runs.back();
    bucket.runs.pop_back();
    return run;
  }

  /// Restores the heap order after the front run's least index rose.
  static void sift_down_front(std::vector<Run>& heap) {
    const Run item = heap.front();
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && heap[child + 1].least < heap[child].least) {
        ++child;
      }
      if (item.least < heap[child].least) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = item;
  }

  /// Splits the promoted cells out of the bucket's front run into the
  /// bucket as single entries and puts the rest back; false when it
  /// holds none.
  bool split_promoted(Bucket& bucket) {
    const RunBits& promoted = promoted_[bucket.runs.front().page];
    RunBits out{};
    bool any = false;
    for (std::size_t w = 0; w < 4; ++w) {
      out[w] = bucket.runs.front().bits[w] & promoted[w];
      any |= out[w] != 0;
    }
    if (!any) return false;
    Run run = pop_run(bucket);
    for (std::size_t w = 0; w < 4; ++w) {
      run.bits[w] &= ~out[w];
      for (std::uint64_t m = out[w]; m != 0; m &= m - 1) {
        const auto bit = static_cast<unsigned>(w * 64) +
                         static_cast<unsigned>(std::countr_zero(m));
        push_cell(bucket, index_at(run, bit));
      }
    }
    if (fix_least(run)) push_run_entry(bucket, run);
    return true;
  }

  void move_cell(const Held<std::uint32_t>& cell) {
    push_cell(bucket_for(cell.fresh), cell.entry);
    ++repushes_;
  }
  void move_run(const Held<Run>& run) {
    push_run_entry(bucket_for(run.fresh), run.entry);
    ++repushes_;
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
    std::vector<std::uint32_t>().swap(buckets_[slot].cells);
    std::vector<Run>().swap(buckets_[slot].runs);
    free_.push_back(slot);
  }

  std::vector<Bucket> buckets_;       ///< bucket slots, live or free
  std::vector<std::uint32_t> free_;   ///< released slots, reused first
  std::vector<Rank> order_;           ///< max-heap of live buckets
  util::FlatMap<std::uint64_t, std::uint32_t> slot_of_;  ///< score -> slot
  /// Pages: page p's row bases are row_base_[page_start_[p], [p + 1]).
  std::vector<std::uint32_t> row_base_;
  std::vector<std::uint32_t> page_start_{0};
  std::vector<RunBits> promoted_;     ///< per page: rows scored per cell
  std::vector<Held<Run>> held_runs_;  ///< pop_best() scratch
  std::size_t size_{0};  ///< queued cells
  std::uint64_t repushes_{0};
};

}  // namespace svcdisc::active

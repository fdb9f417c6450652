// Streaming sketch primitives (DESIGN.md §15): constant-memory summaries
// for online inference over discovery streams.
//
//   * HyperLogLog      — distinct-count estimator (client/address
//                        cardinality). Standard error 1.04/sqrt(2^p);
//                        small cardinalities fall back to linear
//                        counting, which is near-exact in the regime the
//                        per-service client sets live in.
//   * CountMinSketch   — per-key tally estimator (flow counts). Always
//                        overestimates; the error is bounded by e*N/width
//                        with high probability over the row hashes.
//   * DecayRate        — exponentially decayed event-rate estimator in
//                        simulated time (discovery/flow rates for the
//                        change-point detector).
//
// All three merge commutatively and associatively (HLL: element-wise
// register max, CMS: element-wise add, DecayRate: decay-align then add),
// so merging partial sketches in any order yields the same state.
// Nothing here draws randomness: hashing is util::hash_mix over fixed
// salts, so identical input streams produce identical sketch state.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/flat_hash.h"
#include "util/sim_time.h"

namespace svcdisc::util {

/// HyperLogLog distinct-count estimator over pre-hashed 64-bit items.
/// Default-constructed sketches are disabled (no registers, no memory);
/// init() arms them. Feed items through add(hash_mix(x)) — the estimator
/// needs avalanched bits, not raw keys.
class HyperLogLog {
 public:
  HyperLogLog() = default;
  explicit HyperLogLog(int precision) { init(precision); }

  /// Allocates 2^precision one-byte registers. Precision 4..18; larger
  /// precision = lower error (1.04/sqrt(2^p)) and more memory.
  void init(int precision) {
    precision_ = precision;
    registers_.assign(std::size_t{1} << precision, 0);
  }
  bool enabled() const { return !registers_.empty(); }
  int precision() const { return precision_; }

  void add(std::uint64_t hash) {
    if (!enabled()) return;
    const std::size_t idx =
        static_cast<std::size_t>(hash >> (64 - precision_));
    // Rank of the first set bit in the remaining stream, 1-based; the
    // precision bits are consumed by the bucket index.
    const std::uint64_t rest = (hash << precision_) | (1ull << (precision_ - 1));
    const std::uint8_t rank =
        static_cast<std::uint8_t>(std::countl_zero(rest) + 1);
    if (rank > registers_[idx]) registers_[idx] = rank;
  }

  /// Estimated cardinality. Small estimates use linear counting over the
  /// empty-register count; the 64-bit hash space makes the classic
  /// large-range correction unnecessary.
  double estimate() const {
    if (!enabled()) return 0.0;
    const double m = static_cast<double>(registers_.size());
    double sum = 0.0;
    std::size_t zeros = 0;
    for (const std::uint8_t r : registers_) {
      sum += std::ldexp(1.0, -static_cast<int>(r));
      if (r == 0) ++zeros;
    }
    const double raw = alpha(registers_.size()) * m * m / sum;
    if (raw <= 2.5 * m && zeros > 0) {
      return m * std::log(m / static_cast<double>(zeros));
    }
    return raw;
  }

  /// Rounded estimate for places that report integers.
  std::uint64_t count() const {
    const double e = estimate();
    return e <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(e));
  }

  /// Element-wise register max: the merged sketch equals the sketch of
  /// the concatenated streams, in any merge order. A disabled side is an
  /// identity.
  void merge(const HyperLogLog& other) {
    if (!other.enabled()) return;
    if (!enabled()) {
      *this = other;
      return;
    }
    // Mixed precisions never occur in this codebase; guard cheaply.
    if (registers_.size() != other.registers_.size()) return;
    for (std::size_t i = 0; i < registers_.size(); ++i) {
      if (other.registers_[i] > registers_[i]) {
        registers_[i] = other.registers_[i];
      }
    }
  }

  std::size_t memory_bytes() const {
    return enabled() ? sizeof(*this) + registers_.capacity() : 0;
  }

  const std::vector<std::uint8_t>& registers() const { return registers_; }

 private:
  static double alpha(std::size_t m) {
    if (m <= 16) return 0.673;
    if (m <= 32) return 0.697;
    if (m <= 64) return 0.709;
    return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }

  int precision_{0};
  std::vector<std::uint8_t> registers_;
};

/// Count-min sketch: per-key tally estimation in width*depth counters.
/// Estimates never undercount; overcounts are bounded by e*N/width with
/// probability 1 - e^-depth. Keys are pre-hashed 64-bit values; each row
/// re-mixes the key with a fixed odd salt.
class CountMinSketch {
 public:
  CountMinSketch() = default;
  CountMinSketch(std::size_t width, std::size_t depth) { init(width, depth); }

  /// `width` is rounded up to a power of two so row indexing is a mask.
  void init(std::size_t width, std::size_t depth) {
    width_ = std::bit_ceil(width < 2 ? std::size_t{2} : width);
    depth_ = depth < 1 ? 1 : depth;
    counts_.assign(width_ * depth_, 0);
    total_ = 0;
  }
  bool enabled() const { return !counts_.empty(); }

  void add(std::uint64_t key_hash, std::uint64_t n = 1) {
    for (std::size_t row = 0; row < depth_; ++row) {
      counts_[row * width_ + slot(key_hash, row)] += n;
    }
    total_ += n;
  }

  std::uint64_t estimate(std::uint64_t key_hash) const {
    if (!enabled()) return 0;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::size_t row = 0; row < depth_; ++row) {
      const std::uint64_t c = counts_[row * width_ + slot(key_hash, row)];
      if (c < best) best = c;
    }
    return best;
  }

  /// Total mass added — the N in the e*N/width error bound.
  std::uint64_t total() const { return total_; }
  std::size_t width() const { return width_; }
  std::size_t depth() const { return depth_; }

  /// Element-wise add; commutative, so merges are order-free.
  void merge(const CountMinSketch& other) {
    if (!other.enabled()) return;
    if (!enabled()) {
      *this = other;
      return;
    }
    if (counts_.size() != other.counts_.size()) return;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  std::size_t memory_bytes() const {
    return enabled() ? sizeof(*this) + counts_.capacity() * sizeof(std::uint64_t)
                     : 0;
  }

 private:
  std::size_t slot(std::uint64_t key_hash, std::size_t row) const {
    // Distinct odd salts per row: hash_mix avalanche makes the rows
    // behave as independent hash functions for the CMS bound.
    return static_cast<std::size_t>(
               hash_mix(key_hash ^ (0x9e3779b97f4a7c15ULL * (row + 1)))) &
           (width_ - 1);
  }

  std::size_t width_{0};
  std::size_t depth_{0};
  std::uint64_t total_{0};
  std::vector<std::uint64_t> counts_;
};

/// Exponentially decayed event counter in simulated time. observe(t, n)
/// decays the accumulated mass by 2^(-(t-last)/half_life) and adds n;
/// rate_per_sec(t) converts the decayed mass into an equivalent steady
/// event rate. Pure arithmetic over the observation stream — same
/// stream, same state, regardless of wall-clock or thread count.
class DecayRate {
 public:
  DecayRate() = default;
  explicit DecayRate(Duration half_life) : half_life_(half_life) {}

  void observe(TimePoint t, double n = 1.0) {
    decay_to(t);
    mass_ += n;
  }

  /// Decayed mass at time t (no observation recorded).
  double mass(TimePoint t) const {
    if (half_life_.usec <= 0) return mass_;
    const double dt = static_cast<double>((t - last_).usec);
    if (dt <= 0) return mass_;
    return mass_ * std::exp2(-dt / static_cast<double>(half_life_.usec));
  }

  /// Equivalent steady rate: a process emitting r events/sec holds a
  /// decayed mass of r * half_life / ln 2 in equilibrium.
  double rate_per_sec(TimePoint t) const {
    if (half_life_.usec <= 0) return 0.0;
    const double hl_sec = static_cast<double>(half_life_.usec) / 1e6;
    return mass(t) * (kLn2 / hl_sec);
  }

  TimePoint last_observed() const { return last_; }

  /// Decay both sides to the later timestamp, then add masses. With a
  /// shared half-life this is commutative, so merges don't care about
  /// order.
  void merge(const DecayRate& other) {
    const TimePoint at = last_ < other.last_ ? other.last_ : last_;
    decay_to(at);
    mass_ += other.mass(at);
  }

 private:
  static constexpr double kLn2 = 0.6931471805599453;

  void decay_to(TimePoint t) {
    mass_ = mass(t);
    if (last_ < t) last_ = t;
  }

  Duration half_life_{hours(1)};
  TimePoint last_{};
  double mass_{0.0};
};

}  // namespace svcdisc::util

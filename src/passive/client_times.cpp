#include "passive/client_times.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace svcdisc::passive {

ClientTimes::ClientTimes(const ClientTimes& o)
    : size_(o.size_),
      log2_capacity_(o.log2_capacity_),
      holds_free_key_(o.holds_free_key_),
      free_key_time_(o.free_key_time_) {
  if (!o.spilled()) {
    inline_ = o.inline_;
    return;
  }
  block_ = static_cast<std::int64_t*>(::operator new(capacity() * kSlotBytes));
  std::memcpy(block_, o.block_, capacity() * kSlotBytes);
}

ClientTimes& ClientTimes::operator=(const ClientTimes& o) {
  if (this != &o) {
    ClientTimes copy(o);
    *this = std::move(copy);
  }
  return *this;
}

ClientTimes::ClientTimes(ClientTimes&& o) noexcept
    : size_(std::exchange(o.size_, 0)),
      log2_capacity_(std::exchange(o.log2_capacity_, 0)),
      holds_free_key_(std::exchange(o.holds_free_key_, false)),
      free_key_time_(o.free_key_time_) {
  if (spilled()) {
    block_ = o.block_;
  } else {
    inline_ = o.inline_;
  }
}

ClientTimes& ClientTimes::operator=(ClientTimes&& o) noexcept {
  if (this != &o) {
    release();
    size_ = std::exchange(o.size_, 0);
    log2_capacity_ = std::exchange(o.log2_capacity_, 0);
    holds_free_key_ = std::exchange(o.holds_free_key_, false);
    free_key_time_ = o.free_key_time_;
    if (spilled()) {
      block_ = o.block_;
    } else {
      inline_ = o.inline_;
    }
  }
  return *this;
}

ClientTimes::~ClientTimes() { release(); }

void ClientTimes::release() {
  if (spilled()) ::operator delete(block_);
  log2_capacity_ = 0;
}

bool ClientTimes::contains(net::Ipv4 client) const {
  const std::uint32_t key = client.value();
  if (!spilled()) {
    return std::find(inline_.keys, inline_.keys + size_, key) !=
           inline_.keys + size_;
  }
  if (key == kFree) return holds_free_key_;
  const std::uint32_t* keys = block_keys();
  const std::size_t mask = capacity() - 1;
  for (std::size_t i = home(key, log2_capacity_);; i = (i + 1) & mask) {
    if (keys[i] == key) return true;
    if (keys[i] == kFree) return false;
  }
}

std::int64_t& ClientTimes::find_or_add(std::uint32_t key, std::int64_t t,
                                       bool& added) {
  added = false;
  if (!spilled()) {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (inline_.keys[i] == key) return inline_.times[i];
    }
    added = true;
    if (size_ < kInline) {
      inline_.keys[size_] = key;
      inline_.times[size_] = t;
      return inline_.times[size_++];
    }
    rebuild(kFirstLog2);
  } else if (key != kFree) {
    std::uint32_t* keys = block_keys();
    const std::size_t mask = capacity() - 1;
    std::size_t i = home(key, log2_capacity_);
    for (; keys[i] != kFree; i = (i + 1) & mask) {
      if (keys[i] == key) return block_times()[i];
    }
    added = true;
    // Keep the block at most 7/8 full.
    if ((block_size() + 1) * 8 > capacity() * 7) {
      rebuild(static_cast<std::uint8_t>(log2_capacity_ + 1));
    }
  } else if (holds_free_key_) {
    return free_key_time_;
  } else {
    added = true;
  }
  ++size_;
  if (key == kFree) {
    holds_free_key_ = true;
    free_key_time_ = t;
    return free_key_time_;
  }
  return place(key, t);
}

std::int64_t& ClientTimes::place(std::uint32_t key, std::int64_t t) {
  std::uint32_t* keys = block_keys();
  const std::size_t mask = capacity() - 1;
  std::size_t i = home(key, log2_capacity_);
  while (keys[i] != kFree) i = (i + 1) & mask;
  keys[i] = key;
  block_times()[i] = t;
  return block_times()[i];
}

void ClientTimes::rebuild(std::uint8_t log2) {
  // Take the current clients out before the union switches arms.
  const ClientTimes old(std::move(*this));
  const std::size_t slots = std::size_t{1} << log2;
  block_ = static_cast<std::int64_t*>(::operator new(slots * kSlotBytes));
  log2_capacity_ = log2;
  std::fill_n(block_keys(), slots, kFree);
  size_ = old.size_;
  old.for_each([this](net::Ipv4 client, util::TimePoint t) {
    if (client.value() == kFree) {
      holds_free_key_ = true;
      free_key_time_ = t.usec;
    } else {
      place(client.value(), t.usec);
    }
  });
}

}  // namespace svcdisc::passive

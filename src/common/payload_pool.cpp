#include "common/payload_pool.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sdr::common {

namespace {
// Power-of-two size classes from one cache line up. Control datagrams
// (CTS, ACK, NACK: tens of bytes) take the 64 B class; an MTU-sized send
// takes the class that holds it. One list of page-sized slots would pin
// 4 KiB per datagram: one default `fleet_ec` run's 6,078 slots would hold
// 23.8 of its 134.5 MiB heap peak, and `fleet_sr`'s 1,706 slots 6.5 of
// 24.6 MiB; in 64 B slots they hold 0.42 and 0.11 MiB.
std::uint32_t size_class(std::uint32_t len) {
  return static_cast<std::uint32_t>(
             std::bit_width(std::max(len, std::uint32_t{64}) - 1)) -
         6;
}
}  // namespace

std::uint32_t PayloadPool::acquire(const std::uint8_t* src,
                                   std::uint32_t len) {
  const std::uint32_t cls = size_class(len);
  std::uint32_t index = free_heads_[cls];
  if (index != kNil) {
    free_heads_[cls] = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_[index].bytes.reset(new std::uint8_t[std::size_t{64} << cls]);
    slots_[index].size_class = static_cast<std::uint8_t>(cls);
  }
  slots_[index].refs = 1;
  slots_[index].next_free = kNil;
  if (len > 0 && src != nullptr) {
    std::memcpy(slots_[index].bytes.get(), src, len);
  }
  ++live_;
  return index;
}

PayloadPool& payload_pool() {
  thread_local PayloadPool pool;
  return pool;
}

PayloadRef PayloadRef::pooled_copy(const std::uint8_t* data,
                                   std::size_t len) {
  PayloadRef ref;
  if (len == 0) return ref;
  PayloadPool& pool = payload_pool();
  ref.slot_ = pool.acquire(data, static_cast<std::uint32_t>(len));
  ref.pool_ = &pool;
  ref.data_ = pool.data(ref.slot_);
  ref.len_ = static_cast<std::uint32_t>(len);
  return ref;
}

}  // namespace sdr::common

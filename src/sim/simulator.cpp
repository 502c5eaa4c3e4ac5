#include "sim/simulator.hpp"

#include <bit>
#include <cassert>
#include <limits>

#include "telemetry/profiler.hpp"

namespace sdr::sim {

EventId Simulator::schedule_at(SimTime when, EventFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  const std::uint64_t w = static_cast<std::uint64_t>(when.ns);
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next;
  } else {
    slots_.emplace_back();
    slot = static_cast<std::uint32_t>(slots_.size() - 1);
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.when = w;
  ++live_events_;
  if (w < min_bound_) min_bound_ = w;
  if ((w ^ cursor_) >= kWheelHorizonNs) {
    // Beyond the wheel's range: park in the overflow heap. The seq
    // tie-break keeps same-timestamp overflow events in schedule order;
    // they migrate into the wheel (in heap order) before any event at that
    // timestamp can be scheduled directly into a bucket, so overflow and
    // wheel events never interleave out of FIFO order.
    s.bucket = kInOverflow;
    overflow_.push(OverflowEntry{w, next_seq_++, slot, s.gen});
  } else {
    wheel_link(slot);
  }
  return EventId{slot, s.gen};
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = id.slot();
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // A generation mismatch means the event already fired or was cancelled
  // (each consumption bumps the generation, invalidating old handles).
  if (s.gen != id.generation() || !s.fn) return false;
  if (s.bucket != kInOverflow) wheel_unlink(slot);
  // An overflow event's heap entry stays behind; the generation bump makes
  // it stale and drain_overflow() discards it when it surfaces.
  retire(slot);
  return true;
}

void Simulator::wheel_link(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint64_t diff = s.when ^ cursor_;
  assert(diff < kWheelHorizonNs && "wheel_link past the horizon");
  const unsigned level =
      diff == 0 ? 0u
                : (63u - static_cast<unsigned>(std::countl_zero(diff))) /
                      kWheelBits;
  const unsigned si =
      static_cast<unsigned>(s.when >> (kWheelBits * level)) & (kWheelSlots - 1);
  const unsigned bi = level * kWheelSlots + si;
  Bucket& b = buckets_[bi];
  s.bucket = static_cast<std::uint16_t>(bi);
  s.next = kNoSlot;
  s.prev = b.tail;
  if (b.tail == kNoSlot) {
    b.head = slot;
  } else {
    slots_[b.tail].next = slot;
  }
  b.tail = slot;
  occupancy_[level] |= 1ULL << si;
}

void Simulator::wheel_unlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const unsigned bi = s.bucket;
  assert(bi < kWheelLevels * kWheelSlots && "unlink of unbucketed slot");
  Bucket& b = buckets_[bi];
  if (s.prev == kNoSlot) {
    b.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNoSlot) {
    b.tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (b.head == kNoSlot) {
    occupancy_[bi >> kWheelBits] &= ~(1ULL << (bi & (kWheelSlots - 1)));
  }
  s.bucket = kNoBucket;
}

void Simulator::drain_overflow() {
  while (!overflow_.empty()) {
    const OverflowEntry& top = overflow_.top();
    if (slots_[top.slot].gen != top.gen) {
      overflow_.pop();  // cancelled while parked; drop the stale entry
      continue;
    }
    if ((top.when ^ cursor_) >= kWheelHorizonNs) return;
    const std::uint32_t slot = top.slot;
    overflow_.pop();
    wheel_link(slot);
  }
}

std::uint32_t Simulator::peek_next(std::uint64_t cap_ns) {
  if (cap_ns < min_bound_) return kNoSlot;
  for (;;) {
    // Migrate newly-in-range overflow events first: cursor advances below
    // never change overflow eligibility (they only touch bit groups under
    // the one where an out-of-range timestamp differs), so after this call
    // the wheel holds every pending event within the horizon.
    drain_overflow();

    // Level 0: the occupancy bits at/after the cursor's position within the
    // current 64 ns block are exactly the next deadlines in time order.
    const unsigned pos0 = static_cast<unsigned>(cursor_) & (kWheelSlots - 1);
    if (const std::uint64_t occ = occupancy_[0] >> pos0) {
      const unsigned si =
          pos0 + static_cast<unsigned>(std::countr_zero(occ));
      const std::uint64_t deadline =
          (cursor_ & ~static_cast<std::uint64_t>(kWheelSlots - 1)) + si;
      min_bound_ = deadline;  // the level-0 head IS the earliest pending
      if (deadline > cap_ns) return kNoSlot;
      cursor_ = deadline;
      return buckets_[si].head;
    }

    // Coarser levels: cascade the next occupied bucket down. Occupied
    // buckets never sit before the cursor's position at their level (the
    // cursor cannot pass a pending event), so a shifted-bitmap scan finds
    // the earliest one without wrap-around.
    bool cascaded = false;
    for (unsigned level = 1; level < kWheelLevels; ++level) {
      const unsigned shift = kWheelBits * level;
      const unsigned pos =
          static_cast<unsigned>(cursor_ >> shift) & (kWheelSlots - 1);
      const std::uint64_t occ = occupancy_[level] >> pos;
      if (!occ) continue;
      const unsigned si = pos + static_cast<unsigned>(std::countr_zero(occ));
      const std::uint64_t bucket_start =
          (cursor_ & ~((1ULL << (shift + kWheelBits)) - 1)) |
          (static_cast<std::uint64_t>(si) << shift);
      // Everything in this bucket is at or after bucket_start; stopping
      // here leaves the bucket intact so a later run/run_until resumes
      // exactly where this one left off.
      if (bucket_start > cap_ns) {
        if (bucket_start > min_bound_) min_bound_ = bucket_start;
        return kNoSlot;
      }
      if (bucket_start > cursor_) cursor_ = bucket_start;
      // Relink the whole bucket against the advanced cursor. Every entry
      // now agrees with the cursor in this level's bit group, so each lands
      // at a strictly lower level; relinking head-to-tail preserves FIFO
      // order among entries that share a destination bucket.
      Bucket& b = buckets_[level * kWheelSlots + si];
      std::uint32_t head = b.head;
      b.head = b.tail = kNoSlot;
      occupancy_[level] &= ~(1ULL << si);
      while (head != kNoSlot) {
        const std::uint32_t next = slots_[head].next;
        wheel_link(head);
        head = next;
      }
      cascaded = true;
      break;
    }
    if (cascaded) continue;

    // Wheel empty: jump the cursor to the earliest overflow event (skipping
    // entries whose event was cancelled) and let the drain pick it up.
    while (!overflow_.empty() &&
           slots_[overflow_.top().slot].gen != overflow_.top().gen) {
      overflow_.pop();
    }
    if (overflow_.empty()) {
      min_bound_ = std::numeric_limits<std::uint64_t>::max();
      return kNoSlot;
    }
    const std::uint64_t when = overflow_.top().when;
    min_bound_ = when;  // the overflow top IS the earliest pending
    if (when > cap_ns) return kNoSlot;
    cursor_ = when;
  }
}

std::uint32_t Simulator::pop_next(std::uint64_t cap_ns) {
  const std::uint32_t slot = peek_next(cap_ns);
  if (slot != kNoSlot) wheel_unlink(slot);
  return slot;
}

SimTime Simulator::next_deadline_slow(SimTime cap) {
  const std::uint32_t slot = peek_next(static_cast<std::uint64_t>(cap.ns));
  if (slot == kNoSlot) return SimTime::max();
  return SimTime{static_cast<std::int64_t>(cursor_)};
}

void Simulator::assert_no_deadline_at_or_before([[maybe_unused]] SimTime t) {
  assert(t >= now_ && "cannot advance the clock backwards");
  assert(t <= run_deadline_ && "advance_now would pass run_until's deadline");
  // Side effect of the check (wheel cascading) is semantics-neutral.
  assert(next_deadline(t) == SimTime::max() &&
         "advance_now would skip a pending event");
}

void Simulator::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();  // release captured state immediately
  ++s.gen;
  if (s.gen == 0) s.gen = 1;  // generation 0 is never issued
  s.bucket = kNoBucket;
  s.next = free_head_;
  free_head_ = slot;
  --live_events_;
}

void Simulator::fire(std::uint32_t slot) {
  EventFn fn = std::move(slots_[slot].fn);
  retire(slot);
  // Fallback profiler attribution: handler wall time not claimed by a
  // nested subsystem scope (channel/SR/EC/RC/SDR/collectives) lands in the
  // sim category together with the dispatch itself.
  telemetry::ProfScope prof(telemetry::ProfCategory::kSim);
  fn();
}

std::uint64_t Simulator::run() {
  std::uint64_t executed = 0;
  for (;;) {
    const std::uint32_t slot =
        pop_next(std::numeric_limits<std::uint64_t>::max());
    if (slot == kNoSlot) break;
    now_ = SimTime{static_cast<std::int64_t>(cursor_)};
    fire(slot);
    ++executed;
  }
  return executed;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t executed = 0;
  const std::uint64_t cap = static_cast<std::uint64_t>(deadline.ns);
  run_deadline_ = deadline;
  for (;;) {
    const std::uint32_t slot = pop_next(cap);
    if (slot == kNoSlot) break;
    now_ = SimTime{static_cast<std::int64_t>(cursor_)};
    fire(slot);
    ++executed;
  }
  run_deadline_ = SimTime::max();
  if (now_ < deadline) now_ = deadline;
  return executed;
}

bool Simulator::step() {
  const std::uint32_t slot =
      pop_next(std::numeric_limits<std::uint64_t>::max());
  if (slot == kNoSlot) return false;
  now_ = SimTime{static_cast<std::int64_t>(cursor_)};
  fire(slot);
  return true;
}

}  // namespace sdr::sim

// Discrete-event simulator core.
//
// Protocol-level experiments (message completion times over long-haul
// channels, collective schedules) run on this deterministic engine: a single
// virtual clock and a time-ordered event set. Events scheduled for the
// same timestamp execute in FIFO order of scheduling, which makes every run
// exactly reproducible from the RNG seed regardless of container internals.
//
// The event set is a hierarchical timer wheel (calendar queue), not a binary
// heap: the dominant patterns — short-horizon timer churn (an RTO armed per
// chunk and disarmed by the ACK) and near-future packet deliveries — are
// O(1) to schedule, cancel and fire, where a heap pays an O(log n) sift per
// operation and leaves cancelled entries in the queue until they surface.
//
//  * kWheelLevels levels of 64 buckets each; level l buckets span 2^(6l) ns.
//    An event lands at the level of the highest 6-bit group in which its
//    timestamp differs from the wheel cursor, so near deadlines sit in fine
//    buckets and far ones in coarse buckets that cascade down as the clock
//    approaches (see DESIGN.md §4e for the invariants).
//  * Each level keeps a 64-bit occupancy bitmap; finding the next non-empty
//    bucket is a shift + countr_zero, never a scan over empty buckets.
//  * Bucket membership is intrusive: the doubly-linked list runs through the
//    event slot pool itself, so cancel() unlinks in O(1) and leaves nothing
//    behind — pending memory is exactly the live events (the heap design
//    retained one stale 24-byte entry per cancelled event until it drained).
//  * Events beyond the wheel horizon (2^36 ns ≈ 68.7 s of lookahead, or any
//    timestamp across the next horizon-aligned boundary) wait in a small
//    overflow heap and migrate into the wheel when the cursor approaches:
//    global timeouts and scenario horizon deadlines are rare, so the O(log)
//    fallback is off the hot path.
//
// The hot path is allocation-free in steady state:
//  * Event callables live in a fixed inline buffer (InlineFunction) — a
//    capture that does not fit is a compile error, never a heap spill.
//  * Callables are stored in a generation-tagged slot pool; wheel links are
//    pool indices, so scheduling moves no callable data at all.
//  * EventId is {slot, generation}: cancel() is O(1), fired/cancelled ids
//    go stale by a generation bump, and memory is bounded by the number of
//    *pending* events — not by every event ever scheduled.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/time.hpp"
#include "sim/inline_function.hpp"

namespace sdr::sim {

/// Inline storage budget for event callables. Large enough for `this` plus
/// a handful of indices/scalars (the SR/EC timer closures capture at most
/// 32 bytes); small enough that pool slots stay cache-friendly.
inline constexpr std::size_t kEventInlineBytes = 48;

using EventFn = InlineFunction<void(), kEventInlineBytes>;

/// Handle used to cancel a scheduled event (e.g. a retransmission timer
/// disarmed by an ACK). Encodes {pool slot, generation}: when the event
/// fires or is cancelled the slot's generation is bumped, so stale handles
/// are recognized in O(1) without tombstone bookkeeping. A
/// default-constructed EventId is the "no event" value (`!valid()`).
class EventId {
 public:
  constexpr EventId() = default;

  constexpr bool valid() const { return bits_ != 0; }
  constexpr explicit operator bool() const { return valid(); }
  friend constexpr bool operator==(const EventId&, const EventId&) = default;

 private:
  friend class Simulator;
  constexpr EventId(std::uint32_t slot, std::uint32_t generation)
      : bits_((static_cast<std::uint64_t>(generation) << 32) | slot) {}
  constexpr std::uint32_t slot() const {
    return static_cast<std::uint32_t>(bits_);
  }
  constexpr std::uint32_t generation() const {
    return static_cast<std::uint32_t>(bits_ >> 32);
  }

  // Valid ids always have generation >= 1, so bits_ == 0 never collides
  // with a real {slot 0, generation g} handle.
  std::uint64_t bits_{0};
};

class Simulator {
 public:
  /// Wheel geometry: 6 levels x 64 buckets; level l buckets span 2^(6l) ns,
  /// so the wheel covers 2^36 ns (~68.7 s) of lookahead before the overflow
  /// heap takes over. Exposed so tests can target cascade/overflow edges.
  static constexpr unsigned kWheelBits = 6;
  static constexpr unsigned kWheelSlots = 1u << kWheelBits;   // 64
  static constexpr unsigned kWheelLevels = 6;
  static constexpr std::uint64_t kWheelHorizonNs =
      1ULL << (kWheelBits * kWheelLevels);                    // 2^36

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventId schedule(SimTime delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute time (must not be in the past).
  EventId schedule_at(SimTime when, EventFn fn);

  /// Cancel a pending event. Returns false if it already ran / was
  /// cancelled. O(1): a wheel event is unlinked from its bucket and its
  /// slot retired immediately; an overflow event only bumps the generation
  /// and its heap entry is discarded when it surfaces.
  bool cancel(EventId id);

  /// Run until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  /// Run until the clock would pass `deadline` (events at exactly
  /// `deadline` are executed). Returns the number of events executed.
  /// Events beyond the deadline are never popped, so cancelling them
  /// afterwards behaves exactly as if run_until had not been called.
  std::uint64_t run_until(SimTime deadline);

  /// Execute exactly one event if available. Returns false if queue empty.
  bool step();

  /// Earliest pending event time, if it is at or before `cap`; otherwise
  /// (or when nothing is pending) SimTime::max(). May advance the internal
  /// wheel position (cascading coarse buckets) up to the returned time —
  /// work the next pop would have done anyway, so semantics are unchanged.
  /// The cached lower bound makes repeated probes below the next deadline
  /// a single compare (the batched-delivery inner loop).
  SimTime next_deadline(SimTime cap) {
    if (static_cast<std::uint64_t>(cap.ns) < min_bound_) return SimTime::max();
    return next_deadline_slow(cap);
  }

  /// The deadline of the run_until in progress; SimTime::max() otherwise.
  SimTime run_deadline() const { return run_deadline_; }

  /// Move the clock forward to `t` without firing anything. The caller must
  /// have established via next_deadline(t) that no pending event fires at
  /// or before `t`, and `t` must not pass run_deadline(). This is the
  /// batched-delivery hook: an event handler can consume externally queued
  /// work (e.g. a channel's in-order packet FIFO) up to the next pending
  /// deadline, keeping now() correct for each item without paying one
  /// schedule/fire round trip per item.
  void advance_now(SimTime t) {
#ifndef NDEBUG
    assert_no_deadline_at_or_before(t);
#endif
    now_ = t;
  }

  bool empty() const { return live_events_ == 0; }
  std::size_t pending() const { return live_events_; }

  /// Number of pool slots ever materialized — bounded by the peak number
  /// of simultaneously pending events, not by total events scheduled.
  /// Exposed for memory-boundedness regression tests.
  std::size_t pool_slots() const { return slots_.size(); }

  /// Events currently waiting in the overflow heap (beyond the wheel
  /// horizon), including entries whose event was cancelled but whose heap
  /// node has not yet surfaced. Exposed for wheel edge-case tests.
  std::size_t overflow_pending() const { return overflow_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Bucket tags: which container a live slot currently sits in.
  static constexpr std::uint16_t kNoBucket = 0xFFFF;   // free / being fired
  static constexpr std::uint16_t kInOverflow = 0xFFFE;

  struct OverflowEntry {
    std::uint64_t when;
    std::uint64_t seq;  // FIFO tie-break among same-timestamp events
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  using OverflowHeap =
      std::priority_queue<OverflowEntry, std::vector<OverflowEntry>, Later>;

  struct Slot {
    EventFn fn;
    std::uint64_t when{0};
    std::uint32_t gen{1};
    // In a bucket: doubly-linked neighbours. On the free list: `next` is
    // the chain. In the overflow heap: both unused.
    std::uint32_t next{kNoSlot};
    std::uint32_t prev{kNoSlot};
    std::uint16_t bucket{kNoBucket};  // level*64+index, or a tag above
  };

  struct Bucket {
    std::uint32_t head{kNoSlot};
    std::uint32_t tail{kNoSlot};
  };

  /// Append a live slot to the wheel bucket its timestamp selects relative
  /// to the current cursor (requires (when ^ cursor_) < horizon).
  void wheel_link(std::uint32_t slot);
  /// Remove a slot from its wheel bucket, clearing the occupancy bit when
  /// the bucket empties.
  void wheel_unlink(std::uint32_t slot);
  /// Migrate overflow events whose timestamps entered the wheel's range;
  /// discards stale (cancelled) heap entries as they surface.
  void drain_overflow();
  /// Advance the wheel (cascading coarse buckets, migrating overflow) until
  /// the earliest pending event is at the head of a level-0 bucket, then
  /// return its slot (still linked) with cursor_ == its timestamp. Returns
  /// kNoSlot — without advancing past `cap_ns` — when the earliest event
  /// lies beyond the cap (or none is pending). Stateless between calls:
  /// re-scanning after a cancel or peek is always consistent.
  std::uint32_t peek_next(std::uint64_t cap_ns);
  /// peek_next + unlink: the pop used by run/run_until/step.
  std::uint32_t pop_next(std::uint64_t cap_ns);
  SimTime next_deadline_slow(SimTime cap);
  /// Debug check behind advance_now (no-op in NDEBUG builds).
  void assert_no_deadline_at_or_before(SimTime t);
  /// Consume the slot: destroy the callable, bump the generation, return
  /// the slot to the free list and decrement the live count.
  void retire(std::uint32_t slot);
  /// Move the callable out, retire the slot, then invoke. Retiring first
  /// makes cancel-after-fire return false and lets the handler reuse the
  /// slot when it reschedules.
  void fire(std::uint32_t slot);

  SimTime now_{SimTime::zero()};
  SimTime run_deadline_{SimTime::max()};
  /// Wheel position in ns. Invariants: cursor_ <= now_ whenever user code
  /// runs, and cursor_ never passes the earliest pending timestamp; every
  /// wheel event's timestamp agrees with cursor_ in all 6-bit groups above
  /// its level (see DESIGN.md §4e).
  std::uint64_t cursor_{0};
  std::uint64_t next_seq_{0};
  std::size_t live_events_{0};
  /// Lower bound on every pending timestamp: no event fires before this.
  /// Raised by peek scans, lowered by schedule_at; lets the batched
  /// delivery loop's next_deadline() probes short-circuit to one compare.
  std::uint64_t min_bound_{0};
  std::uint64_t occupancy_[kWheelLevels]{};
  Bucket buckets_[kWheelLevels * kWheelSlots];
  OverflowHeap overflow_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
};

}  // namespace sdr::sim

// Tests for the discrete-event simulator: event ordering, cancellation,
// channel serialization/propagation timing, drop models.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "sim/cross_traffic.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"

namespace sdr::sim {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime{300}, [&] { order.push_back(3); });
  sim.schedule(SimTime{100}, [&] { order.push_back(1); });
  sim.schedule(SimTime{200}, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns, 300);
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule(SimTime{10}, [&] {
    times.push_back(sim.now().ns);
    sim.schedule(SimTime{5}, [&] { times.push_back(sim.now().ns); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{10, 15}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(SimTime{10}, [&] { ++fired; });
  sim.schedule(SimTime{20}, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelInvalidIdIsSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{}));
  EXPECT_FALSE(EventId{}.valid());
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(SimTime{10}, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // The slot was retired (and may have a new generation); the old handle
  // must be recognized as stale.
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, CancelAfterFireWithSlotReuse) {
  // Fire an event, then schedule another (which reuses the freed slot);
  // the stale handle must not cancel the new occupant.
  Simulator sim;
  int first = 0, second = 0;
  const EventId id = sim.schedule(SimTime{10}, [&] { ++first; });
  sim.run();
  sim.schedule(SimTime{10}, [&] { ++second; });
  EXPECT_FALSE(sim.cancel(id));  // stale: generation moved on
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimulatorTest, RunUntilLeavesCancelledHeadPastDeadline) {
  // Regression for the seed's re-queue path: cancelled events before the
  // deadline used to force a pop of the first live event *past* the
  // deadline, which was then re-inserted — racing any concurrent cancel of
  // that id. The head past the deadline must never be popped at all.
  Simulator sim;
  int fired = 0;
  const EventId before = sim.schedule(SimTime{20}, [&] { ++fired; });
  const EventId after = sim.schedule(SimTime{100}, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(before));
  EXPECT_EQ(sim.run_until(SimTime{50}), 0u);
  EXPECT_EQ(sim.now().ns, 50);
  // The event beyond the deadline is still cancellable exactly once.
  EXPECT_TRUE(sim.cancel(after));
  EXPECT_FALSE(sim.cancel(after));
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, FifoOrderingSurvivesSlotReuse) {
  // Cancelling events frees pool slots; later same-timestamp events reuse
  // them. FIFO ordering is keyed on the schedule sequence, so it must be
  // unaffected by which slot an event happens to occupy.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 8; ++i) {
    cancelled.push_back(sim.schedule(SimTime{50}, [] {}));
  }
  sim.schedule(SimTime{50}, [&] { order.push_back(0); });
  for (const EventId id : cancelled) EXPECT_TRUE(sim.cancel(id));
  // These reuse the 8 freed slots (in LIFO free-list order) yet must fire
  // in scheduling order.
  for (int i = 1; i <= 8; ++i) {
    sim.schedule(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, PoolMemoryBoundedByPendingEvents) {
  // The seed kept one tombstone bit per id ever scheduled (unbounded over
  // a long sweep). The pool must stay at the high-water mark of *pending*
  // events regardless of how many schedule/cancel cycles run.
  Simulator sim;
  for (int i = 0; i < 100000; ++i) {
    const EventId id = sim.schedule(SimTime{1000}, [] {});
    EXPECT_TRUE(sim.cancel(id));
  }
  EXPECT_LE(sim.pool_slots(), 4u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, InlineCallableHoldsFullBudget) {
  // A capture at exactly the inline budget must compile and run (anything
  // larger is rejected at compile time by InlineFunction's static_assert).
  Simulator sim;
  struct Blob {
    char data[kEventInlineBytes - sizeof(int*)];
  };
  Blob blob{};
  blob.data[0] = 42;
  int out = 0;
  int* out_ptr = &out;
  sim.schedule(SimTime{1}, [blob, out_ptr] { *out_ptr = blob.data[0]; });
  sim.run();
  EXPECT_EQ(out, 42);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime{10}, [&] { ++fired; });
  sim.schedule(SimTime{20}, [&] { ++fired; });
  sim.schedule(SimTime{30}, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime{20}), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns, 20);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime{1}, [&] { ++fired; });
  sim.schedule(SimTime{2}, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, ManyEventsStress) {
  Simulator sim;
  Rng rng(3);
  std::uint64_t executed = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.schedule(SimTime{static_cast<std::int64_t>(rng.next_below(1000000))},
                 [&] { ++executed; });
  }
  sim.run();
  EXPECT_EQ(executed, 100000u);
}

// ---------------------------------------------------------------------------
// Timer-wheel edge cases: overflow horizon, cascades, bucket boundaries.
// ---------------------------------------------------------------------------

TEST(SimulatorTest, FarFutureOverflowFiresInOrderAfterCascades) {
  // Events past the wheel horizon start in the overflow heap, migrate into
  // coarse buckets as the cursor approaches, cascade down to level 0, and
  // must fire in global timestamp order (FIFO among equal timestamps).
  Simulator sim;
  std::vector<int> seen;
  const auto h = static_cast<std::int64_t>(Simulator::kWheelHorizonNs);
  sim.schedule_at(SimTime{3 * h + 123}, [&] { seen.push_back(6); });
  sim.schedule_at(SimTime{h + 7}, [&] { seen.push_back(3); });
  sim.schedule_at(SimTime{h + 7}, [&] { seen.push_back(4); });  // same-ns FIFO
  sim.schedule_at(SimTime{h - 1}, [&] { seen.push_back(2); });  // in-wheel
  sim.schedule_at(SimTime{42}, [&] { seen.push_back(1); });
  sim.schedule_at(SimTime{2 * h}, [&] { seen.push_back(5); });
  EXPECT_EQ(sim.overflow_pending(), 4u);
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.now().ns, 3 * h + 123);
  EXPECT_EQ(sim.overflow_pending(), 0u);
}

TEST(SimulatorTest, CancelledOverflowTopSkippedWhenWheelEmpty) {
  // With the wheel empty, the next event is the overflow heap's top, but a
  // cancelled event leaves its heap entry behind. That entry must be
  // dropped, not fired and not used as the cursor's jump target, so the
  // clock lands on the live event's exact timestamp.
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  const EventId early = sim.schedule_at(SimTime::from_seconds(70.0), [&] {
    fired_at.push_back(-1);
  });
  sim.schedule_at(SimTime::from_seconds(80.0),
                  [&] { fired_at.push_back(sim.now().ns); });
  ASSERT_EQ(sim.overflow_pending(), 2u);  // both past the 68.7 s horizon
  EXPECT_TRUE(sim.cancel(early));
  EXPECT_EQ(sim.run(), 1u);
  const std::int64_t late_ns = SimTime::from_seconds(80.0).ns;
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{late_ns}));
  EXPECT_EQ(sim.now().ns, late_ns);
  EXPECT_EQ(sim.overflow_pending(), 0u);
}

TEST(SimulatorTest, CancelHeavyChurnKeepsPoolBounded) {
  // Schedule/cancel churn across both the wheel and the overflow heap:
  // pool slots must track the high-water mark of *live* events (2 here),
  // not the number of events ever scheduled. Stale overflow heap entries
  // are discarded lazily — the next run() sweeps every one of them.
  Simulator sim;
  const auto h = static_cast<std::int64_t>(Simulator::kWheelHorizonNs);
  int fired = 0;
  for (int round = 0; round < 50000; ++round) {
    const EventId near = sim.schedule_at(
        SimTime{100 + (round % 977)}, [&] { ++fired; });
    const EventId far = sim.schedule_at(
        SimTime{h + (round % 4096)}, [&] { ++fired; });
    EXPECT_TRUE(sim.cancel(near));
    EXPECT_TRUE(sim.cancel(far));
  }
  EXPECT_LE(sim.pool_slots(), 4u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.overflow_pending(), 0u);
}

TEST(SimulatorTest, SameTickFifoAcrossBucketBoundaries) {
  // Two events for tick 197 land in a level-1 bucket (scheduled from t=0,
  // which differs from 197 in the second 6-bit group) and cascade to level
  // 0 when the cursor reaches their 64-tick group; a third is scheduled
  // *inside* that group (from the t=192 handler) straight into the level-0
  // bucket. Scheduling order must survive the cascade.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{197}, [&] { order.push_back(0); });
  sim.schedule_at(SimTime{197}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{192}, [&] {
    sim.schedule_at(SimTime{197}, [&] { order.push_back(2); });
  });
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, RunUntilExactlyOnBucketEdge) {
  // 64 and 4096 are level-1 / level-2 bucket boundaries: deadlines landing
  // exactly on them must fire boundary events and stop the clock there.
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime{63}, [&] { ++fired; });
  sim.schedule_at(SimTime{64}, [&] { ++fired; });
  sim.schedule_at(SimTime{65}, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime{64}), 2u);
  EXPECT_EQ(sim.now().ns, 64);
  sim.schedule_at(SimTime{4096}, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(SimTime{4095}), 1u);  // the event at 65 only
  EXPECT_EQ(sim.now().ns, 4095);
  EXPECT_EQ(sim.run_until(SimTime{4096}), 1u);
  EXPECT_EQ(sim.now().ns, 4096);
  EXPECT_EQ(fired, 4);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, NextDeadlineProbeAndAdvanceNow) {
  // The batched-delivery hooks: next_deadline() answers "does anything fire
  // at or before t" without popping, and advance_now() moves the clock in
  // the gap it vouched for.
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime{500}, [&] { ++fired; });
  EXPECT_EQ(sim.next_deadline(SimTime{499}), SimTime::max());
  EXPECT_EQ(sim.next_deadline(SimTime{500}).ns, 500);
  EXPECT_EQ(sim.next_deadline(SimTime{10000}).ns, 500);
  sim.advance_now(SimTime{499});
  EXPECT_EQ(sim.now().ns, 499);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns, 500);
  EXPECT_EQ(sim.next_deadline(SimTime{1 << 30}), SimTime::max());
}

// ---------------------------------------------------------------------------
// Drop models
// ---------------------------------------------------------------------------

TEST(DropModelTest, IidDropRateConverges) {
  IidDrop model(0.01);
  Rng rng(5);
  int drops = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) drops += model.should_drop(rng, 4096) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.01, 0.002);
}

TEST(DropModelTest, GilbertElliottStationaryLoss) {
  GilbertElliott model(0.001, 0.1, 1e-5, 0.2);
  Rng rng(7);
  model.reset(rng);
  int drops = 0;
  const int n = 1000000;
  for (int i = 0; i < n; ++i) drops += model.should_drop(rng, 4096) ? 1 : 0;
  const double measured = static_cast<double>(drops) / n;
  EXPECT_NEAR(measured, model.stationary_loss(), model.stationary_loss() * 0.3);
}

TEST(DropModelTest, GilbertElliottProducesBursts) {
  // In the bad state losses cluster: the conditional probability of a drop
  // immediately after a drop must exceed the marginal drop rate.
  GilbertElliott model(0.001, 0.05, 0.0, 0.5);
  Rng rng(11);
  model.reset(rng);
  int drops = 0, pairs = 0, after_drop = 0;
  bool prev = false;
  const int n = 2000000;
  for (int i = 0; i < n; ++i) {
    const bool d = model.should_drop(rng, 4096);
    if (prev) {
      ++pairs;
      after_drop += d ? 1 : 0;
    }
    drops += d ? 1 : 0;
    prev = d;
  }
  const double marginal = static_cast<double>(drops) / n;
  const double conditional = static_cast<double>(after_drop) / pairs;
  EXPECT_GT(conditional, 3.0 * marginal);
}

TEST(DropModelTest, CongestionDropSizeCorrelation) {
  // Larger packets must observe higher drop probability (Fig 2 trend).
  CongestionDrop model;
  Rng rng(13);
  model.reset(rng);
  EXPECT_GT(model.drop_probability(8192), model.drop_probability(1024));
}

TEST(DropModelTest, CongestionDropTrialVariability) {
  // Across trials the drop probability must span orders of magnitude
  // (paper Fig 2: three decades for a fixed payload).
  CongestionDrop model;
  Rng rng(17);
  double mn = 1.0, mx = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    model.reset(rng);
    const double p = model.drop_probability(1024);
    mn = std::min(mn, p);
    mx = std::max(mx, p);
  }
  EXPECT_GT(mx / std::max(mn, 1e-12), 100.0);
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

Channel::Config test_channel_config() {
  Channel::Config cfg;
  cfg.bandwidth_bps = 100 * Gbps;
  cfg.distance_km = 350.0;
  cfg.seed = 99;
  return cfg;
}

TEST(ChannelTest, SerializationPlusPropagationTiming) {
  Simulator sim;
  Channel ch(sim, test_channel_config(), std::make_unique<IidDrop>(0.0));
  SimTime arrival{0};
  ch.set_receiver([&](Packet&&) { arrival = sim.now(); });

  Packet p;
  p.bytes = 125000;  // 1 Mbit -> 10 us at 100 Gbit/s
  ch.send(std::move(p));
  sim.run();

  const double expected =
      injection_time_s(125000, 100 * Gbps) + propagation_delay_s(350.0);
  EXPECT_NEAR(arrival.seconds(), expected, 1e-9);
}

TEST(ChannelTest, BackToBackPacketsQueueOnTheWire) {
  Simulator sim;
  Channel ch(sim, test_channel_config(), std::make_unique<IidDrop>(0.0));
  std::vector<double> arrivals;
  ch.set_receiver([&](Packet&&) { arrivals.push_back(sim.now().seconds()); });

  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.bytes = 125000;
    ch.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const double ser = injection_time_s(125000, 100 * Gbps);
  EXPECT_NEAR(arrivals[1] - arrivals[0], ser, 1e-12);
  EXPECT_NEAR(arrivals[2] - arrivals[1], ser, 1e-12);
}

TEST(ChannelTest, RunUntilStopsTheBatchedDrainAtItsDeadline) {
  // The arrivals are 10 us apart and nothing else is pending, so one drain
  // firing could deliver all three; run_until must still stop at its
  // deadline and leave the rest to the next run.
  Simulator sim;
  Channel ch(sim, test_channel_config(), std::make_unique<IidDrop>(0.0));
  std::size_t delivered = 0;
  ch.set_receiver([&](Packet&&) { ++delivered; });
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.bytes = 125000;
    ch.send(std::move(p));
  }
  const SimTime deadline =
      SimTime::from_seconds(injection_time_s(125000, 100 * Gbps) +
                            propagation_delay_s(350.0)) +
      SimTime::from_micros(5);
  sim.run_until(deadline);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(sim.now().ns, deadline.ns);
  sim.run();
  EXPECT_EQ(delivered, 3u);
}

TEST(ChannelTest, DropsMatchConfiguredRate) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  Channel ch(sim, cfg, std::make_unique<IidDrop>(0.05));
  int delivered = 0;
  ch.set_receiver([&](Packet&&) { ++delivered; });
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    Packet p;
    p.bytes = 1500;
    ch.send(std::move(p));
  }
  sim.run();
  EXPECT_NEAR(ch.stats().drop_rate(), 0.05, 0.005);
  EXPECT_EQ(delivered + static_cast<int>(ch.stats().dropped_packets), n);
  EXPECT_EQ(ch.stats().sent_packets, static_cast<std::uint64_t>(n));
}

TEST(ChannelTest, DroppedPacketsStillConsumeWireTime) {
  // A dropped packet occupies the serializer: the wire stays busy exactly
  // as if the drop had not happened ("the bits still occupied the wire").
  Simulator sim;
  Channel lossy(sim, test_channel_config(), std::make_unique<IidDrop>(1.0));
  int delivered = 0;
  lossy.set_receiver([&](Packet&&) { ++delivered; });
  Packet p1;
  p1.bytes = 125000;
  lossy.send(std::move(p1));
  EXPECT_NEAR(lossy.next_free().seconds(),
              injection_time_s(125000, 100 * Gbps), 1e-12);
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(lossy.stats().dropped_packets, 1u);
}

TEST(ChannelTest, ReorderingAddsDelay) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  cfg.reorder_probability = 1.0;
  cfg.reorder_extra_delay_s = 0.001;
  Channel ch(sim, cfg, std::make_unique<IidDrop>(0.0));
  SimTime arrival{0};
  ch.set_receiver([&](Packet&&) { arrival = sim.now(); });
  Packet p;
  p.bytes = 1500;
  ch.send(std::move(p));
  sim.run();
  const double base =
      injection_time_s(1500, 100 * Gbps) + propagation_delay_s(350.0);
  EXPECT_NEAR(arrival.seconds(), base + 0.001, 1e-9);
  EXPECT_EQ(ch.stats().reordered_packets, 1u);
}

TEST(ChannelTest, DuplicationDeliversTwice) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  cfg.duplicate_probability = 1.0;
  Channel ch(sim, cfg, std::make_unique<IidDrop>(0.0));
  int deliveries = 0;
  ch.set_receiver([&](Packet&&) { ++deliveries; });
  Packet p;
  p.bytes = 1000;
  ch.send(std::move(p));
  sim.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(ch.stats().duplicated_packets, 1u);
  EXPECT_EQ(ch.stats().delivered_packets, 2u);
}

TEST(ChannelTest, DuplicationRateConverges) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  cfg.duplicate_probability = 0.1;
  Channel ch(sim, cfg, std::make_unique<IidDrop>(0.0));
  int deliveries = 0;
  ch.set_receiver([&](Packet&&) { ++deliveries; });
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    Packet p;
    p.bytes = 100;
    ch.send(std::move(p));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(deliveries) / n, 1.1, 0.01);
}

// ---------------------------------------------------------------------------
// Queue-based congestion (tail drop) + cross traffic
// ---------------------------------------------------------------------------

TEST(QueueTest, NoDropsUnderCapacity) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  cfg.queue_capacity_bytes = 1 << 20;
  Channel ch(sim, cfg, std::make_unique<IidDrop>(0.0));
  int delivered = 0;
  ch.set_receiver([&](Packet&&) { ++delivered; });
  // 100 x 1 KiB back to back: backlog peaks at ~100 KiB < 1 MiB capacity.
  for (int i = 0; i < 100; ++i) {
    Packet p;
    p.bytes = 1024;
    ch.send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(ch.stats().queue_drops, 0u);
}

TEST(QueueTest, TailDropWhenSaturated) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  cfg.queue_capacity_bytes = 16 * 1024;
  Channel ch(sim, cfg, std::make_unique<IidDrop>(0.0));
  int delivered = 0;
  ch.set_receiver([&](Packet&&) { ++delivered; });
  // Burst of 64 KiB into a 16 KiB buffer: most of it tail-drops.
  for (int i = 0; i < 64; ++i) {
    Packet p;
    p.bytes = 1024;
    ch.send(std::move(p));
  }
  sim.run();
  EXPECT_GT(ch.stats().queue_drops, 40u);
  EXPECT_LT(delivered, 20);
  EXPECT_EQ(ch.stats().queue_drops + delivered, 64u);
}

TEST(QueueTest, BacklogReportsAndDrains) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  Channel ch(sim, cfg, std::make_unique<IidDrop>(0.0));
  ch.set_receiver([](Packet&&) {});
  Packet p;
  p.bytes = 125000;  // 10 us at 100G
  ch.send(std::move(p));
  EXPECT_NEAR(static_cast<double>(ch.queue_backlog_bytes()), 125000.0,
              125000.0 * 0.01);
  sim.run();
  EXPECT_EQ(ch.queue_backlog_bytes(), 0u);
}

TEST(CrossTrafficTest, CongestionDropsGrowWithPacketSize) {
  // The Fig 2 mechanism: under bursty cross traffic and a bounded buffer,
  // larger foreground packets see higher loss.
  auto loss_for = [&](std::size_t fg_bytes) {
    Simulator sim;
    Channel::Config cfg;
    cfg.bandwidth_bps = 100 * Gbps;
    cfg.distance_km = 350.0;
    cfg.queue_capacity_bytes = 64 * 1024;
    cfg.seed = 2;
    Channel ch(sim, cfg, std::make_unique<IidDrop>(0.0));
    ch.set_receiver([](Packet&&) {});
    CrossTraffic::Params params;
    params.burst_load = 0.98;
    params.packet_bytes = 8192;
    CrossTraffic bg(sim, ch, params);
    bg.start(SimTime::from_millis(50));

    // Foreground: one packet every 5 us.
    const int fg_packets = 5000;
    std::uint64_t fg_drops = 0;
    for (int i = 0; i < fg_packets; ++i) {
      sim.schedule_at(SimTime::from_micros(5.0 * i), [&, fg_bytes] {
        const std::uint64_t before = ch.stats().queue_drops;
        Packet p;
        p.bytes = fg_bytes;
        ch.send(std::move(p));
        fg_drops += ch.stats().queue_drops - before;
      });
    }
    sim.run();
    return static_cast<double>(fg_drops) / fg_packets;
  };

  const double small_loss = loss_for(1024);
  const double big_loss = loss_for(8192);
  EXPECT_GT(big_loss, small_loss) << "larger packets must drop more";
  EXPECT_GT(big_loss, 0.0);
}

TEST(DuplexLinkTest, RttIsTwicePropagation) {
  Simulator sim;
  auto link = make_iid_link(sim, test_channel_config(), 0.0, 0.0);
  EXPECT_NEAR(link->rtt_s(), 2.0 * propagation_delay_s(350.0), 1e-12);
}

TEST(DuplexLinkTest, IndependentDirections) {
  Simulator sim;
  Channel::Config cfg = test_channel_config();
  auto link = std::make_unique<DuplexLink>(
      sim, cfg, std::make_unique<IidDrop>(1.0), std::make_unique<IidDrop>(0.0));
  int fwd = 0, bwd = 0;
  link->forward().set_receiver([&](Packet&&) { ++fwd; });
  link->backward().set_receiver([&](Packet&&) { ++bwd; });
  for (int i = 0; i < 100; ++i) {
    Packet a;
    a.bytes = 100;
    link->forward().send(std::move(a));
    Packet b;
    b.bytes = 100;
    link->backward().send(std::move(b));
  }
  sim.run();
  EXPECT_EQ(fwd, 0);
  EXPECT_EQ(bwd, 100);
}

TEST(ScriptedDropTest, DropsExactlyTheScriptedIndices) {
  Rng rng(1);
  ScriptedDrop drop({1, 3});
  std::vector<bool> fates;
  for (int i = 0; i < 5; ++i) fates.push_back(drop.should_drop(rng, 100));
  EXPECT_EQ(fates, (std::vector<bool>{false, true, false, true, false}));
  EXPECT_EQ(drop.unused_count(), 0u);
  EXPECT_TRUE(drop.unused_indices().empty());
}

TEST(ScriptedDropTest, ReportsIndicesPastTheLastSend) {
  // A scripted index the traffic never reaches is almost always a test
  // author's arithmetic error (the "drop packet 40" of a 30-packet run
  // silently tests nothing) — it must be observable, not ignored.
  Rng rng(1);
  ScriptedDrop drop({0, 7, 9});
  for (int i = 0; i < 5; ++i) drop.should_drop(rng, 100);
  EXPECT_EQ(drop.packets_seen(), 5u);
  EXPECT_EQ(drop.unused_count(), 2u);
  EXPECT_EQ(drop.unused_indices(), (std::vector<std::uint64_t>{7, 9}));
}

TEST(ScriptedDropTest, UnusedTracksTheHighWaterAcrossTrials) {
  Rng rng(1);
  ScriptedDrop drop({2, 6});
  for (int i = 0; i < 7; ++i) drop.should_drop(rng, 100);  // reaches 6
  drop.reset(rng);
  for (int i = 0; i < 3; ++i) drop.should_drop(rng, 100);  // shorter trial
  // Index 6 was consumed in the first trial; the short second trial must
  // not resurrect it as "unused".
  EXPECT_EQ(drop.unused_count(), 0u);
  drop.reset(rng);
  EXPECT_EQ(drop.unused_count(), 0u);
}

}  // namespace
}  // namespace sdr::sim

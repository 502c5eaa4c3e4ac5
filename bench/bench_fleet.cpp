// Fleet scenario bench: hundreds of endpoints across a multi-DC fabric,
// thousands of concurrent messages, all three reliability schemes on a
// resource-modeled NIC (PCIe descriptor/doorbell costs, SQ backpressure,
// per-verb token buckets — src/verbs/nic_model.hpp).
//
// Two sections:
//   * a scheme x loss x distance sweep grid (runs on the sweep engine,
//     `--jobs=N`, bit-identical output at every job count) reporting fleet
//     goodput, Jain fairness across sender endpoints, the completion-
//     latency tail (p50/p99/p999) and the order-sensitive completion
//     digest per cell;
//   * one headline fleet per scheme at the default operating point
//     (1500 km, Pdrop 1e-4), wall-clock timed with the operator-new hook,
//     emitting one machine-readable line each:
//
//   BENCH_JSON {"bench":"fleet","workload":"sr"|"ec"|"rc",...,
//               "allocs_per_message":...,"setup_allocs_per_connection":...,
//               "allocs_per_message_after_setup":...,"commit":...,
//               "nproc":...,"ec_isa":...}
//
// Each headline scheme also runs the same fleet with no messages (the same
// connections, built and torn down), which splits the allocation count:
// set-up allocations per connection, and what the run allocates beyond
// them per completed message. allocs_per_message is the whole run's count
// per completed message. The protocols still keep some per-message state
// on the heap (ROADMAP item 4); the figures are reported as measured, not
// forced to zero. Scale run length with argv[1] (default 1.0; CI smoke
// uses 0.25 which shrinks the fleet, not the semantics).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_counter.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "fleet/fleet.hpp"
#include "sdr/version.hpp"
#include "sweep/sweep.hpp"

using namespace sdr;  // NOLINT

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

fleet::FleetConfig scaled_config(double scale) {
  fleet::FleetConfig cfg = fleet::FleetConfig::defaults();
  if (scale < 1.0) {
    const auto shrink = [scale](std::size_t v, std::size_t floor) {
      const std::size_t s =
          static_cast<std::size_t>(static_cast<double>(v) * scale);
      return s < floor ? floor : s;
    };
    cfg.endpoints_per_dc = shrink(cfg.endpoints_per_dc, 4);
    cfg.messages_per_connection = shrink(cfg.messages_per_connection, 4);
    cfg.collective_iterations = 1;
  }
  return cfg;
}

fleet::Scheme scheme_of(std::int64_t index) {
  switch (index) {
    case 0: return fleet::Scheme::kSr;
    case 1: return fleet::Scheme::kEc;
    default: return fleet::Scheme::kRc;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetrySession telemetry(&argc, argv);
  bench::SweepCli sweep_cli(&argc, argv);
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  bench::figure_header(
      "Fleet", "multi-DC fleet goodput, fairness and completion-latency "
               "tail vs scheme x loss x distance");

  const std::vector<std::int64_t> schemes = {0, 1, 2};  // sr, ec, rc
  const std::vector<double> drops = {1e-5, 1e-3};
  const std::vector<double> kms = {500.0, 3750.0};

  sweep::ParamGrid grid;
  grid.axis_i64("scheme", schemes).axis_f64("p_drop", drops)
      .axis_f64("km", kms);

  const sweep::SweepResult result = sweep::run_sweep(
      grid, sweep_cli.options(0xF1EE7), [scale](sweep::Trial& trial) {
        fleet::FleetConfig cfg = scaled_config(scale);
        cfg.scheme = scheme_of(trial.params().i64("scheme"));
        cfg.p_drop = trial.params().f64("p_drop");
        cfg.distance_km = trial.params().f64("km");
        cfg.seed = trial.seed();
        const fleet::FleetResult r = fleet::run_fleet(cfg);
        trial.record("connections",
                     static_cast<std::int64_t>(r.connections));
        trial.record("posted", static_cast<std::int64_t>(r.messages_posted));
        trial.record("completed",
                     static_cast<std::int64_t>(r.messages_completed));
        trial.record("failed",
                     static_cast<std::int64_t>(r.messages_failed));
        trial.record("peak_concurrent",
                     static_cast<std::int64_t>(r.peak_concurrent));
        trial.record("retransmissions",
                     static_cast<std::int64_t>(r.retransmissions));
        trial.record("trunk_drops",
                     static_cast<std::int64_t>(r.trunk_drops));
        trial.record("goodput_gbps", r.fleet_goodput_gbps);
        trial.record("jain", r.jain_fairness);
        trial.record("p50_ms", r.p50_ms);
        trial.record("p99_ms", r.p99_ms);
        trial.record("p999_ms", r.p999_ms);
        trial.record_flag("quiesced", r.quiesced);
        // Split the 64-bit digest into two exact-in-double 32-bit halves.
        trial.record("digest_hi",
                     static_cast<std::int64_t>(r.digest >> 32));
        trial.record("digest_lo",
                     static_cast<std::int64_t>(r.digest & 0xFFFFFFFFu));
      });
  sweep_cli.finish(result);

  bool all_ok = true;
  bool ec_tail_wins = false;
  double sr_p999_worst = 0.0;
  double ec_p999_worst = 0.0;
  std::size_t trial_index = 0;
  for (const std::int64_t s : schemes) {
    std::printf("\n--- scheme %s ---\n",
                fleet::scheme_name(scheme_of(s)));
    TextTable t({"Pdrop", "distance", "completed", "peak", "goodput",
                 "Jain", "p50", "p99", "p999", "digest"});
    for (const double p : drops) {
      for (const double km : kms) {
        const sweep::TrialRecord& rec = result.at(trial_index++);
        if (!rec.ok) {
          all_ok = false;
          continue;
        }
        // record() stored exact-in-double integers; f64 is the only
        // TrialRecord accessor.
        const std::uint64_t digest =
            (static_cast<std::uint64_t>(rec.f64("digest_hi")) << 32) |
            static_cast<std::uint64_t>(rec.f64("digest_lo"));
        const auto completed = static_cast<long long>(rec.f64("completed"));
        const auto posted = static_cast<long long>(rec.f64("posted"));
        char pd[16], dist[16], comp[32], gp[24], jain[16], p50[16], p99[16],
            p999[16], dg[24];
        std::snprintf(pd, sizeof(pd), "%.0e", p);
        std::snprintf(dist, sizeof(dist), "%5.0f km", km);
        std::snprintf(comp, sizeof(comp), "%lld/%lld", completed, posted);
        std::snprintf(gp, sizeof(gp), "%.2f Gbit/s",
                      rec.f64("goodput_gbps"));
        std::snprintf(jain, sizeof(jain), "%.3f", rec.f64("jain"));
        std::snprintf(p50, sizeof(p50), "%.1f ms", rec.f64("p50_ms"));
        std::snprintf(p99, sizeof(p99), "%.1f ms", rec.f64("p99_ms"));
        std::snprintf(p999, sizeof(p999), "%.1f ms", rec.f64("p999_ms"));
        std::snprintf(dg, sizeof(dg), "%016llx",
                      static_cast<unsigned long long>(digest));
        t.add_row({pd, dist, comp,
                   std::to_string(
                       static_cast<long long>(rec.f64("peak_concurrent"))),
                   gp, jain, p50, p99, p999, dg});
        if ((completed != posted || rec.f64("failed") != 0.0) &&
            scheme_of(s) != fleet::Scheme::kRc) {
          // SDR schemes must finish every message within the horizon, and
          // no receiver may give up (EC global-timeout abort); RC may
          // legitimately stop after retry exhaustion.
          all_ok = false;
        }
        // The paper's tail story: at the hardest cell (max loss x max
        // distance) EC's proactive redundancy beats SR's reactive
        // retransmission in the p999.
        if (p == drops.back() && km == kms.back()) {
          if (scheme_of(s) == fleet::Scheme::kSr) {
            sr_p999_worst = rec.f64("p999_ms");
          }
          if (scheme_of(s) == fleet::Scheme::kEc) {
            ec_p999_worst = rec.f64("p999_ms");
          }
        }
      }
    }
    t.print();
  }
  // 5% tolerance: at smoke scales too few messages hit a loss for the tail
  // to separate; at full scale SR's RTO retransmissions dominate the p999.
  ec_tail_wins =
      ec_p999_worst > 0.0 && ec_p999_worst <= sr_p999_worst * 1.05;

  // ---- headline runs: default operating point, wall-clock + alloc hook ----
  std::printf("\n--- headline (defaults: 1500 km, Pdrop 1e-4, NIC model on) "
              "---\n");
  bool headline_ok = true;
  std::uint64_t min_peak = ~std::uint64_t{0};
  for (const std::int64_t s : schemes) {
    fleet::FleetConfig cfg = scaled_config(scale);
    cfg.scheme = scheme_of(s);
    fleet::FleetConfig empty = cfg;
    empty.messages_per_connection = 0;
    empty.collective_iterations = 0;  // the ring's edges stay, idle
    const std::uint64_t setup_before = common::allocations();
    const fleet::FleetResult setup = fleet::run_fleet(empty);
    const std::uint64_t setup_allocs = common::allocations() - setup_before;
    const std::uint64_t allocs_before = common::allocations();
    const double t0 = now_s();
    const fleet::FleetResult r = fleet::run_fleet(cfg);
    const double wall = now_s() - t0;
    const std::uint64_t allocs = common::allocations() - allocs_before;
    const auto per = [](double count, std::uint64_t n) {
      return n > 0 ? count / static_cast<double>(n) : 0.0;
    };
    const double allocs_per_message =
        per(static_cast<double>(allocs), r.messages_completed);
    const double setup_allocs_per_connection =
        per(static_cast<double>(setup_allocs), setup.connections);
    const double allocs_per_message_after_setup =
        per(static_cast<double>(allocs) - static_cast<double>(setup_allocs),
            r.messages_completed);
    if (r.peak_concurrent < min_peak) min_peak = r.peak_concurrent;
    std::printf("%-3s %4llu endpoints  %5llu msgs  peak %5llu  "
                "%7.2f Gbit/s  Jain %.3f  p99 %7.1f ms  %s\n",
                fleet::scheme_name(cfg.scheme),
                static_cast<unsigned long long>(r.endpoints),
                static_cast<unsigned long long>(r.messages_completed),
                static_cast<unsigned long long>(r.peak_concurrent),
                r.fleet_goodput_gbps, r.jain_fairness, r.p99_ms,
                r.quiesced ? "quiesced" : "HORIZON CUTOFF");
    bench::bench_json(
        "\"bench\":\"fleet\",\"workload\":\"%s\","
        "\"endpoints\":%llu,\"connections\":%llu,\"qps\":%llu,"
        "\"posted\":%llu,\"completed\":%llu,\"failed\":%llu,"
        "\"peak_concurrent\":%llu,"
        "\"goodput_gbps\":%.6f,\"jain\":%.6f,\"p50_ms\":%.6f,"
        "\"p99_ms\":%.6f,\"p999_ms\":%.6f,\"retransmissions\":%llu,"
        "\"trunk_drops\":%llu,\"quiesced\":%s,\"digest\":\"%016llx\","
        "\"wall_s\":%.6f,\"allocs_per_message\":%.3f,"
        "\"setup_allocs_per_connection\":%.3f,"
        "\"allocs_per_message_after_setup\":%.3f,\"commit\":\"%s\"",
        fleet::scheme_name(cfg.scheme),
        static_cast<unsigned long long>(r.endpoints),
        static_cast<unsigned long long>(r.connections),
        static_cast<unsigned long long>(r.qps_created),
        static_cast<unsigned long long>(r.messages_posted),
        static_cast<unsigned long long>(r.messages_completed),
        static_cast<unsigned long long>(r.messages_failed),
        static_cast<unsigned long long>(r.peak_concurrent),
        r.fleet_goodput_gbps, r.jain_fairness, r.p50_ms, r.p99_ms, r.p999_ms,
        static_cast<unsigned long long>(r.retransmissions),
        static_cast<unsigned long long>(r.trunk_drops),
        r.quiesced ? "true" : "false",
        static_cast<unsigned long long>(r.digest), wall, allocs_per_message,
        setup_allocs_per_connection, allocs_per_message_after_setup,
        kGitCommit);
    if (cfg.scheme != fleet::Scheme::kRc &&
        (r.messages_completed != r.messages_posted ||
         r.messages_failed != 0 || !r.quiesced)) {
      headline_ok = false;
    }
    if (r.unknown_qp_packets != 0 || r.unroutable_packets != 0) {
      headline_ok = false;
    }
    // The split holds only if the empty fleet built the same connections.
    if (setup.connections != r.connections) headline_ok = false;
    if (r.payload_live_slots != 0) headline_ok = false;
  }

  const bool scale_target_met =
      scale < 1.0 || min_peak >= 2000;  // >=2000 concurrent at full scale
  std::printf("\nshape check: EC p999 <= SR p999 at max loss x distance: "
              "%s\n",
              ec_tail_wins ? "reproduced" : "MISSING");
  std::printf("scale check: peak concurrent >= 2000 at full scale: %s\n",
              scale < 1.0 ? "skipped (scaled run)"
                          : (scale_target_met ? "met" : "MISSING"));
  return (all_ok && headline_ok && ec_tail_wins && scale_target_met &&
          result.failures() == 0)
             ? 0
             : 1;
}

// Periodic sim-time sampler: snapshots the metrics registry every N
// sim-seconds into a sparse time series exportable as CSV or JSONL.
//
// Turns every bench figure from an endpoint assertion into an explainable
// curve: goodput over a transfer, outstanding chunks during an RTO stall,
// retransmissions clustering at the Gilbert-Elliott bad state. Columns grow
// as components register (a channel built mid-run adds columns mid-series);
// rows store sparse (column, value) pairs so early rows simply leave later
// columns blank.
//
// Determinism contract: sampling is driven by simulator events at fixed
// sim-time periods over registry contents iterated in registration order,
// with fixed "%.10g" formatting — two runs with the same seed produce
// bit-identical CSV/JSONL output (an acceptance test relies on this).
//
// Layering note: `attach` is a header-only template so this library never
// includes simulator headers (sim links *against* telemetry, not the other
// way around). The tick stops rescheduling once the simulator has no other
// pending events, so `Simulator::run()` still drains.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "telemetry/registry.hpp"

namespace sdr::telemetry {

class Sampler {
 public:
  Sampler(Registry& registry, double period_s)
      : registry_(&registry), period_s_(period_s > 0.0 ? period_s : 1e-3) {}

  double period_s() const { return period_s_; }
  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return columns_.size(); }

  /// Snapshot every registry metric at sim time `now_s`.
  void sample(double now_s);

  /// Self-rescheduling sampling tick on `sim` (any type with schedule/now/
  /// pending, i.e. sdr::sim::Simulator). Stops once the simulator would
  /// otherwise be idle so run() terminates.
  template <class Sim>
  void attach(Sim& sim, double first_delay_s = 0.0) {
    struct Tick {
      Sampler* sampler;
      Sim* sim;
      void operator()() const {
        sampler->sample(sim->now().seconds());
        if (sim->pending() == 0) return;  // nothing left but us: stop
        sim->schedule(SimTime::from_seconds(sampler->period_s_),
                      Tick{sampler, sim});
      }
    };
    sim.schedule(SimTime::from_seconds(first_delay_s), Tick{this, &sim});
  }

  /// `sim_time_s,<col>,<col>,...` header then one row per sample; columns a
  /// row never saw are left blank. When any column first appeared after the
  /// first sample, a final `# columns: ...` comment restates the full
  /// schema for row-streaming readers.
  void write_csv(std::ostream& os) const;
  std::string to_csv() const;

 private:
  struct Row {
    double t_s{0.0};
    std::vector<std::pair<std::uint32_t, double>> values;  // (col idx, value)
  };

  Registry* registry_;
  double period_s_;
  std::vector<std::string> columns_;  // first-seen order
  std::unordered_map<std::string, std::uint32_t> column_index_;
  std::vector<Row> rows_;
  std::vector<FlatMetric> scratch_;  // reused across samples
};

}  // namespace sdr::telemetry

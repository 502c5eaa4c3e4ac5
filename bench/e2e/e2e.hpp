// Shared pieces of the end-to-end benchmark program `sdr_e2e`.
//
// sdr_e2e runs one mode per process and prints one JSON line:
//   * workload — the untraced end-to-end run of one workload (fleet seeds or
//                stream windows), plus its set-up timings;
//   * traced   — one fleet seed or stream window run twice, untraced and with
//                the hot-loop profiler armed, for per-category self time and
//                the tracing overhead;
//   * probe    — per-layer microbenchmarks timed around each layer's public
//                calls.
// bench/e2e/run.py turns the raw per-seed / per-window samples into the
// metrics named in BENCHMARK.json. Nothing here instruments src/: every
// number is taken from outside the layer it describes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/profiler.hpp"

namespace sdr::e2e {

/// operator-new calls made by this process so far (sdr_e2e.cpp replaces the
/// global allocation functions).
std::uint64_t allocs();

/// Wall clock in seconds (steady clock).
double now_s();

/// Host-speed reference (host_speed.cpp): two fixed kernels that depend on
/// nothing in src/, timed next to every measured unit so run.py can take
/// the shared host's speed drift out of the wall-clock metrics.
struct HostSpeed {
  double heap_s{0.0};  // allocation churn, in a helper forked at start-up
  double alu_s{0.0};   // a dependent integer chain, in this process
};
/// Forks the helper; call before anything else allocates much.
bool start_host_speed();
HostSpeed host_speed();
/// Ends the helper and waits for it.
void stop_host_speed();

/// Minimal JSON writer for the single output line.
class JsonWriter {
 public:
  JsonWriter& key(std::string_view k);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  const std::string& str() const { return out_; }

 private:
  void separate();
  void quote(std::string_view s);

  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
  bool after_key_{false};
};

/// One measured unit of a workload: a fleet seed or a stream window.
struct Unit {
  std::uint64_t seed{0};  // fleet seed (0 for stream windows)
  double wall_s{0.0};     // excludes output verification
  HostSpeed host;         // timed just before the unit
  std::uint64_t msgs{0};  // delivered application messages
  double sim_goodput_gbps{0.0};
  double sim_p99_ms{0.0};
  std::uint64_t retransmissions{0};
  std::uint64_t peak_concurrent{0};
  std::uint64_t digest{0};  // fleet completion digest (0 for streams)
};

/// Everything one untraced workload run produced.
struct WorkloadRun {
  std::vector<Unit> units;
  std::uint64_t posted{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  /// operator-new calls across the measured work, set-up included.
  std::uint64_t allocs{0};
  std::vector<double> setup_s;
  /// Output-check failures; a non-empty list fails the run.
  std::vector<std::string> errors;
};

/// Appends a printf-formatted output-check failure to `errors`.
[[gnu::format(printf, 2, 3)]] void add_error(std::vector<std::string>& errors,
                                             const char* fmt, ...);

bool is_workload(std::string_view name);

/// Untraced run of `name`; `seconds` sets the amount of work (fleet seeds,
/// stream window length), so equal arguments always mean equal work.
WorkloadRun run_workload(std::string_view name, std::uint64_t seed,
                         double seconds);

inline constexpr std::size_t kProfCategories =
    static_cast<std::size_t>(telemetry::ProfCategory::kCount);

/// One workload unit run untraced and then traced. `run` holds the
/// untraced unit and the message counts and errors of both passes.
struct TracedResult {
  WorkloadRun run;
  double traced_wall_s{0.0};
  telemetry::Profiler::Entry prof[kProfCategories]{};
};

/// One fleet seed (derive_seed(seed, 0)) or one stream window after a
/// warm-up window, first untraced and then with the profiler armed.
TracedResult run_traced(std::string_view name, std::uint64_t seed,
                        double seconds);

/// One probe's per-window results (median taken by the caller).
struct ProbeResult {
  std::string name;
  std::string unit;
  std::vector<double> windows;
};

/// Runs the probe `which` ("all" for every probe), each over five windows
/// of at least `window_s` seconds. Probe failures land in `errors`.
std::vector<ProbeResult> run_probes(std::string_view which, double window_s,
                                    std::vector<std::string>& errors);
bool is_probe(std::string_view name);

}  // namespace sdr::e2e

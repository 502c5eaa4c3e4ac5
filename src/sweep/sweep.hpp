// Deterministic parallel sweep engine.
//
// Runs every cell of a ParamGrid as an isolated Trial on a fixed-size
// worker pool and aggregates the results in grid order. The contract that
// makes parallelism safe to adopt everywhere:
//
//   bit-identical results at any --jobs value.
//
// It holds because a trial's observable behaviour depends only on
// (params, seed) — the seed is derive_seed(base_seed, index), never a
// function of which worker ran it or when — and because each trial gets
// fully private telemetry — a Registry, span and flight recorders and a
// profiler, installed thread-locally via ScopedTelemetry — so no
// shared-global state can cross-wire concurrent trials. The aggregator
// then emits JSONL/CSV strictly in trial-index order, i.e. exactly the
// order the old serial bench loops printed.
//
// Failure isolation: a throwing trial is caught, recorded, and retried
// once; it never takes down the pool or the other trials.
// Wall-clock timings are kept per trial for reporting but deliberately
// excluded from to_jsonl()/to_csv() — they are the one nondeterministic
// quantity and must not break bit-identity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sweep/param_grid.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::sweep {

struct SweepOptions {
  /// Worker threads. 1 runs inline on the calling thread (through the same
  /// per-trial isolation path as the parallel mode); 0 means
  /// std::thread::hardware_concurrency().
  unsigned jobs{1};

  /// Per-trial seeds are derive_seed(base_seed, trial_index).
  std::uint64_t base_seed{0x5EED5EED5EED5EEDULL};

  /// When true every trial gets an *enabled* private Registry whose exports
  /// are captured into its TrialRecord (and a per-trial Sampler reachable
  /// via Trial::attach_sampler). When false the private Registry is still
  /// installed — isolating the trial from any process-wide telemetry — but
  /// stays disabled: the zero-overhead path. The trial's span recorder,
  /// flight recorder and profiler are private and never armed either way,
  /// so a process-wide --trace-perfetto or --profile sees no trial work.
  bool capture_telemetry{false};
  double sample_period_s{1e-3};
};

struct TrialRecord;

/// Execution context handed to the trial function. Everything a trial may
/// observe or produce flows through here: its parameters, its derived seed,
/// ordered output (emit/record), and its private telemetry instances.
class Trial {
 public:
  std::size_t index() const { return index_; }
  const ParamPoint& params() const { return params_; }
  /// derive_seed(options.base_seed, index()) — see common/rng.hpp.
  std::uint64_t seed() const { return seed_; }
  /// 1-based attempt number (2 on the retry of a failed trial).
  int attempt() const { return attempt_; }

  /// Append a free-form output line; the aggregator replays lines of all
  /// trials in index order, reproducing the serial print order.
  void emit(std::string line);

  /// Record a named result value. Values appear in to_jsonl() under
  /// "results" and as CSV columns (column set = union over trials in index
  /// order, first-seen-first). Doubles use "%.10g" like telemetry exports.
  void record(const std::string& key, double value);
  void record(const std::string& key, std::int64_t value);
  void record(const std::string& key, const std::string& value);
  void record_flag(const std::string& key, bool value);

  /// This trial's private registry (enabled only when the sweep ran with
  /// capture_telemetry). The same instance is what telemetry::registry()
  /// resolves to inside the trial.
  telemetry::Registry& registry() { return *registry_; }

  /// Attach this trial's periodic sampler to a simulator (no-op unless
  /// capturing). Mirrors bench TelemetrySession::attach.
  template <class Sim>
  void attach_sampler(Sim& sim) {
    if (sampler_) sampler_->attach(sim);
  }

 private:
  friend struct TrialRunner;
  Trial(std::size_t index, ParamPoint params, std::uint64_t seed, int attempt,
        TrialRecord* record, telemetry::Registry* registry,
        telemetry::Sampler* sampler)
      : index_(index),
        params_(std::move(params)),
        seed_(seed),
        attempt_(attempt),
        record_(record),
        registry_(registry),
        sampler_(sampler) {}

  std::size_t index_;
  ParamPoint params_;
  std::uint64_t seed_;
  int attempt_;
  TrialRecord* record_;
  telemetry::Registry* registry_;
  telemetry::Sampler* sampler_;
};

/// Everything one trial produced. `wall_s` is informational only and never
/// serialized (see file header).
struct TrialRecord {
  struct Value {
    std::string key;
    std::string json;  // valid JSON token
    std::string csv;   // raw CSV cell
  };

  std::size_t index{0};
  /// Rendered parameters of this cell: "a=1 b=2.5", a JSON object, and one
  /// CSV cell per axis (axis order). Self-contained so records outlive the
  /// grid they were cut from.
  std::string params_str;
  std::string params_json;
  std::vector<std::string> param_cells;
  bool ok{false};
  int attempts{0};
  /// Terminal failure message (empty when ok). When a retry succeeded,
  /// `first_error` preserves what the failed attempt threw.
  std::string error;
  std::string first_error;
  double wall_s{0.0};

  std::vector<std::string> lines;
  std::vector<Value> values;

  /// Captured per-trial telemetry exports (capture_telemetry only).
  std::string metrics_jsonl;
  std::string timeseries_csv;

  const Value* find(const std::string& key) const {
    for (const Value& v : values) {
      if (v.key == key) return &v;
    }
    return nullptr;
  }
  /// Convenience for benches reading back a recorded double; returns
  /// `fallback` when the key is absent.
  double f64(const std::string& key, double fallback = 0.0) const;
};

struct SweepResult {
  std::vector<TrialRecord> trials;  // dense, index == trial index
  std::vector<std::string> axis_names;
  unsigned jobs{1};
  double wall_s{0.0};               // informational, not serialized

  std::size_t failures() const {
    std::size_t n = 0;
    for (const TrialRecord& t : trials) n += t.ok ? 0 : 1;
    return n;
  }
  const TrialRecord& at(std::size_t index) const { return trials[index]; }

  /// One JSON object per trial, in index order:
  ///   {"trial":i,"params":{...},"ok":true,"attempts":1,"error":null,
  ///    "results":{...},"lines":[...]}
  std::string to_jsonl() const;

  /// Header "trial,<axis...>,ok,attempts,<result keys...>" then one row per
  /// trial in index order. Result columns are the union of recorded keys,
  /// first seen first (scanning trials in index order).
  std::string to_csv() const;

  /// Per-trial telemetry exports merged in index order; every line gains a
  /// leading "trial":i field (JSONL) or a "# trial i" section header (CSV).
  std::string merged_metrics_jsonl() const;
  std::string merged_timeseries_csv() const;
};

using TrialFn = std::function<void(Trial&)>;

/// Run every cell of `grid` through `fn` and aggregate. Blocking; spawns
/// options.jobs - 1 extra threads (the calling thread is worker 0).
SweepResult run_sweep(const ParamGrid& grid, const SweepOptions& options,
                      const TrialFn& fn);

}  // namespace sdr::sweep

// Shared helpers for the figure-regeneration bench harness.
//
// Each bench binary regenerates one figure of the paper and prints the same
// rows/series the paper reports, as aligned text tables. Shapes (who wins,
// crossovers, scaling slopes) are the reproduction target; absolute numbers
// differ from the authors' BlueField-3 testbed (see DESIGN.md §1).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/table.hpp"
#include "common/units.hpp"
#include "ec/gf256_kernels.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::bench {

/// Opt-in telemetry capture for every fig/ablation binary.
///
/// Declare one at the top of main:
///
///   int main(int argc, char** argv) {
///     sdr::bench::TelemetrySession telemetry(&argc, argv);
///     ...
///   }
///
/// It strips `--telemetry-out=<dir>` (and optional
/// `--telemetry-period=<sim-seconds>`, default 1e-3) from argv. When the
/// flag is absent the session is inert and the bench runs with telemetry
/// disabled — the zero-overhead path. When present it enables the metric
/// registry and on destruction writes `metrics.jsonl` and `timeseries.csv`
/// into the directory.
///
/// Two further flags are independent of `--telemetry-out`:
///   --trace-perfetto=<file>  arm the causal span recorder and write a
///                            Chrome trace-event JSON (open it in Perfetto
///                            or chrome://tracing) at destruction.
///   --profile                arm the hot-loop profiler and print a
///                            wall-clock self-time table per subsystem
///                            category to stderr at destruction.
/// Both cover the calling thread only: sweep trials run with private,
/// disarmed recorders (src/sweep/sweep.hpp).
///
/// Benches that drive a simulator can additionally sample a periodic time
/// series via `TelemetrySession::attach_sampler(sim)`.
class TelemetrySession {
 public:
  TelemetrySession(int* argc, char** argv) {
    int out = 1;
    for (int in = 1; in < *argc; ++in) {
      const char* arg = argv[in];
      if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
        out_dir_ = arg + 16;
      } else if (std::strncmp(arg, "--telemetry-period=", 19) == 0) {
        period_s_ = std::strtod(arg + 19, nullptr);
      } else if (std::strncmp(arg, "--trace-perfetto=", 17) == 0) {
        perfetto_path_ = arg + 17;
      } else if (std::strcmp(arg, "--profile") == 0) {
        profile_ = true;
      } else {
        argv[out++] = argv[in];
      }
    }
    *argc = out;
    argv[out] = nullptr;
    if (!perfetto_path_.empty()) telemetry::spans().arm();
    if (profile_) telemetry::profiler().arm();
    if (out_dir_.empty()) {
      if (!perfetto_path_.empty() || profile_) instance_ = this;
      return;
    }

    active_ = true;
    telemetry::registry().enable();
    sampler_ = std::make_unique<telemetry::Sampler>(telemetry::registry(),
                                                    period_s_);
    instance_ = this;
  }

  ~TelemetrySession() {
    if (!perfetto_path_.empty()) {
      const std::string json = telemetry::spans().to_chrome_json();
      std::FILE* f = std::fopen(perfetto_path_.c_str(), "w");
      if (f) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr,
                     "[telemetry] wrote %zu spans (%llu truncated) to %s\n",
                     telemetry::spans().size(),
                     static_cast<unsigned long long>(
                         telemetry::spans().truncated()),
                     perfetto_path_.c_str());
      } else {
        std::fprintf(stderr, "[telemetry] cannot write %s\n",
                     perfetto_path_.c_str());
      }
      telemetry::spans().disarm();
    }
    if (profile_) {
      std::fprintf(stderr, "%s", telemetry::profiler().table().c_str());
      telemetry::profiler().disarm();
    }
    if (!active_) {
      if (instance_ == this) instance_ = nullptr;
      return;
    }
    instance_ = nullptr;
    std::error_code ec;
    std::filesystem::create_directories(out_dir_, ec);
    // A bench that ran its grid through the sweep engine captured telemetry
    // per trial; the merged, trial-labeled exports replace the process-wide
    // instances (which such a run leaves empty by design).
    write_file("metrics.jsonl", adopted_ ? sweep_metrics_jsonl_
                                         : telemetry::registry().to_jsonl());
    write_file("timeseries.csv",
               adopted_ ? sweep_timeseries_csv_ : sampler_->to_csv());
    std::fprintf(stderr, "[telemetry] wrote metrics.jsonl, timeseries.csv "
                         "to %s\n", out_dir_.c_str());
    telemetry::registry().disable();
  }

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  bool active() const { return active_; }
  /// Sampling period of --telemetry-period (sim seconds).
  double period_s() const { return period_s_; }

  /// The live session, if any — lets bench helpers deep in a run attach the
  /// periodic sampler to the simulator they just built.
  static TelemetrySession* instance() { return instance_; }

  template <class Sim>
  void attach_sampler(Sim& sim) {
    if (active_) sampler_->attach(sim);
  }

  /// Convenience: attach to `sim` if a session is live, no-op otherwise.
  template <class Sim>
  static void attach(Sim& sim) {
    if (instance_) instance_->attach_sampler(sim);
  }

  /// Merge a sweep's per-trial telemetry into this session's output files.
  /// May be called once per sweep; sections accumulate in call order.
  void adopt_sweep(const sweep::SweepResult& result) {
    if (!active_) return;
    adopted_ = true;
    sweep_metrics_jsonl_ += result.merged_metrics_jsonl();
    sweep_timeseries_csv_ += result.merged_timeseries_csv();
  }

 private:
  void write_file(const char* name, const std::string& body) {
    const std::filesystem::path path =
        std::filesystem::path(out_dir_) / name;
    std::FILE* f = std::fopen(path.string().c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "[telemetry] cannot write %s\n",
                   path.string().c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }

  inline static TelemetrySession* instance_ = nullptr;
  std::string out_dir_;
  std::string perfetto_path_;
  double period_s_{1e-3};
  bool active_{false};
  bool profile_{false};
  bool adopted_{false};
  std::string sweep_metrics_jsonl_;
  std::string sweep_timeseries_csv_;
  std::unique_ptr<telemetry::Sampler> sampler_;
};

/// Sweep-engine command line for grid benches. Declare after the
/// TelemetrySession:
///
///   sdr::bench::TelemetrySession telemetry(&argc, argv);
///   sdr::bench::SweepCli sweep_cli(&argc, argv);
///   ...
///   auto result = sweep::run_sweep(grid, sweep_cli.options(kSeed), fn);
///   sweep_cli.finish(result);
///
/// Strips `--jobs=N` (worker threads, default 1; 0 = all cores) and
/// `--sweep-out=<dir>` (write the aggregator's ordered sweep.jsonl +
/// sweep.csv there). finish() also merges per-trial telemetry into a live
/// TelemetrySession. Results are bit-identical at every --jobs value.
class SweepCli {
 public:
  SweepCli(int* argc, char** argv) {
    int out = 1;
    for (int in = 1; in < *argc; ++in) {
      const char* arg = argv[in];
      if (std::strncmp(arg, "--jobs=", 7) == 0) {
        jobs_ = static_cast<unsigned>(std::strtoul(arg + 7, nullptr, 10));
      } else if (std::strncmp(arg, "--sweep-out=", 12) == 0) {
        out_dir_ = arg + 12;
      } else {
        argv[out++] = argv[in];
      }
    }
    *argc = out;
    argv[out] = nullptr;
  }

  unsigned jobs() const { return jobs_; }

  sweep::SweepOptions options(std::uint64_t base_seed) const {
    sweep::SweepOptions opt;
    opt.jobs = jobs_;
    opt.base_seed = base_seed;
    if (const TelemetrySession* session = TelemetrySession::instance()) {
      opt.capture_telemetry = true;
      opt.sample_period_s = session->period_s();
    }
    return opt;
  }

  /// Writes/appends the aggregated outputs of one finished sweep. Call once
  /// per sweep; multi-sweep benches get concatenated sections.
  void finish(const sweep::SweepResult& result) {
    if (TelemetrySession* session = TelemetrySession::instance()) {
      session->adopt_sweep(result);
    }
    if (out_dir_.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(out_dir_, ec);
    append_file("sweep.jsonl", result.to_jsonl());
    if (sweeps_written_ > 0) append_file("sweep.csv", "\n");
    append_file("sweep.csv", result.to_csv());
    ++sweeps_written_;
  }

 private:
  void append_file(const char* name, const std::string& body) {
    const std::filesystem::path path =
        std::filesystem::path(out_dir_) / name;
    std::FILE* f =
        std::fopen(path.string().c_str(), sweeps_written_ == 0 ? "w" : "a");
    if (!f) {
      std::fprintf(stderr, "[sweep] cannot write %s\n",
                   path.string().c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }

  unsigned jobs_{1};
  std::string out_dir_;
  int sweeps_written_{0};
};

inline void figure_header(const char* figure, const char* description,
                          std::uint64_t seed = 0) {
  std::printf("=====================================================\n");
  std::printf("%s — %s\n", figure, description);
  if (seed != 0) {
    std::printf("(deterministic: seed %llu)\n",
                static_cast<unsigned long long>(seed));
  }
  std::printf("=====================================================\n");
}

/// Prints one `BENCH_JSON {...}` line: the caller's printf-formatted fields
/// (without braces), then the host provenance a trajectory row needs to be
/// comparable — `nproc` (online cores) and `ec_isa` (the dispatched GF(256)
/// kernel tier).
__attribute__((format(printf, 1, 2))) inline void bench_json(
    const char* fields, ...) {
  std::printf("BENCH_JSON {");
  std::va_list args;
  va_start(args, fields);
  std::vprintf(fields, args);
  va_end(args);
  std::printf(",\"nproc\":%u,\"ec_isa\":\"%s\"}\n",
              std::thread::hardware_concurrency(),
              ec::isa_name(ec::active_isa()));
}

inline std::string speedup_cell(double speedup) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
  return buf;
}

}  // namespace sdr::bench

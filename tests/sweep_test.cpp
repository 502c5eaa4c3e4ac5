// Tests for the deterministic parallel sweep engine (src/sweep/): grid
// indexing, seed derivation, serial==parallel bit-identity, failure
// capture/retry, per-trial telemetry isolation, and edge cases.
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::sweep {
namespace {

// ---------------------------------------------------------------------------
// ParamGrid
// ---------------------------------------------------------------------------

TEST(ParamGridTest, CartesianOrderLastAxisFastest) {
  ParamGrid grid;
  grid.axis_i64("outer", {1, 2}).axis_str("inner", {"a", "b", "c"});
  ASSERT_EQ(grid.size(), 6u);
  // Same order as: for outer { for inner { ... } }.
  const std::pair<std::int64_t, std::string> want[] = {
      {1, "a"}, {1, "b"}, {1, "c"}, {2, "a"}, {2, "b"}, {2, "c"}};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ParamPoint p = grid.point(i);
    EXPECT_EQ(p.index(), i);
    EXPECT_EQ(p.i64("outer"), want[i].first);
    EXPECT_EQ(p.str("inner"), want[i].second);
  }
}

TEST(ParamGridTest, TypedAccessAndRendering) {
  ParamGrid grid;
  grid.axis_i64("bytes", {65536})
      .axis_f64("p_drop", {1e-5})
      .axis_flag("bursty", {true});
  const ParamPoint p = grid.point(0);
  EXPECT_EQ(p.i64("bytes"), 65536);
  EXPECT_DOUBLE_EQ(p.f64("p_drop"), 1e-5);
  EXPECT_TRUE(p.flag("bursty"));
  EXPECT_TRUE(p.has("bytes"));
  EXPECT_FALSE(p.has("nope"));
  EXPECT_THROW(p.i64("nope"), std::out_of_range);
  EXPECT_THROW(p.f64("bytes"), std::bad_variant_access);
  EXPECT_EQ(p.to_string(), "bytes=65536 p_drop=1e-05 bursty=true");
  EXPECT_EQ(p.to_json(), "{\"bytes\":65536,\"p_drop\":1e-05,\"bursty\":true}");
}

TEST(ParamGridTest, EmptyGridShapes) {
  ParamGrid no_axes;
  EXPECT_EQ(no_axes.size(), 0u);

  ParamGrid empty_axis;
  empty_axis.axis_i64("x", {1, 2, 3}).axis_f64("y", {});
  EXPECT_EQ(empty_axis.size(), 0u);
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(DeriveSeedTest, PinnedValues) {
  // derive_seed(base, i) is element i+1 of the SplitMix64 stream seeded at
  // base; derive_seed(0, 0) is the published SplitMix64 test vector.
  EXPECT_EQ(derive_seed(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(derive_seed(0, 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(derive_seed(0x5A11DA7E, 0), 0xf9c75ac5c536d38aULL);
  EXPECT_EQ(derive_seed(0x5A11DA7E, 7), 0x3b0f6cc797f2851bULL);
  EXPECT_EQ(derive_seed(0xDEADBEEF, 41), 0xf5dfbdab76a2839dULL);
}

TEST(DeriveSeedTest, MatchesStatefulSplitMix64Stream) {
  std::uint64_t state = 0x5A11DA7E;
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(derive_seed(0x5A11DA7E, i), splitmix64(state)) << i;
  }
}

TEST(DeriveSeedTest, NeighbouringIndicesUncorrelated) {
  // Coarse check: seeds of adjacent trials differ in roughly half the bits.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const int bits = __builtin_popcountll(derive_seed(99, i) ^
                                          derive_seed(99, i + 1));
    EXPECT_GT(bits, 8) << i;
    EXPECT_LT(bits, 56) << i;
  }
}

// ---------------------------------------------------------------------------
// Engine: bit-identity serial vs parallel
// ---------------------------------------------------------------------------

/// A trial with data-dependent cost and output: draws from its derived
/// seed, burns a seed-dependent amount of work (so dynamic scheduling
/// actually interleaves), and records values plus free-form lines.
void stochastic_trial(Trial& trial) {
  Rng rng(trial.seed());
  const std::uint64_t spin = rng.next_below(2000);
  double acc = 0.0;
  for (std::uint64_t i = 0; i < spin; ++i) acc += rng.next_double();
  trial.record("spin", static_cast<std::int64_t>(spin));
  trial.record("acc", acc);
  trial.record("tag", "t" + std::to_string(trial.index()));
  trial.emit("line A of trial " + std::to_string(trial.index()));
  trial.emit("draw=" + std::to_string(rng.next_u64()));
}

ParamGrid mini_grid() {
  ParamGrid grid;
  grid.axis_i64("bytes", {4096, 65536, 1048576})
      .axis_f64("p", {1e-5, 1e-3, 1e-2})
      .axis_str("scheme", {"sr", "ec"});
  return grid;  // 18 trials
}

TEST(SweepEngineTest, SerialAndParallelBitIdentical) {
  const ParamGrid grid = mini_grid();
  SweepOptions serial;
  serial.jobs = 1;
  serial.base_seed = 0xBEEF;
  const SweepResult a = run_sweep(grid, serial, stochastic_trial);
  ASSERT_EQ(a.trials.size(), 18u);
  EXPECT_EQ(a.failures(), 0u);

  SweepOptions parallel = serial;
  parallel.jobs = 4;
  const SweepResult b = run_sweep(grid, parallel, stochastic_trial);
  EXPECT_EQ(b.jobs, 4u);
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(SweepEngineTest, CapturedTelemetryBitIdentical) {
  const ParamGrid grid = mini_grid();
  auto fn = [](Trial& trial) {
    // Exercise registration through the thread-installed current registry,
    // the way instrumented components do.
    auto c = telemetry::registry().counter("trial.events");
    c.inc(trial.index() + 1);
    telemetry::registry().gauge("trial.seed_low32")
        .set(static_cast<double>(trial.seed() & 0xFFFFFFFFu));
  };
  SweepOptions serial;
  serial.jobs = 1;
  serial.capture_telemetry = true;
  const SweepResult a = run_sweep(grid, serial, fn);
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  const SweepResult b = run_sweep(grid, parallel, fn);

  EXPECT_FALSE(a.merged_metrics_jsonl().empty());
  EXPECT_EQ(a.merged_metrics_jsonl(), b.merged_metrics_jsonl());
  EXPECT_EQ(a.merged_timeseries_csv(), b.merged_timeseries_csv());
  // Labeled per trial, in index order.
  EXPECT_NE(a.merged_metrics_jsonl().find("{\"trial\":0,"),
            std::string::npos);
  EXPECT_NE(a.merged_metrics_jsonl().find("{\"trial\":17,"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine: failure capture and retry
// ---------------------------------------------------------------------------

TEST(SweepEngineTest, FlakyTrialRetriedOnceAndRecorded) {
  ParamGrid grid;
  grid.axis_i64("i", {0, 1, 2, 3, 4, 5, 6, 7});
  auto fn = [](Trial& trial) {
    if (trial.index() == 3 && trial.attempt() == 1) {
      throw std::runtime_error("transient failure");
    }
    trial.record("value", static_cast<std::int64_t>(trial.index() * 10));
  };
  for (const unsigned jobs : {1u, 4u}) {
    SweepOptions opt;
    opt.jobs = jobs;
    const SweepResult r = run_sweep(grid, opt, fn);
    EXPECT_EQ(r.failures(), 0u);
    EXPECT_TRUE(r.at(3).ok);
    EXPECT_EQ(r.at(3).attempts, 2);
    EXPECT_EQ(r.at(3).first_error, "transient failure");
    EXPECT_TRUE(r.at(3).error.empty());
    EXPECT_EQ(r.at(2).attempts, 1);
    EXPECT_EQ(r.at(3).f64("value"), 30.0);
  }
}

TEST(SweepEngineTest, PersistentFailureNeverPoisonsThePool) {
  ParamGrid grid;
  grid.axis_i64("i", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  std::atomic<int> attempts_on_bad{0};
  auto fn = [&](Trial& trial) {
    if (trial.index() == 5) {
      attempts_on_bad.fetch_add(1);
      throw std::runtime_error("always broken");
    }
    if (trial.index() == 7) throw 42;  // non-std::exception path
    trial.record("ok_index", static_cast<std::int64_t>(trial.index()));
  };
  SweepOptions opt;
  opt.jobs = 4;
  const SweepResult r = run_sweep(grid, opt, fn);
  EXPECT_EQ(r.failures(), 2u);
  EXPECT_EQ(attempts_on_bad.load(), 2);  // retried exactly once
  EXPECT_FALSE(r.at(5).ok);
  EXPECT_EQ(r.at(5).attempts, 2);
  EXPECT_EQ(r.at(5).error, "always broken");
  EXPECT_EQ(r.at(5).first_error, "always broken");
  EXPECT_FALSE(r.at(7).ok);
  EXPECT_EQ(r.at(7).error, "non-std::exception thrown");
  for (const std::size_t i : {0u, 4u, 6u, 11u}) {
    EXPECT_TRUE(r.at(i).ok) << i;
    EXPECT_EQ(r.at(i).attempts, 1) << i;
  }
  // Failed trials still serialize (with error set), in order.
  const std::string jsonl = r.to_jsonl();
  EXPECT_NE(jsonl.find("\"error\":\"always broken\""), std::string::npos);
}

TEST(SweepEngineTest, EmptyGridAndSingleCell) {
  ParamGrid empty;
  SweepOptions opt;
  opt.jobs = 4;
  int calls = 0;
  const SweepResult none =
      run_sweep(empty, opt, [&](Trial&) { ++calls; });
  EXPECT_EQ(none.trials.size(), 0u);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(none.to_jsonl(), "");
  EXPECT_EQ(none.to_csv(), "trial,ok,attempts\n");

  ParamGrid one;
  one.axis_f64("p", {0.5});
  const SweepResult single = run_sweep(one, opt, [&](Trial& t) {
    ++calls;
    t.record("p_echo", t.params().f64("p"));
  });
  EXPECT_EQ(single.trials.size(), 1u);
  EXPECT_EQ(single.jobs, 1u);  // clamped to grid size
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(single.at(0).f64("p_echo"), 0.5);
}

TEST(SweepEngineTest, CsvShapeAndColumnUnion) {
  ParamGrid grid;
  grid.axis_i64("n", {1, 2});
  auto fn = [](Trial& trial) {
    trial.record("always", static_cast<std::int64_t>(1));
    if (trial.index() == 1) trial.record("late", 2.5);
  };
  SweepOptions opt;
  const SweepResult r = run_sweep(grid, opt, fn);
  EXPECT_EQ(r.to_csv(),
            "trial,n,ok,attempts,always,late\n"
            "0,1,true,1,1,\n"
            "1,2,true,1,1,2.5\n");
}

// ---------------------------------------------------------------------------
// Telemetry isolation across concurrent trials
// ---------------------------------------------------------------------------

TEST(SweepTelemetryTest, ConcurrentTrialsNeverInterleaveMetrics) {
  // Every trial registers the SAME metric names and bumps them a
  // trial-specific number of times; with any shared registry the counts
  // (or the instance names) would cross-wire. Each trial asserts its own
  // view mid-flight; the merged export is checked per trial afterwards.
  ParamGrid grid;
  grid.axis_i64("i", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  auto fn = [](Trial& trial) {
    auto& reg = telemetry::registry();
    ASSERT_TRUE(reg.enabled());
    ASSERT_EQ(&reg, &trial.registry());  // thread-installed == per-trial
    // Instance names restart at 0 in every trial: isolation of the
    // per-base counters, not a process-wide sequence.
    ASSERT_EQ(reg.instance_name("sim.channel"), "sim.channel0");
    auto c = reg.counter("shared.name");
    const std::uint64_t mine = trial.index() + 1;
    for (std::uint64_t k = 0; k < mine; ++k) {
      c.inc();
      ASSERT_EQ(reg.counter_value("shared.name"), k + 1);
    }
  };
  SweepOptions opt;
  opt.jobs = 8;
  opt.capture_telemetry = true;
  const SweepResult r = run_sweep(grid, opt, fn);
  ASSERT_EQ(r.failures(), 0u);
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    const std::string want = "{\"trial\":" + std::to_string(i) +
                             ",\"metric\":\"shared.name\",\"value\":" +
                             std::to_string(i + 1) + "}";
    EXPECT_NE(r.merged_metrics_jsonl().find(want), std::string::npos) << i;
  }
}

TEST(SweepTelemetryTest, TrialsLeaveProcessWideTelemetryUntouched) {
  auto& global = telemetry::registry();
  const bool was_enabled = global.enabled();
  ParamGrid grid;
  grid.axis_i64("i", {0, 1, 2, 3});
  SweepOptions opt;
  opt.jobs = 4;
  opt.capture_telemetry = true;
  run_sweep(grid, opt, [](Trial&) {
    telemetry::registry().counter("leak.check").inc();
  });
  EXPECT_EQ(&telemetry::registry(), &global);
  EXPECT_EQ(global.enabled(), was_enabled);
  EXPECT_FALSE(global.has("leak.check"));
}

TEST(SweepTelemetryTest, TrialsNeverReachProcessWideSpansOrProfiler) {
  // The calling thread arms the process-wide span recorder and profiler, as
  // a bench run with --trace-perfetto --profile does. Trials emit and open
  // profiler scopes on four workers (the calling thread among them); each
  // must land in its own private, disarmed instances — never in the
  // defaults, which no worker may touch (TSan would flag the race).
  telemetry::spans().arm(1024);
  telemetry::profiler().arm();
  ParamGrid grid;
  grid.axis_i64("i", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  SweepOptions opt;
  opt.jobs = 4;
  const SweepResult r = run_sweep(grid, opt, [](Trial& trial) {
    ASSERT_FALSE(telemetry::observing());
    ASSERT_FALSE(telemetry::profiling());
    for (std::uint32_t k = 0; k < 100; ++k) {
      telemetry::ProfScope prof(telemetry::ProfCategory::kSim);
      // Unguarded on purpose: even a hook that skipped observing() must
      // reach only the trial's own recorders.
      telemetry::emit({.t = SimTime::from_seconds(k * 1e-6),
                       .kind = telemetry::EventKind::kPosted,
                       .msg = trial.index(), .chunk = k, .imm = k});
    }
  });
  EXPECT_EQ(r.failures(), 0u);
  EXPECT_EQ(telemetry::spans().size(), 0u);
  EXPECT_EQ(telemetry::profiler().entry(telemetry::ProfCategory::kSim).calls,
            0u);
  EXPECT_TRUE(telemetry::observing()) << "caller's own state restored";
  telemetry::spans().disarm();
  telemetry::profiler().disarm();
}

// ---------------------------------------------------------------------------
// Bench command line
// ---------------------------------------------------------------------------

TEST(SweepCliTest, ForwardsTelemetryPeriodToTrials) {
  // A grid bench's trial samplers must tick at --telemetry-period, not at
  // SweepOptions' default period.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "sweep_cli_period";
  std::string args[] = {"bench", "--telemetry-out=" + dir.string(),
                        "--telemetry-period=0.01", "--jobs=3"};
  char* argv[] = {args[0].data(), args[1].data(), args[2].data(),
                  args[3].data(), nullptr};
  int argc = 4;
  {
    bench::TelemetrySession telemetry(&argc, argv);
    bench::SweepCli sweep_cli(&argc, argv);
    EXPECT_EQ(argc, 1);
    const SweepOptions opt = sweep_cli.options(42);
    EXPECT_EQ(opt.jobs, 3u);
    EXPECT_EQ(opt.base_seed, 42u);
    EXPECT_TRUE(opt.capture_telemetry);
    EXPECT_EQ(opt.sample_period_s, 0.01);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sdr::sweep

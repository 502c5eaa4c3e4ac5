// Unit and property tests for src/common: RNG, bitmaps, histograms, units,
// running stats, tables.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/bitmap.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sdr {
namespace {

// ---------------------------------------------------------------------------
// SimTime / units
// ---------------------------------------------------------------------------

TEST(SimTimeTest, ConversionsRoundTrip) {
  const SimTime t = SimTime::from_seconds(0.025);
  EXPECT_EQ(t.ns, 25'000'000);
  EXPECT_DOUBLE_EQ(t.seconds(), 0.025);
  EXPECT_DOUBLE_EQ(t.millis(), 25.0);
  EXPECT_DOUBLE_EQ(SimTime::from_millis(25.0).seconds(), 0.025);
  EXPECT_DOUBLE_EQ(SimTime::from_micros(3.0).ns, 3000);
}

TEST(SimTimeTest, ArithmeticAndOrdering) {
  const SimTime a{100};
  const SimTime b{250};
  EXPECT_EQ((a + b).ns, 350);
  EXPECT_EQ((b - a).ns, 150);
  EXPECT_LT(a, b);
  EXPECT_EQ((a * 3).ns, 300);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c.ns, 350);
}

TEST(PropagationTest, PaperQuotedDelayPer1000Km) {
  // The paper: ~6.5 ms of added RTT per 1000 km of cable.
  const double rtt_ms = rtt_s(1000.0) * 1e3;
  EXPECT_NEAR(rtt_ms, 10.0, 5.0);  // 2/3c fiber -> 10 ms RTT per 1000 km
  EXPECT_NEAR(rtt_to_km(rtt_s(3750.0)), 3750.0, 1e-6);
}

TEST(UnitsTest, InjectionTime) {
  // 4 KiB at 400 Gbit/s.
  const double t = injection_time_s(4096, 400 * Gbps);
  EXPECT_NEAR(t, 4096.0 * 8.0 / 400e9, 1e-15);
}

TEST(UnitsTest, BdpMatchesPaperScale) {
  // 400 Gbit/s x 25 ms = 1.25 GB BDP; paper calls 8 GiB ~ 8x smaller than
  // BDP at the Fig 12 extremes -- our helper must be in the right regime.
  const double bdp = bdp_bytes(400 * Gbps, 0.025);
  EXPECT_NEAR(bdp, 1.25e9, 1e3);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(128 * MiB), "128 MiB");
  EXPECT_EQ(format_bytes(4 * KiB), "4 KiB");
  EXPECT_EQ(format_bytes(1), "1 B");
  EXPECT_EQ(format_bytes(3ull * GiB + GiB / 2), "3.50 GiB");
}

TEST(UnitsTest, FormatRate) {
  EXPECT_EQ(format_rate(400e9), "400 Gbit/s");
  EXPECT_EQ(format_rate(3.2e12), "3.20 Tbit/s");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.025), "25.000 ms");
  EXPECT_EQ(format_seconds(3.2e-6), "3.200 us");
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345), b(12345), c(54321);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool any_diff = false;
  Rng a2(12345);
  for (int i = 0; i < 100; ++i) {
    any_diff |= (a2.next_u64() != c.next_u64());
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, SplitMix64PinnedReferenceVector) {
  // First outputs of the SplitMix64 stream seeded with 0 — the published
  // reference vector. Pins splitmix64()/splitmix64_mix() forever: an
  // accidental edit would silently reseed every experiment in the repo.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454fULL);
  EXPECT_EQ(splitmix64(state), 0xf88bb8a8724c81ecULL);
}

TEST(RngTest, DeriveSeedPinnedAndMatchesStream) {
  // derive_seed(base, i) must equal element i+1 of the SplitMix64 stream
  // seeded at base (an O(1) state jump), and is pinned so recorded sweep
  // results stay reproducible across refactors.
  EXPECT_EQ(derive_seed(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(derive_seed(0, 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(derive_seed(0x5A11DA7E, 0), 0xf9c75ac5c536d38aULL);
  EXPECT_EQ(derive_seed(0x5A11DA7E, 7), 0x3b0f6cc797f2851bULL);
  EXPECT_EQ(derive_seed(0xDEADBEEF, 41), 0xf5dfbdab76a2839dULL);
  std::uint64_t state = 0xDEADBEEF;
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(derive_seed(0xDEADBEEF, i), splitmix64(state)) << i;
  }
  static_assert(derive_seed(0, 0) == 0xe220a8397b1dcdafULL);  // constexpr
}

TEST(RngTest, UniformDoublesInRange) {
  Rng rng(7);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.next_double();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  const double p = 0.137;
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(RngTest, GeometricMeanMatchesTheory) {
  Rng rng(13);
  const double p = 0.25;  // mean 1/p = 4
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, GeometricEdgeCases) {
  Rng rng(17);
  EXPECT_EQ(rng.geometric(1.0), 1u);
  EXPECT_EQ(rng.geometric(0.0), std::numeric_limits<std::uint64_t>::max());
}

class BinomialParamTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>> {};

TEST_P(BinomialParamTest, MeanAndVarianceMatchTheory) {
  const auto [n, p] = GetParam();
  Rng rng(n * 31 + static_cast<std::uint64_t>(p * 1000));
  RunningStats stats;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    stats.add(static_cast<double>(rng.binomial(n, p)));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  EXPECT_NEAR(stats.mean(), mean, 5.0 * std::sqrt(var / reps) + 0.02 * mean + 1e-9);
  if (var > 1.0) {
    EXPECT_NEAR(stats.variance(), var, 0.15 * var);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialParamTest,
    ::testing::Values(std::make_pair(10ull, 0.5), std::make_pair(100ull, 0.01),
                      std::make_pair(1000ull, 0.001),
                      std::make_pair(100000ull, 1e-5),
                      std::make_pair(1000ull, 0.9),
                      std::make_pair(1000000ull, 0.3)));

TEST(RngTest, BinomialBoundaries) {
  Rng rng(19);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

TEST(RngTest, NextBelowRedrawsInTheBiasedZone) {
  // Bound 2^63 + 1 puts Lemire's rejection threshold (2^64 - bound) % bound
  // at 2^63 - 1, so about half the raw draws land in the biased zone and
  // are redrawn: ~2 generator values per result.
  const std::uint64_t bound = (1ULL << 63) + 1;
  Rng rng(37);
  Rng raw(37);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(bound);
    ASSERT_LT(v, bound);
    if (i < 4) first.push_back(v);
  }
  const std::uint64_t next = rng.next_u64();
  int consumed = 0;
  while (consumed < 4000 && raw.next_u64() != next) ++consumed;
  EXPECT_GT(consumed, 1500);
  EXPECT_LT(consumed, 2500);
  EXPECT_EQ(first, (std::vector<std::uint64_t>{
                       7532863910455174426ULL, 7876194323522937728ULL,
                       7820576733591616730ULL, 1395175409121554219ULL}));
}

TEST(RngTest, NextBelowIsUnbiased) {
  Rng rng(29);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, 500);
}

// ---------------------------------------------------------------------------
// Fleet traffic samplers (Zipf / Poisson / trace)
// ---------------------------------------------------------------------------

TEST(ZipfSamplerTest, PinnedReferenceVector) {
  // Locked-in draw sequence: the fleet plan generator depends on these
  // exact values staying stable across refactors (same guarantee the
  // SplitMix64 pinned vector gives the sweep engine).
  Rng rng(derive_seed(0xF1EE7, 0));
  ASSERT_EQ(derive_seed(0xF1EE7, 0), 0xa38ada2a25e4a04bULL);
  ZipfSampler zipf(8, 1.2);
  const std::size_t expected[] = {1, 4, 1, 3, 1, 5, 6, 1, 6, 3, 3, 2};
  for (std::size_t want : expected) EXPECT_EQ(zipf.sample(rng), want);
}

TEST(ZipfSamplerTest, PmfSumsToOneAndRankOneDominates) {
  ZipfSampler zipf(16, 1.2);
  double total = 0.0;
  for (std::size_t r = 1; r <= zipf.ranks(); ++r) {
    EXPECT_GT(zipf.pmf(r), 0.0);
    if (r > 1) EXPECT_LT(zipf.pmf(r), zipf.pmf(r - 1));
    total += zipf.pmf(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(zipf.pmf(0), 0.0);
  EXPECT_EQ(zipf.pmf(17), 0.0);
}

TEST(ZipfSamplerTest, SampleConsumesExactlyOneDraw) {
  // The one-draw-per-sample contract is what keeps interleaved samplers on
  // derived seeds reproducible; a rejection loop would break it silently.
  Rng a(123), b(123);
  ZipfSampler zipf(32, 0.9);
  for (int i = 0; i < 100; ++i) {
    zipf.sample(a);
    b.next_double();
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(PoissonProcessTest, PinnedReferenceVector) {
  Rng rng(derive_seed(0xF1EE7, 1));
  ASSERT_EQ(derive_seed(0xF1EE7, 1), 0x3ca1419009548005ULL);
  PoissonProcess proc(2000.0);
  const long long expected_ns[] = {1163576, 1390298, 1677705,
                                   2028820, 3482015, 3723761};
  for (long long want : expected_ns) {
    EXPECT_EQ(static_cast<long long>(proc.next(rng) * 1e9), want);
  }
}

TEST(PoissonProcessTest, ArrivalsStrictlyIncreaseAtMeanRate) {
  Rng rng(7);
  PoissonProcess proc(1000.0, 0.5);
  double prev = 0.5;
  const int n = 20000;
  double last = 0.0;
  for (int i = 0; i < n; ++i) {
    last = proc.next(rng);
    EXPECT_GT(last, prev);
    prev = last;
  }
  // n arrivals at 1000/s from t=0.5 should land near t = 0.5 + n/1000.
  EXPECT_NEAR(last, 0.5 + n / 1000.0, 0.5);
}

// ---------------------------------------------------------------------------
// AtomicBitmap
// ---------------------------------------------------------------------------

TEST(AtomicBitmapTest, SetAndCheckReportsTransition) {
  AtomicBitmap bm(128);
  EXPECT_TRUE(bm.set_and_check(5));
  EXPECT_FALSE(bm.set_and_check(5));
  EXPECT_TRUE(bm.test(5));
  EXPECT_EQ(bm.popcount(), 1u);
}

TEST(AtomicBitmapTest, RangeAllSet) {
  AtomicBitmap bm(256);
  for (std::size_t i = 64; i < 80; ++i) bm.set_and_check(i);
  EXPECT_TRUE(bm.range_all_set(64, 16));
  EXPECT_FALSE(bm.range_all_set(64, 17));
  EXPECT_FALSE(bm.range_all_set(63, 2));
  // Range straddling a word boundary.
  for (std::size_t i = 120; i < 136; ++i) bm.set_and_check(i);
  EXPECT_TRUE(bm.range_all_set(120, 16));
}

TEST(AtomicBitmapTest, ConcurrentSettersEachBitWonOnce) {
  constexpr std::size_t kBits = 4096;
  AtomicBitmap bm(kBits);
  std::atomic<std::uint64_t> wins{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bm, &wins] {
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < kBits; ++i) {
        if (bm.set_and_check(i)) ++local;
      }
      wins += local;
    });
  }
  for (auto& t : threads) t.join();
  // Every bit set exactly once across all threads.
  EXPECT_EQ(wins.load(), kBits);
  EXPECT_EQ(bm.popcount(), kBits);
}

TEST(AtomicBitmapTest, WordLayoutIsPlainUint64) {
  static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));
  static_assert(alignof(std::atomic<std::uint64_t>) == alignof(std::uint64_t));
  AtomicBitmap bm(64);
  bm.set_and_check(3);
  EXPECT_EQ(bm.load_word(0), 8u);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, MeanAndCount) {
  Histogram h(1e-6, 1e3);
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(HistogramTest, PercentileRelativeErrorBounded) {
  Histogram h(1e-6, 1e3);
  Rng rng(31);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.exponential(1.0) + 0.01;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = values[static_cast<std::size_t>(
        pct / 100.0 * (values.size() - 1))];
    EXPECT_NEAR(h.percentile(pct), exact, exact * 0.05)
        << "percentile " << pct;
  }
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Histogram a(1e-6, 1e3), b(1e-6, 1e3), combined(1e-6, 1e3);
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.exponential(2.0) + 1e-3;
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-12);
  EXPECT_DOUBLE_EQ(a.percentile(99), combined.percentile(99));
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(1e-3, 1e3);
  h.record(1e-9);
  h.record(1e9);
  EXPECT_EQ(h.count(), 2u);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.record(1.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// ---------------------------------------------------------------------------
// RunningStats
// ---------------------------------------------------------------------------

TEST(RunningStatsTest, WelfordMatchesDirect) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 4.0, 9.0, 16.0, 25.0};
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 11.0);
  // Sample variance: sum of squared deviations 374 over n-1 = 4.
  EXPECT_NEAR(s.variance(), 93.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 25.0);
}

TEST(RunningStatsTest, MergePreservesMoments) {
  RunningStats a, b, all;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal() * 3.0 + 10.0;
    (i < 400 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

// ---------------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------------

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(TextTableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 3), "3.14");
  EXPECT_EQ(TextTable::sci(0.000123, 1), "1.2e-04");
}

}  // namespace
}  // namespace sdr

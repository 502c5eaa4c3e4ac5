// sdrcheck harness self-tests.
//
// Locks in the contracts the CI fuzz jobs rely on:
//  * seed -> scenario mapping is pinned (a CI seed replays bit-for-bit
//    locally; the underlying xoshiro256** vectors are pinned in
//    common_test),
//  * the shrink ladder is deterministic and monotone,
//  * the CI smoke batch keeps covering a lost CTS,
//  * a 200-seed smoke batch passes every oracle (the tier-1 gate), and so
//    do three EC seeds whose fallback outlived a fixed age deadline and an
//    RC seed that posts two messages in the same nanosecond,
//  * serial and parallel sweeps produce byte-identical records and the
//    same batch digest,
//  * an intentionally injected protocol bug (off-by-one in the SR bitmap
//    ACK's cumulative field, armed via a failpoint) is caught by the
//    oracles and shrunk to a small repro, one seed at a time and through
//    the batch path,
//  * an instrumentation hook stamping a stale sim time (failpoint in
//    telemetry::emit) fails the event-order oracle of every arm,
//  * repeated runs do not grow live heap allocations (leak oracle on the
//    harness itself, same global operator-new hook as datapath_alloc_test
//    but tracking live count rather than allocation count).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

// ---------------------------------------------------------------------------
// Global live-allocation counter. gtest and the harness allocate freely;
// tests only compare snapshots around identical repeated runs.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::int64_t> g_live{0};
}  // namespace

void* operator new(std::size_t n) {
  g_live.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_live.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) & ~(align - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
// Nothrow variants must be replaced too: std::stable_sort's temporary
// buffer allocates through nothrow new, and under ASan the unreplaced
// interceptor would pair with our free-based delete as a mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_live.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  g_live.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  return std::aligned_alloc(align, (n + align - 1) & ~(align - 1));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t& t) noexcept {
  return ::operator new(n, a, t);
}
void operator delete(void* p) noexcept {
  if (p) g_live.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace sdr::check {
namespace {

// Base seed shared with the CI smoke job (the CLI default).
constexpr std::uint64_t kSmokeBaseSeed = 0x5EED5EED5EED5EEDULL;

TEST(Scenario, SeedMappingIsPinned) {
  // Golden pin of generate_scenario(1): any change to the generator's draw
  // order or the RNG breaks seed reproducibility for recorded CI failures
  // and must be a conscious, version-noted decision.
  const Scenario s = generate_scenario(1);
  EXPECT_DOUBLE_EQ(s.bandwidth_bps, 400 * Gbps);
  EXPECT_EQ(s.mtu, 512u);
  EXPECT_EQ(s.packets_per_chunk, 1u);
  ASSERT_EQ(s.messages.size(), 2u);
  EXPECT_EQ(s.messages[0].chunks, 7u);
  EXPECT_EQ(s.messages[1].chunks, 23u);
  EXPECT_EQ(s.drop, DropKind::kIid);
  EXPECT_NEAR(s.iid_p, 0.04013, 1e-4);
  EXPECT_EQ(s.sr_flavor, SrFlavor::kNack);
  EXPECT_FALSE(s.adaptive_rto);
  EXPECT_EQ(s.ec_k, 4u);
  EXPECT_EQ(s.ec_m, 2u);
  EXPECT_TRUE(s.rc_go_back_n);
  EXPECT_TRUE(s.perturb_rto);
}

TEST(Scenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {0ull, 7ull, 42ull, 0xDEADBEEFull}) {
    EXPECT_EQ(generate_scenario(seed).describe(),
              generate_scenario(seed).describe())
        << "seed " << seed;
  }
}

TEST(Scenario, SmokeBatchCoversALostCts) {
  // CI's 200-seed smoke (the CLI's default base seed) must keep exercising
  // the receivers' CTS retry: at least one of its seeds drops the first CTS
  // in the SR and EC arms, which always run.
  std::size_t lost = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    if (generate_scenario(derive_seed(kSmokeBaseSeed, i)).drop_first_cts) {
      ++lost;
    }
  }
  EXPECT_GE(lost, 1u);
}

TEST(Scenario, ShrinkLadderIsDeterministicAndMonotone) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Scenario full = generate_scenario(seed);
    std::size_t prev_msgs = full.messages.size() + 1;
    std::size_t prev_chunks = full.total_chunks() + 1;
    bool reached_fixpoint = false;
    for (int level = 0; level <= 32; ++level) {
      const Scenario a = shrink_scenario(full, level);
      const Scenario b = shrink_scenario(full, level);
      ASSERT_EQ(a.describe(), b.describe()) << "seed " << seed;
      ASSERT_LE(a.messages.size(), prev_msgs);
      ASSERT_LE(a.total_chunks(), prev_chunks);
      if (a.drop == DropKind::kScripted) {
        ASSERT_GE(a.scripted_drops.size(), 1u) << "seed " << seed;
        for (const std::uint64_t idx : a.scripted_drops) {
          ASSERT_LT(idx, a.total_data_packets()) << "seed " << seed;
        }
      }
      prev_msgs = a.messages.size();
      prev_chunks = a.total_chunks();
      if (fully_shrunk(a)) {
        reached_fixpoint = true;
        // Fully shrunk means a single 1-chunk message.
        ASSERT_EQ(a.messages.size(), 1u);
        ASSERT_EQ(a.messages[0].chunks, 1u);
        break;
      }
    }
    ASSERT_TRUE(reached_fixpoint) << "seed " << seed;
  }
}

TEST(Sdrcheck, SingleSeedPassesAllOracles) {
  const CheckOptions opts;
  const SeedReport report = check_seed(1, opts);
  EXPECT_TRUE(report.ok()) << report.failure_text();
  ASSERT_EQ(report.arms.size(), 3u);
}

TEST(Sdrcheck, Smoke200Seeds) {
  const CheckOptions opts;
  const BatchResult batch = check_seeds(kSmokeBaseSeed, 200, opts, 2);
  EXPECT_TRUE(batch.ok());
  for (const ShrinkOutcome& shrunk : batch.shrunk) {
    ADD_FAILURE() << "seed " << shrunk.minimal.seed << " failed ("
                  << shrunk.repro
                  << "):\n" << shrunk.minimal.failure_text();
  }
}

TEST(Sdrcheck, EcFallbackStillDeliveringIsNotAborted) {
  // EC scenarios whose fallback keeps delivering through long silences: a
  // fixed age deadline of 50 x (FTO + RTT) from posting aborts each of
  // them. The receiver may give up only after 16 FTO rounds without a
  // chunk event, its FTO backing off like the fallback's retransmissions:
  //  * 991895729363678414 (i.i.d. loss at p = 0.153, a lost first CTS):
  //    under the age deadline its last chunk event came 206 RTT before the
  //    abort;
  //  * 17410433477455799015 (Gilbert-Elliott bursts) still fails when the
  //    limit is 8 silent rounds;
  //  * 6057450402646351457 runs i.i.d. loss at p = 0.146.
  const CheckOptions opts;
  for (const std::uint64_t seed :
       {991895729363678414ULL, 17410433477455799015ULL,
        6057450402646351457ULL}) {
    const SeedReport report = check_seed(seed, opts);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n"
                             << report.failure_text();
  }
}

TEST(Sdrcheck, RcPostOrderIsTheSimulatorsOrder) {
  // Seed 5378980722004018287 (from base 12345) posts wr 5 and wr 6 at the
  // same nanosecond; wr 6's post delay is the smaller double. The
  // simulator posts at the rounded time in schedule order, wr 5 first, and
  // the RC arm's CQE-order oracle must expect the same.
  const SeedReport report = check_seed(5378980722004018287ULL, CheckOptions{});
  EXPECT_TRUE(report.ok()) << report.failure_text();
}

TEST(Sdrcheck, SerialAndParallelSweepsAreIdentical) {
  const CheckOptions opts;
  const BatchResult serial = check_seeds(kSmokeBaseSeed, 40, opts, 1);
  const BatchResult parallel = check_seeds(kSmokeBaseSeed, 40, opts, 4);
  EXPECT_TRUE(serial.ok());
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  ASSERT_EQ(serial.digests.size(), 40u);
  EXPECT_EQ(serial.digests, parallel.digests);
  EXPECT_EQ(serial.digest(), parallel.digest());
}

TEST(Sdrcheck, ReproCommandFormat) {
  EXPECT_EQ(repro_command(17, 0), "sdrcheck --seed=17");
  EXPECT_EQ(repro_command(17, 3), "sdrcheck --seed=17 --shrink-level=3");
}

TEST(Sdrcheck, FlightAndSpanCapturesMergePerArm) {
  CheckOptions opts;  // capture_flight defaults on
  opts.capture_spans = true;
  const SeedReport report = check_seed(1, opts);
  ASSERT_TRUE(report.ok()) << report.failure_text();
  ASSERT_EQ(report.arms.size(), 3u);

  // Every arm filled both postmortem channels.
  for (const ArmResult& arm : report.arms) {
    EXPECT_FALSE(arm.flight_json.empty()) << arm.name;
    EXPECT_FALSE(arm.chrome_events.empty()) << arm.name;
  }

  // The merged flight dump names the seed and every arm.
  const std::string flight = report.flight_json();
  EXPECT_NE(flight.find("\"seed\":1"), std::string::npos);
  for (const ArmResult& arm : report.arms) {
    EXPECT_NE(flight.find("\"arm\":\"" + arm.name + "\""), std::string::npos);
  }

  // The merged Chrome document wraps all arms' events; per-arm pid bases
  // keep their metadata rows distinct.
  const std::string chrome = report.chrome_json();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"pid\":8"), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":16"), std::string::npos);

  // Off by default: the plain path records no spans.
  const SeedReport plain = check_seed(1, CheckOptions{});
  for (const ArmResult& arm : plain.arms) {
    EXPECT_TRUE(arm.chrome_events.empty()) << arm.name;
  }
  EXPECT_TRUE(plain.chrome_json().empty());
}

/// Whether a scenario exposes the SR cumulative-ACK bug: plain RTO flavor
/// (NACK recovery would re-request the skipped chunk and mask it) with a
/// deterministic scripted drop (so the ACK path observes a hole in the
/// bitmap).
bool exposes_ack_off_by_one(const Scenario& s) {
  return s.sr_flavor == SrFlavor::kRto && !s.adaptive_rto &&
         s.drop == DropKind::kScripted;
}

/// First seed >= `from` whose scenario exposes the SR cumulative-ACK bug.
std::uint64_t find_sr_rto_scripted_seed(std::uint64_t from) {
  for (std::uint64_t seed = from; seed < from + 4096; ++seed) {
    if (exposes_ack_off_by_one(generate_scenario(seed))) return seed;
  }
  ADD_FAILURE() << "no SR-RTO + scripted-drop seed in range";
  return from;
}

TEST(Sdrcheck, InjectedAckOffByOneIsCaughtAndShrunk) {
  const std::uint64_t seed = find_sr_rto_scripted_seed(100);
  const CheckOptions opts;

  // Sanity: the seed passes with the failpoint disarmed.
  ASSERT_TRUE(check_seed(seed, opts).ok());

  common::ScopedFailpoint fp("sr.ack_cumulative_off_by_one");
  const SeedReport broken = check_seed(seed, opts);
  ASSERT_FALSE(broken.ok())
      << "injected off-by-one went undetected for seed " << seed;
  EXPECT_GT(common::failpoint_hits("sr.ack_cumulative_off_by_one"), 0u);

  const ShrinkOutcome shrunk = shrink_failure(seed, opts);
  ASSERT_FALSE(shrunk.minimal.ok());
  // Acceptance bar: minimized to a tiny scenario with a one-line repro.
  EXPECT_LE(shrunk.minimal.scenario.messages.size(), 2u);
  EXPECT_LE(shrunk.minimal.scenario.scripted_drops.size(), 4u);
  EXPECT_EQ(shrunk.repro, repro_command(seed, shrunk.level));
  // The minimal report carries flight-recorder postmortem data (the CLI
  // dumps it next to the repro line). The ring's last-N window tells the
  // stall story directly: the off-by-one leaves the sender one packet
  // short forever, so the tail of the ring is a loop of duplicate ACKs
  // for the same cumulative edge, with the early write/ack records long
  // since overwritten.
  const std::string flight = shrunk.minimal.flight_json();
  EXPECT_NE(flight.find("\"arm\":\"sr_"), std::string::npos) << flight;
  EXPECT_NE(flight.find("\"what\":\"ack_sent\""), std::string::npos) << flight;
  EXPECT_NE(flight.find("\"overwritten\":"), std::string::npos) << flight;

  // The repro command's (seed, level) pair replays the same failure.
  const SeedReport replay = check_seed(seed, opts, shrunk.level);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.scenario.describe(), shrunk.minimal.scenario.describe());
}

TEST(Sdrcheck, BatchCountsListsAndShrinksAFailingSeed) {
  // With the off-by-one armed, base 97's first seed fails and its second
  // passes, so a batch of both crosses the failing-seed path: the seed's
  // record counts the report's failure lines, the seed is listed and its
  // shrunk repro is kept. Runs at jobs = 1: failpoints are thread-local.
  constexpr std::uint64_t kBase = 97;
  const std::uint64_t seed = derive_seed(kBase, 0);
  ASSERT_TRUE(exposes_ack_off_by_one(generate_scenario(seed)));
  const CheckOptions opts;
  common::ScopedFailpoint fp("sr.ack_cumulative_off_by_one");
  const BatchResult batch = check_seeds(kBase, 2, opts, 1);

  ASSERT_EQ(batch.failing_seeds, std::vector<std::uint64_t>{seed});
  const std::string text = check_seed(seed, opts).failure_text();
  const auto lines = std::count(text.begin(), text.end(), '\n');
  ASSERT_GT(lines, 0);
  const std::string record = batch.jsonl.substr(0, batch.jsonl.find('\n'));
  EXPECT_NE(record.find("\"oracle_failures\":" + std::to_string(lines) + ","),
            std::string::npos)
      << record;

  ASSERT_EQ(batch.shrunk.size(), 1u);
  const ShrinkOutcome& shrunk = batch.shrunk[0];
  EXPECT_EQ(shrunk.minimal.seed, seed);
  EXPECT_FALSE(shrunk.minimal.ok());
  EXPECT_EQ(shrunk.repro, repro_command(seed, shrunk.level));
}

TEST(Sdrcheck, StaleEventTimeIsAnOracleFailure) {
  CheckOptions opts;
  opts.capture_flight = false;  // the event stream runs regardless
  common::ScopedFailpoint fp("telemetry.stale_event_time");
  const SeedReport report = check_seed(1, opts);
  EXPECT_GT(common::failpoint_hits("telemetry.stale_event_time"), 0u);
  ASSERT_EQ(report.arms.size(), 3u);
  for (const ArmResult& arm : report.arms) {
    ASSERT_FALSE(arm.ok()) << arm.name;
    EXPECT_NE(arm.failures.back().find("event timestamps regressed"),
              std::string::npos)
        << arm.name << ": " << arm.failures.back();
  }
}

TEST(Sdrcheck, RepeatedRunsDoNotLeak) {
  const CheckOptions opts;
  // Warm thread-local pools (payload pool, telemetry instances, allocator
  // caches) before snapshotting. The bound is <=, not ==: runtimes may
  // still release a lazily-cached internal allocation on a later run
  // (observed under TSan), which is the opposite of a leak.
  ASSERT_TRUE(check_seed(3, opts).ok());
  const std::int64_t after_first = g_live.load(std::memory_order_relaxed);
  ASSERT_TRUE(check_seed(3, opts).ok());
  const std::int64_t after_second = g_live.load(std::memory_order_relaxed);
  EXPECT_LE(after_second, after_first)
      << "live allocation count grew across identical runs";
}

}  // namespace
}  // namespace sdr::check

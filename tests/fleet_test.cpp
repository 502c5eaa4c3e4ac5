// Tests for the fleet scenario engine (src/fleet/): plan determinism,
// run_fleet purity (serial == threaded digest equality, the property the
// bench's --jobs=N sweep relies on), completion accounting and quiesce for
// every scheme, and seed sensitivity.
#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/traffic.hpp"

namespace sdr::fleet {
namespace {

// Small but non-trivial: 2 DCs x 8 endpoints, both tenant shapes, the ring
// collective, NIC model on — every subsystem exercised, runs in well under
// a second.
FleetConfig small_config(Scheme scheme) {
  FleetConfig cfg = FleetConfig::defaults();
  cfg.dcs = 2;
  cfg.endpoints_per_dc = 8;
  cfg.messages_per_connection = 6;
  cfg.collective_iterations = 1;
  cfg.scheme = scheme;
  cfg.distance_km = 500.0;
  cfg.p_drop = 1e-3;
  cfg.seed = 0xF1EE7;
  return cfg;
}

// Every tenant posted its whole plan, apart from collective steps behind a
// failed step.
void expect_plans_posted(const FleetResult& r) {
  for (const TenantResult& t : r.tenants) {
    if (t.name == "collective" && t.failed > 0) continue;
    EXPECT_EQ(t.posted, t.planned) << t.name;
  }
}

// ---------------------------------------------------------------------------
// Traffic plans
// ---------------------------------------------------------------------------

TEST(TrafficPlanTest, DeterministicPerConnectionAndUncorrelated) {
  TenantTraffic tenant;
  tenant.msgs_per_s = 5000.0;
  tenant.base_msg_bytes = 4096;
  tenant.size_ranks = 4;

  const auto a0 = plan_messages(tenant, 32, 99, 0);
  const auto a0_again = plan_messages(tenant, 32, 99, 0);
  const auto a1 = plan_messages(tenant, 32, 99, 1);
  ASSERT_EQ(a0.size(), 32u);
  for (std::size_t i = 0; i < a0.size(); ++i) {
    EXPECT_EQ(a0[i].arrival_ns, a0_again[i].arrival_ns);
    EXPECT_EQ(a0[i].bytes, a0_again[i].bytes);
    if (i > 0) EXPECT_GT(a0[i].arrival_ns, a0[i - 1].arrival_ns);
  }
  // Different connection index => a different (derived-seed) schedule.
  bool differs = false;
  for (std::size_t i = 0; i < a0.size(); ++i) {
    if (a0[i].arrival_ns != a1[i].arrival_ns || a0[i].bytes != a1[i].bytes) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// run_fleet purity and accounting
// ---------------------------------------------------------------------------

class FleetSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(FleetSchemeTest, CompletesAccountsAndQuiesces) {
  const FleetResult r = run_fleet(small_config(GetParam()));
  EXPECT_EQ(r.endpoints, 16u);
  EXPECT_GT(r.messages_posted, 0u);
  EXPECT_EQ(r.messages_completed, r.messages_posted);
  EXPECT_EQ(r.messages_failed, 0u);
  EXPECT_TRUE(r.quiesced);
  expect_plans_posted(r);
  EXPECT_EQ(r.payload_live_slots, 0u);
  EXPECT_GT(r.peak_concurrent, 0u);
  EXPECT_GT(r.fleet_goodput_gbps, 0.0);
  EXPECT_GT(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.0 + 1e-12);
  EXPECT_EQ(r.unknown_qp_packets, 0u);
  EXPECT_EQ(r.unroutable_packets, 0u);
  // Tenant rollups partition the totals.
  std::uint64_t posted = 0, completed = 0, bytes = 0;
  for (const auto& t : r.tenants) {
    posted += t.posted;
    completed += t.completed;
    bytes += t.useful_bytes;
  }
  EXPECT_EQ(posted, r.messages_posted);
  EXPECT_EQ(completed, r.messages_completed);
  EXPECT_EQ(bytes, r.useful_bytes);  // per-tenant byte conservation
}

TEST_P(FleetSchemeTest, SerialEqualsThreadedDigest) {
  // The bench's --jobs=N bit-identity reduces to exactly this: run_fleet is
  // pure in its config, so a worker thread must reproduce the main thread's
  // digest and every counter.
  const FleetConfig cfg = small_config(GetParam());
  const FleetResult serial = run_fleet(cfg);
  auto task = std::async(std::launch::async, [&cfg] { return run_fleet(cfg); });
  const FleetResult threaded = task.get();
  EXPECT_EQ(serial.digest, threaded.digest);
  EXPECT_EQ(serial.messages_posted, threaded.messages_posted);
  EXPECT_EQ(serial.messages_completed, threaded.messages_completed);
  EXPECT_EQ(serial.useful_bytes, threaded.useful_bytes);
  EXPECT_EQ(serial.peak_concurrent, threaded.peak_concurrent);
  EXPECT_EQ(serial.retransmissions, threaded.retransmissions);
  EXPECT_EQ(serial.trunk_drops, threaded.trunk_drops);
  EXPECT_DOUBLE_EQ(serial.p999_ms, threaded.p999_ms);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FleetSchemeTest,
                         ::testing::Values(Scheme::kSr, Scheme::kEc,
                                           Scheme::kRc),
                         [](const auto& info) {
                           return std::string(scheme_name(info.param));
                         });

// The fleet digests are part of the behaviour contract: a change that keeps
// the protocols' observable behaviour must reproduce these exactly. They pin
// what the run did (completion order and times, retransmissions, drops), so
// a mismatch means protocol behaviour moved, not just its cost.
struct PinnedFleet {
  Scheme scheme;
  double p_drop;
  std::uint64_t digest;
  std::uint64_t messages_posted;
  std::uint64_t useful_bytes;
  std::uint64_t peak_concurrent;
  std::uint64_t retransmissions;
  std::uint64_t trunk_drops;
};

TEST(FleetTest, SmallConfigDigestsArePinned) {
  // At 1e-2 EC enters fallback: its NACKs resend 4 submessages (k = 4).
  const PinnedFleet pins[] = {
      {Scheme::kSr, 1e-3, 8574275227379836412ULL, 88, 4276224, 68, 0, 0},
      {Scheme::kEc, 1e-3, 872193408448404647ULL, 88, 4276224, 68, 0, 3},
      {Scheme::kEc, 1e-2, 3961119905505182158ULL, 88, 4276224, 68, 16, 28},
      {Scheme::kRc, 1e-3, 10631157728260879080ULL, 88, 4276224, 61, 0, 0},
  };
  for (const PinnedFleet& pin : pins) {
    FleetConfig cfg = small_config(pin.scheme);
    cfg.p_drop = pin.p_drop;
    const FleetResult r = run_fleet(cfg);
    SCOPED_TRACE(std::string(scheme_name(pin.scheme)) + " p_drop " +
                 std::to_string(pin.p_drop));
    EXPECT_EQ(r.digest, pin.digest);
    EXPECT_EQ(r.messages_posted, pin.messages_posted);
    EXPECT_EQ(r.messages_completed, pin.messages_posted);
    EXPECT_EQ(r.messages_failed, 0u);
    EXPECT_EQ(r.useful_bytes, pin.useful_bytes);
    EXPECT_EQ(r.peak_concurrent, pin.peak_concurrent);
    EXPECT_EQ(r.retransmissions, pin.retransmissions);
    EXPECT_EQ(r.trunk_drops, pin.trunk_drops);
  }
}

TEST(FleetTest, DifferentSeedsDifferentDigests) {
  FleetConfig a = small_config(Scheme::kSr);
  FleetConfig b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(run_fleet(a).digest, run_fleet(b).digest);
}

TEST(FleetTest, TotalLossAccountsEveryMessageAsFailed) {
  // Nothing crosses a trunk: every EC receiver gives up after 16 silent
  // fallback-timeout rounds, and each message must end visibly failed
  // (never stuck) while the fleet still drains. Every sender gives up on
  // its silent receiver too, so its window slot frees and every tenant
  // message posts; only collective steps behind a failed step never post.
  FleetConfig cfg = small_config(Scheme::kEc);
  cfg.p_drop = 1.0;
  const FleetResult r = run_fleet(cfg);
  EXPECT_EQ(r.messages_posted, 86u);
  EXPECT_EQ(r.messages_completed, 0u);
  EXPECT_EQ(r.messages_failed, 86u);
  EXPECT_TRUE(r.quiesced);
  expect_plans_posted(r);
  std::uint64_t failed = 0;
  for (const auto& t : r.tenants) failed += t.failed;
  EXPECT_EQ(failed, r.messages_failed);
}

TEST(FleetTest, SrAndEcCompleteEveryMessageUnderHeavyLoss) {
  // A fleet loss gate: trunk loss up to 0.4 drops data, parity, CTSes,
  // ACKs and NACKs alike, and SR's retransmissions and EC's fallback must
  // still deliver every planned message. A receiver that gives up while
  // the fallback is moving shows as a failed message and, behind it,
  // collective steps that never post. A sender whose final ACK was lost
  // hears it again from the receiver's answer to a late copy, so the
  // fleet drains.
  for (const Scheme scheme : {Scheme::kSr, Scheme::kEc}) {
    for (const double p_drop : {0.1, 0.2, 0.3, 0.4}) {
      for (const std::uint64_t offset : {1, 4, 7}) {
        FleetConfig cfg = small_config(scheme);
        cfg.p_drop = p_drop;
        cfg.seed += offset;
        const FleetResult r = run_fleet(cfg);
        SCOPED_TRACE(std::string(scheme_name(scheme)) + " p_drop " +
                     std::to_string(p_drop) + " seed +" +
                     std::to_string(offset));
        EXPECT_EQ(r.messages_posted, 88u);
        EXPECT_EQ(r.messages_completed, r.messages_posted);
        EXPECT_EQ(r.messages_failed, 0u);
        EXPECT_TRUE(r.quiesced);
        expect_plans_posted(r);
      }
    }
  }
}

TEST(FleetTest, LossyLongHaulStillCompletesEverything) {
  // The regime that historically wedged: long RTT + real loss means lost
  // CTS datagrams and fallback recovery; the CTS retry must save every
  // message without the horizon safety net.
  for (const Scheme scheme : {Scheme::kSr, Scheme::kEc}) {
    FleetConfig cfg = small_config(scheme);
    cfg.distance_km = 3750.0;
    cfg.p_drop = 1e-3;
    const FleetResult r = run_fleet(cfg);
    EXPECT_EQ(r.messages_completed, r.messages_posted)
        << scheme_name(scheme);
    EXPECT_EQ(r.messages_failed, 0u) << scheme_name(scheme);
    EXPECT_TRUE(r.quiesced) << scheme_name(scheme);
  }
}

}  // namespace
}  // namespace sdr::fleet

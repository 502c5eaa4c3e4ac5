#include "check/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "ec/gf256_kernels.hpp"
#include "ec/reed_solomon.hpp"
#include "fleet/fleet.hpp"
#include "model/link_params.hpp"
#include "model/protocols.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/span.hpp"

namespace sdr::check {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001B3ULL;

// Upper bound on shrink-ladder steps explored by shrink_failure().
constexpr int kMaxShrinkLevel = 16;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// The analytic model covers a narrow slice of the scenario space; gate the
/// oracle on exactly that slice so every reported violation is real.
bool model_oracle_applies(const Scenario& s) {
  return s.messages.size() == 1 &&
         (s.drop == DropKind::kClean || s.drop == DropKind::kIid) &&
         s.reorder_probability == 0.0 && s.duplicate_probability == 0.0 &&
         !s.perturb_rto && !s.adaptive_rto;
}

void run_model_oracle(const Scenario& s, const ArmResult& sr,
                      std::vector<std::string>* failures) {
  if (!sr.ok() || sr.done_at_s.empty() || sr.done_at_s[0] < 0.0) {
    return;  // completion oracle already fired; don't double-report
  }
  model::LinkParams link;
  link.bandwidth_bps = s.bandwidth_bps;
  link.rtt_s = s.rtt_s();
  // Scenario loss is per packet; the model wants per chunk.
  const double p_pkt = s.drop == DropKind::kIid ? s.iid_p : 0.0;
  link.p_drop =
      1.0 - std::pow(1.0 - p_pkt, static_cast<double>(s.packets_per_chunk));
  link.chunk_bytes = s.chunk_bytes();

  model::SchemeParams params;
  params.sr = model::SrConfig{s.rto_rtt_multiple};
  const model::Scheme scheme = s.sr_flavor == SrFlavor::kNack
                                   ? model::Scheme::kSrNack
                                   : model::Scheme::kSrRto;
  const double expected = model::expected_completion_s(
      scheme, link, s.messages[0].chunks, params);
  const double measured = sr.done_at_s[0] - s.messages[0].post_delay_s;
  // The sim pays real costs the model abstracts away (ACK cadence, chunk
  // injection backlog under a packet-level drop process, RTO floors), so
  // the band is wide: the oracle exists to catch order-of-magnitude
  // divergence (a wedged retransmit loop, a free lunch), not to validate
  // the model's constants.
  const double upper = 16.0 * expected + 8.0 * s.rtt_s() + 1e-3;
  const double floor =
      0.25 * injection_time_s(s.message_bytes(0), s.bandwidth_bps);
  if (measured > upper) {
    failures->push_back(
        "model oracle: SR completion " + std::to_string(measured) +
        "s exceeds " + std::to_string(upper) + "s (analytic expectation " +
        std::to_string(expected) + "s)");
  } else if (measured < floor) {
    failures->push_back(
        "model oracle: SR completion " + std::to_string(measured) +
        "s is below the injection floor " + std::to_string(floor) +
        "s — data cannot have traversed the link");
  }
}

void run_differential_oracle(const std::vector<ArmResult>& arms,
                             std::vector<std::string>* failures) {
  const ArmResult* reference = nullptr;
  for (const ArmResult& arm : arms) {
    if (!arm.ok()) continue;  // its own oracles already flag it
    if (reference == nullptr) {
      reference = &arm;
      continue;
    }
    if (arm.received.size() != reference->received.size()) {
      failures->push_back("differential oracle: " + arm.name +
                          " delivered " + std::to_string(arm.received.size()) +
                          " bytes but " + reference->name + " delivered " +
                          std::to_string(reference->received.size()));
      continue;
    }
    for (std::size_t i = 0; i < arm.received.size(); ++i) {
      if (arm.received[i] != reference->received[i]) {
        failures->push_back(
            "differential oracle: " + arm.name + " and " + reference->name +
            " delivered different bytes at offset " + std::to_string(i));
        break;
      }
    }
  }
}

/// GF(256) kernel oracle: re-encode the scenario's first submessage worth
/// of payload with the scenario's RS(ec_k, ec_m) geometry under the
/// forced-scalar kernel set and under the dispatched (best-ISA) set, and
/// require byte-identical parity; then erase the maximum m blocks and
/// require both kernel sets to reconstruct the original bytes. Runs on the
/// explicit per-ISA kernel tables (gf_kernels_for), never the process-wide
/// dispatch switch, so parallel seed batches stay race-free.
void run_ec_kernel_oracle(const Scenario& s, std::uint64_t seed,
                          std::vector<std::string>* failures) {
  const std::size_t k = s.ec_k;
  const std::size_t m = s.ec_m;
  const std::size_t block = s.chunk_bytes();
  if (k == 0 || m == 0 || k + m > 256 || block == 0) return;
  const ec::GfKernels* scalar = ec::gf_kernels_for(ec::GfIsa::kScalar);
  const ec::GfKernels& active = ec::gf_kernels();
  if (scalar == nullptr) return;

  const ec::ReedSolomon rs(k, m);
  const std::vector<std::uint8_t> payload =
      message_pattern(seed, 0, k * block);
  std::vector<const std::uint8_t*> data(k);
  for (std::size_t i = 0; i < k; ++i) data[i] = &payload[i * block];

  std::vector<std::uint8_t> parity_scalar(m * block, 0x5C);
  std::vector<std::uint8_t> parity_active(m * block, 0xC5);
  std::vector<std::uint8_t*> ptrs(m);
  for (std::size_t i = 0; i < m; ++i) ptrs[i] = &parity_scalar[i * block];
  rs.encode_with(*scalar, std::span<const std::uint8_t* const>(data),
                 std::span<std::uint8_t* const>(ptrs), block);
  for (std::size_t i = 0; i < m; ++i) ptrs[i] = &parity_active[i * block];
  rs.encode_with(active, std::span<const std::uint8_t* const>(data),
                 std::span<std::uint8_t* const>(ptrs), block);
  if (parity_scalar != parity_active) {
    failures->push_back(
        "gf256 kernel oracle: RS(" + std::to_string(k) + "," +
        std::to_string(m) + ") parity differs between scalar and " +
        ec::isa_name(active.isa) + " kernels");
    return;
  }

  // Decode check: drop the first m data blocks (the hardest pattern — all
  // erasures land on data) under each kernel set.
  for (const ec::GfKernels* kern : {scalar, &active}) {
    std::vector<std::uint8_t> blocks_flat((k + m) * block);
    std::vector<std::uint8_t*> blocks(k + m);
    ec::PresenceMap present(k + m, true);
    for (std::size_t i = 0; i < k; ++i) {
      blocks[i] = &blocks_flat[i * block];
      std::memcpy(blocks[i], data[i], block);
    }
    for (std::size_t i = 0; i < m; ++i) {
      blocks[k + i] = &blocks_flat[(k + i) * block];
      std::memcpy(blocks[k + i], &parity_scalar[i * block], block);
    }
    for (std::size_t i = 0; i < m && i < k; ++i) {
      std::memset(blocks[i], 0, block);
      present[i] = false;
    }
    if (!rs.decode_with(*kern, std::span<std::uint8_t* const>(blocks),
                        present, block)) {
      failures->push_back(std::string("gf256 kernel oracle: decode failed "
                                      "under ") +
                          ec::isa_name(kern->isa) + " kernels");
      return;
    }
    if (std::memcmp(blocks_flat.data(), payload.data(), k * block) != 0) {
      failures->push_back(std::string("gf256 kernel oracle: recovered data "
                                      "differs from original under ") +
                          ec::isa_name(kern->isa) + " kernels");
      return;
    }
  }
}

/// Domain separator for the fleet run's seed stream (decorrelates the fleet
/// traffic from the point-to-point arms above).
constexpr std::uint64_t kFleetStream = 0xF1EE7CULL;

/// The scenario's forward loss as a single i.i.d. rate the fleet fabric can
/// carry, clamped so the RC baseline cannot retry-storm past the horizon.
double fleet_drop_rate(const Scenario& s) {
  double p = 0.0;
  switch (s.drop) {
    case DropKind::kClean: break;
    case DropKind::kIid: p = s.iid_p; break;
    case DropKind::kGilbertElliott: {
      const double denom = s.ge_p_good_to_bad + s.ge_p_bad_to_good;
      const double frac_bad = denom > 0.0 ? s.ge_p_good_to_bad / denom : 0.0;
      p = (1.0 - frac_bad) * s.ge_loss_good + frac_bad * s.ge_loss_bad;
      break;
    }
    case DropKind::kScripted: p = 1e-4; break;
  }
  return std::min(p, 0.01);
}

/// Fleet-mode oracles: run a small two-DC fleet at the scenario's geometry
/// and loss point and check the invariants no scheme may break — every
/// posted message completes or is accounted as failed, a quiesced fleet
/// posted every planned tenant message, the event queue and payload pool
/// quiesce at the horizon, and the per-tenant rollups conserve the fleet
/// totals.
void run_fleet_oracle(const Scenario& s,
                      std::vector<std::string>* failures) {
  fleet::FleetConfig cfg = fleet::FleetConfig::defaults();
  cfg.dcs = 2;
  cfg.endpoints_per_dc = s.fleet_endpoints_per_dc;
  cfg.messages_per_connection = s.fleet_messages_per_connection;
  cfg.scheme = s.fleet_scheme == 0   ? fleet::Scheme::kSr
               : s.fleet_scheme == 1 ? fleet::Scheme::kEc
                                     : fleet::Scheme::kRc;
  cfg.collective = s.fleet_collective;
  cfg.collective_iterations = 1;
  cfg.distance_km = std::clamp(s.distance_km, 10.0, 5000.0);
  cfg.p_drop = fleet_drop_rate(s);
  cfg.seed = derive_seed(s.seed, kFleetStream);

  const fleet::FleetResult r = fleet::run_fleet(cfg);
  const auto fail = [failures](const std::string& what) {
    failures->push_back("fleet oracle: " + what);
  };

  if (!r.quiesced) fail("event queue did not quiesce before the horizon");
  if (r.payload_live_slots != 0) {
    fail("payload pool leaked " + std::to_string(r.payload_live_slots) +
         " live slots after the run");
  }
  if (r.messages_completed + r.messages_failed > r.messages_posted) {
    fail("completed " + std::to_string(r.messages_completed) + " + failed " +
         std::to_string(r.messages_failed) + " exceeds posted " +
         std::to_string(r.messages_posted));
  }
  // A quiesced fleet has no in-flight work left: everything posted must be
  // accounted as completed or failed (RC give-ups land in neither bucket
  // only while events are still pending, which quiesce rules out).
  if (r.quiesced &&
      r.messages_completed + r.messages_failed != r.messages_posted) {
    fail("quiesced with " +
         std::to_string(r.messages_posted - r.messages_completed -
                        r.messages_failed) +
         " posted messages unaccounted");
  }
  std::uint64_t posted = 0, completed = 0, failed = 0, bytes = 0;
  for (const fleet::TenantResult& t : r.tenants) {
    // Collective steps behind a failed step are never posted.
    if (r.quiesced && t.posted != t.planned &&
        !(t.name == "collective" && t.failed > 0)) {
      fail("quiesced with " + t.name + " at " + std::to_string(t.posted) +
           " of " + std::to_string(t.planned) + " planned messages posted");
    }
    posted += t.posted;
    completed += t.completed;
    failed += t.failed;
    bytes += t.useful_bytes;
  }
  if (posted != r.messages_posted || completed != r.messages_completed ||
      failed != r.messages_failed || bytes != r.useful_bytes) {
    fail("per-tenant rollups do not conserve the fleet totals");
  }
}

}  // namespace

bool SeedReport::ok() const {
  if (!failures.empty()) return false;
  for (const ArmResult& arm : arms) {
    if (!arm.ok()) return false;
  }
  return true;
}

std::string SeedReport::failure_text() const {
  std::string out;
  for (const ArmResult& arm : arms) {
    for (const std::string& f : arm.failures) {
      out += "[" + arm.name + "] " + f + "\n";
    }
  }
  for (const std::string& f : failures) {
    out += "[cross] " + f + "\n";
  }
  return out;
}

std::uint64_t SeedReport::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const ArmResult& arm : arms) {
    h = fnv1a(h, arm.name.data(), arm.name.size());
    h = fnv1a(h, arm.received.data(), arm.received.size());
    for (const double t : arm.done_at_s) {
      // Hash the exact bit pattern: "equivalent" floating point is not
      // good enough for the serial-vs-parallel oracle.
      std::uint64_t bits;
      std::memcpy(&bits, &t, sizeof(bits));
      h = fnv1a(h, &bits, sizeof(bits));
    }
    h = fnv1a(h, &arm.retransmissions, sizeof(arm.retransmissions));
  }
  return h;
}

std::string SeedReport::flight_json() const {
  std::string out;
  for (const ArmResult& arm : arms) {
    if (arm.flight_json.empty()) continue;
    if (!out.empty()) out += ",";
    out += "{\"arm\":\"" + arm.name + "\",\"flight\":" + arm.flight_json + "}";
  }
  if (out.empty()) return out;
  return "{\"seed\":" + std::to_string(seed) +
         ",\"shrink_level\":" + std::to_string(shrink_level) +
         ",\"arms\":[" + out + "]}";
}

std::string SeedReport::chrome_json() const {
  std::string events;
  for (const ArmResult& arm : arms) {
    if (arm.chrome_events.empty()) continue;
    if (!events.empty()) events += ",";
    events += arm.chrome_events;
  }
  if (events.empty()) return events;
  return telemetry::SpanRecorder::wrap_chrome_events(events);
}

std::string repro_command(std::uint64_t seed, int shrink_level) {
  std::string cmd = "sdrcheck --seed=" + std::to_string(seed);
  if (shrink_level > 0) {
    cmd += " --shrink-level=" + std::to_string(shrink_level);
  }
  return cmd;
}

SeedReport check_seed(std::uint64_t seed, const CheckOptions& opts,
                      int shrink_level) {
  SeedReport report;
  report.seed = seed;
  report.shrink_level = shrink_level;
  report.scenario = shrink_scenario(generate_scenario(seed), shrink_level);

  report.arms.push_back(run_sr_arm(report.scenario, opts));
  report.arms.push_back(run_ec_arm(report.scenario, opts));
  report.arms.push_back(run_rc_arm(report.scenario, opts));

  run_differential_oracle(report.arms, &report.failures);
  run_ec_kernel_oracle(report.scenario, seed, &report.failures);
  if (model_oracle_applies(report.scenario)) {
    run_model_oracle(report.scenario, report.arms[0], &report.failures);
  }
  if (report.scenario.fleet_mode) {
    run_fleet_oracle(report.scenario, &report.failures);
  }
  return report;
}

std::uint64_t BatchResult::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t d : digests) h = fnv1a(h, &d, sizeof(d));
  return h;
}

ShrinkOutcome shrink_failure(std::uint64_t seed, const CheckOptions& opts) {
  ShrinkOutcome out;
  out.minimal = check_seed(seed, opts, 0);
  out.level = 0;
  // Greedy ladder walk: stop at the first level that passes (the failure
  // needs whatever that step removed) or stops changing the scenario.
  Scenario prev = out.minimal.scenario;
  for (int level = 1; level <= kMaxShrinkLevel; ++level) {
    const Scenario next = shrink_scenario(generate_scenario(seed), level);
    if (next.describe() == prev.describe()) break;  // ladder fixpoint
    SeedReport candidate = check_seed(seed, opts, level);
    if (candidate.ok()) break;
    out.minimal = std::move(candidate);
    out.level = level;
    prev = next;
  }
  out.repro = repro_command(seed, out.level);
  return out;
}

BatchResult check_seeds(std::uint64_t base_seed, std::size_t count,
                        const CheckOptions& opts, unsigned jobs) {
  BatchResult batch;
  batch.base_seed = base_seed;
  batch.total = count;

  sweep::ParamGrid grid;
  std::vector<std::int64_t> trials(count);
  std::iota(trials.begin(), trials.end(), 0);
  grid.axis_i64("trial", std::move(trials));

  sweep::SweepOptions sopts;
  sopts.jobs = jobs;
  sopts.base_seed = base_seed;
  // The harness arms its own per-arm recorders; sweep-level capture would
  // only add noise (and the jsonl must stay identical across jobs counts).
  sopts.capture_telemetry = false;

  // Each trial writes only its own digest slot, so workers never share
  // an element.
  batch.digests.assign(count, 0);
  const sweep::SweepResult result = sweep::run_sweep(
      grid, sopts, [&opts, &batch](sweep::Trial& trial) {
        const SeedReport report = check_seed(trial.seed(), opts, 0);
        const std::string failures = report.failure_text();
        const std::uint64_t digest = report.digest();
        batch.digests[trial.index()] = digest;
        trial.record("seed", static_cast<std::int64_t>(report.seed));
        trial.record_flag("ok", report.ok());
        trial.record("oracle_failures",
                     static_cast<std::int64_t>(std::count(
                         failures.begin(), failures.end(), '\n')));
        trial.record("digest", static_cast<std::int64_t>(digest));
      });

  batch.jsonl = result.to_jsonl();
  for (const sweep::TrialRecord& rec : result.trials) {
    const sweep::TrialRecord::Value* ok = rec.find("ok");
    const bool passed = rec.ok && ok != nullptr && ok->json == "true";
    if (!passed) {
      batch.failing_seeds.push_back(derive_seed(base_seed, rec.index));
    }
  }
  // Shrinking is serial and after the sweep: it re-runs scenarios many
  // times and must not skew the deterministic batch records.
  for (const std::uint64_t seed : batch.failing_seeds) {
    batch.shrunk.push_back(shrink_failure(seed, opts));
  }
  return batch;
}

}  // namespace sdr::check

#include "check/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sdr::check {

namespace {

// Domain separator for the scenario generator's RNG stream: a harness seed
// never collides with the channel / protocol streams derived from it.
constexpr std::uint64_t kScenarioStream = 0x5D9CC8ECULL;

std::string format_compact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

const char* drop_kind_name(DropKind kind) {
  switch (kind) {
    case DropKind::kClean: return "clean";
    case DropKind::kIid: return "iid";
    case DropKind::kGilbertElliott: return "gilbert_elliott";
    case DropKind::kScripted: return "scripted";
  }
  return "?";
}

double Scenario::rtt_s() const { return ::sdr::rtt_s(distance_km); }

std::size_t Scenario::total_data_packets() const {
  std::size_t packets = 0;
  for (const MessageSpec& m : messages) {
    packets += m.chunks * packets_per_chunk;
  }
  return packets;
}

std::size_t Scenario::total_chunks() const {
  std::size_t chunks = 0;
  for (const MessageSpec& m : messages) chunks += m.chunks;
  return chunks;
}

std::size_t Scenario::message_bytes(std::size_t i) const {
  return messages[i].chunks * chunk_bytes();
}

std::size_t Scenario::ec_padded_chunks(std::size_t i) const {
  const std::size_t c = messages[i].chunks;
  return (c + ec_k - 1) / ec_k * ec_k;
}

double Scenario::horizon_s() const {
  double max_delay = 0.0;
  std::size_t padded_chunks = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    max_delay = std::max(max_delay, messages[i].post_delay_s);
    padded_chunks += ec_padded_chunks(i);
  }
  // EC sends k+m chunks per k data chunks; double again for retransmission
  // headroom, then allow hundreds of RTT/RTO recovery cycles.
  const double inj =
      injection_time_s(4 * padded_chunks * chunk_bytes(), bandwidth_bps);
  const double rto = rto_rtt_multiple * std::max(rtt_s(), 8.0 * injection_time_s(
                                                              chunk_bytes(),
                                                              bandwidth_bps));
  return 1.0 + max_delay + 400.0 * rtt_s() + 100.0 * inj + 200.0 * rto;
}

std::string Scenario::describe() const {
  std::string out;
  out += "bw=" + format_compact(bandwidth_bps / Gbps) + "G";
  out += " dist=" + format_compact(distance_km) + "km";
  out += " mtu=" + std::to_string(mtu);
  out += " chunk=" + std::to_string(chunk_bytes());
  out += " msgs=" + std::to_string(messages.size()) + "[";
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(messages[i].chunks);
  }
  out += "]ch drop=" + std::string(drop_kind_name(drop));
  switch (drop) {
    case DropKind::kClean:
      break;
    case DropKind::kIid:
      out += "(p=" + format_compact(iid_p) + ")";
      break;
    case DropKind::kGilbertElliott:
      out += "(gb=" + format_compact(ge_p_good_to_bad) +
             ",bg=" + format_compact(ge_p_bad_to_good) +
             ",lg=" + format_compact(ge_loss_good) +
             ",lb=" + format_compact(ge_loss_bad) + ")";
      break;
    case DropKind::kScripted: {
      out += "(n=" + std::to_string(scripted_drops.size()) + ":";
      for (std::size_t i = 0; i < scripted_drops.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(scripted_drops[i]);
      }
      out += ")";
      break;
    }
  }
  if (reorder_probability > 0.0) {
    out += " reorder=" + format_compact(reorder_probability);
  }
  if (duplicate_probability > 0.0) {
    out += " dup=" + format_compact(duplicate_probability);
  }
  out += " sr=" + std::string(sr_flavor == SrFlavor::kNack ? "nack" : "rto");
  if (adaptive_rto) out += "+adaptive";
  out += " rto=" + format_compact(rto_rtt_multiple) + "rtt";
  out += " ec=(" + std::to_string(ec_k) + "," + std::to_string(ec_m) + ")";
  out += " rc=" + std::string(rc_go_back_n ? "gbn" : "sr");
  if (perturb_rto) {
    out += " perturb(rto*=" + format_compact(perturb_rto_multiple) +
           "@t=" + format_compact(perturb_at_s) + ")";
  }
  if (far_timers) {
    out += " far_timers=" + std::to_string(far_timer_count);
  }
  if (drop_first_cts) out += " drop_first_cts";
  if (fleet_mode) {
    static constexpr const char* kSchemes[] = {"sr", "ec", "rc"};
    out += " fleet(" + std::string(kSchemes[fleet_scheme % 3]) +
           ",epd=" + std::to_string(fleet_endpoints_per_dc) +
           ",mpc=" + std::to_string(fleet_messages_per_connection) +
           (fleet_collective ? ",coll)" : ")");
  }
  return out;
}

Scenario generate_scenario(std::uint64_t seed) {
  Scenario s;
  s.seed = seed;
  Rng rng(derive_seed(seed, kScenarioStream));

  static constexpr double kBandwidths[] = {1 * Gbps, 10 * Gbps, 100 * Gbps,
                                           400 * Gbps};
  s.bandwidth_bps = kBandwidths[rng.next_below(4)];
  // Log-uniform 10..10000 km: RTT from ~0.1 ms (metro) to ~0.1 s
  // (planetary, the paper's regime).
  s.distance_km = 10.0 * std::pow(10.0, 3.0 * rng.next_double());

  static constexpr std::size_t kMtus[] = {512, 1024, 2048, 4096};
  s.mtu = kMtus[rng.next_below(4)];
  static constexpr std::size_t kPpc[] = {1, 2, 4};
  s.packets_per_chunk = kPpc[rng.next_below(3)];

  const double rtt = s.rtt_s();
  const std::size_t n_msgs = 1 + rng.next_below(8);
  s.messages.reserve(n_msgs);
  for (std::size_t i = 0; i < n_msgs; ++i) {
    MessageSpec m;
    m.chunks = 1 + rng.next_below(24);
    m.post_delay_s = rng.next_double() * 4.0 * rtt;
    s.messages.push_back(m);
  }

  if (rng.bernoulli(0.4)) {
    s.reorder_probability = 0.01 + 0.19 * rng.next_double();
    s.reorder_extra_delay_s = (0.1 + 1.9 * rng.next_double()) * rtt;
  }
  if (rng.bernoulli(0.25)) {
    s.duplicate_probability = 0.01 + 0.04 * rng.next_double();
  }

  switch (rng.next_below(4)) {
    case 0:
      s.drop = DropKind::kClean;
      break;
    case 1:
      s.drop = DropKind::kIid;
      // Log-uniform 1e-4 .. ~0.2.
      s.iid_p = std::min(0.2, std::pow(10.0, -4.0 + 3.3 * rng.next_double()));
      break;
    case 2:
      s.drop = DropKind::kGilbertElliott;
      s.ge_p_good_to_bad = 0.001 + 0.049 * rng.next_double();
      s.ge_p_bad_to_good = 0.05 + 0.45 * rng.next_double();
      s.ge_loss_good = 0.01 * rng.next_double();
      s.ge_loss_bad = 0.2 + 0.5 * rng.next_double();
      break;
    case 3: {
      s.drop = DropKind::kScripted;
      const std::uint64_t total = s.total_data_packets();
      const std::uint64_t count =
          1 + rng.next_below(std::min<std::uint64_t>(16, total));
      std::set<std::uint64_t> picked;
      while (picked.size() < count) picked.insert(rng.next_below(total));
      s.scripted_drops.assign(picked.begin(), picked.end());
      break;
    }
  }

  s.sr_flavor = rng.bernoulli(0.5) ? SrFlavor::kNack : SrFlavor::kRto;
  s.adaptive_rto = rng.bernoulli(0.3);
  s.rto_rtt_multiple = 2.0 + 4.0 * rng.next_double();
  static constexpr std::size_t kEcGeom[][2] = {{4, 2}, {8, 4}, {8, 2}};
  const std::size_t g = rng.next_below(3);
  s.ec_k = kEcGeom[g][0];
  s.ec_m = kEcGeom[g][1];
  s.rc_go_back_n = rng.bernoulli(0.5);

  if (!s.adaptive_rto && rng.bernoulli(0.3)) {
    double max_delay = 0.0;
    for (const MessageSpec& m : s.messages) {
      max_delay = std::max(max_delay, m.post_delay_s);
    }
    s.perturb_rto = true;
    s.perturb_at_s = max_delay + (0.5 + 4.5 * rng.next_double()) * rtt;
    s.perturb_rto_multiple = 0.5 + 1.5 * rng.next_double();
  }

  // Appended after every pre-existing draw so the seed->scenario mapping of
  // all earlier fields (and the golden pin of seed 1) is unchanged.
  if (rng.bernoulli(0.35)) {
    s.far_timers = true;
    s.far_timer_count = 8 + rng.next_below(25);  // 8..32 far timers
  }
  if (rng.bernoulli(0.25)) {
    s.fleet_mode = true;
    s.fleet_endpoints_per_dc = 2 + rng.next_below(3);        // 2..4
    s.fleet_messages_per_connection = 3 + rng.next_below(4);  // 3..6
    s.fleet_scheme = rng.next_below(3);
    s.fleet_collective = rng.bernoulli(0.5);
  }
  s.drop_first_cts = rng.bernoulli(0.25);
  return s;
}

namespace {

/// Re-fit scripted drop indices to a shrunk packet count: fold each index
/// into range and deduplicate, so a shrink step never silently deletes the
/// whole loss pattern (the failure being minimized usually needs >= 1
/// drop to reproduce).
void refit_scripted(Scenario& s) {
  if (s.drop != DropKind::kScripted || s.scripted_drops.empty()) return;
  const std::uint64_t total = s.total_data_packets();
  std::set<std::uint64_t> folded;
  for (const std::uint64_t idx : s.scripted_drops) {
    folded.insert(total == 0 ? 0 : idx % total);
  }
  s.scripted_drops.assign(folded.begin(), folded.end());
}

/// One shrink step: the first rule that still bites, or no-op at fixpoint.
bool shrink_once(Scenario& s) {
  // Rule 1: halve the message count (keep the first half, rounding up).
  if (s.messages.size() > 1) {
    s.messages.resize((s.messages.size() + 1) / 2);
    refit_scripted(s);
    return true;
  }
  // Rule 2: trim the scripted drop schedule (floor 4, then floor 1). Before
  // the chunk halving: halving folds the drops onto fewer packets, and a
  // failure that needs a hole below a chunk that lands can vanish while
  // many drops are left.
  if (s.drop == DropKind::kScripted && s.scripted_drops.size() > 4) {
    s.scripted_drops.resize(4);
    return true;
  }
  if (s.drop == DropKind::kScripted && s.scripted_drops.size() > 1) {
    s.scripted_drops.resize(1);
    return true;
  }
  // Rule 3: halve every message's chunk count.
  bool any_big = false;
  for (const MessageSpec& m : s.messages) any_big |= m.chunks > 1;
  if (any_big) {
    for (MessageSpec& m : s.messages) m.chunks = (m.chunks + 1) / 2;
    refit_scripted(s);
    return true;
  }
  // Rule 4: strip the channel/timer mutations.
  if (s.reorder_probability > 0.0 || s.duplicate_probability > 0.0 ||
      s.perturb_rto || s.far_timers) {
    s.reorder_probability = 0.0;
    s.reorder_extra_delay_s = 0.0;
    s.duplicate_probability = 0.0;
    s.perturb_rto = false;
    s.far_timers = false;
    s.far_timer_count = 0;
    return true;
  }
  // Rule 5 (appended): shrink the fleet — fewer endpoints, then fewer
  // messages, then no collective. The mode itself is never disabled: a
  // fleet-oracle failure needs a fleet to reproduce.
  if (s.fleet_mode && s.fleet_endpoints_per_dc > 2) {
    s.fleet_endpoints_per_dc = (s.fleet_endpoints_per_dc + 1) / 2;
    if (s.fleet_endpoints_per_dc < 2) s.fleet_endpoints_per_dc = 2;
    return true;
  }
  if (s.fleet_mode && s.fleet_messages_per_connection > 2) {
    s.fleet_messages_per_connection =
        (s.fleet_messages_per_connection + 1) / 2;
    return true;
  }
  if (s.fleet_mode && s.fleet_collective) {
    s.fleet_collective = false;
    return true;
  }
  return false;
}

}  // namespace

Scenario shrink_scenario(const Scenario& full, int level) {
  Scenario s = full;
  for (int k = 0; k < level; ++k) {
    if (!shrink_once(s)) break;
  }
  s.shrink_level = level;
  return s;
}

bool fully_shrunk(const Scenario& s) {
  Scenario copy = s;
  return !shrink_once(copy);
}

}  // namespace sdr::check

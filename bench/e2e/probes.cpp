// Per-layer probes of the end-to-end benchmark. Each probe drives one
// layer's public API from outside (nothing in src/ is instrumented) and
// reports every one of its five windows; run.py takes the median. README.md
// maps each probe to the end-to-end metric and workload it should move.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "e2e.hpp"
#include "ec/reed_solomon.hpp"
#include "fleet/fleet.hpp"
#include "reliability/reliable_channel.hpp"
#include "sdr/sdr.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::e2e {
namespace {

constexpr int kProbeWindows = 5;
constexpr std::size_t kMtu = 4096;

struct Timed {
  std::vector<double> ns_per_unit;
  std::vector<double> allocs_per_unit;
};

/// Calls `step()` (which does some work and returns how many units it did)
/// until `window_s` has passed, once per window. One untimed call first
/// fills pools, rings and caches.
template <class Step>
Timed time_windows(double window_s, Step&& step) {
  step();
  Timed t;
  for (int w = 0; w < kProbeWindows; ++w) {
    std::uint64_t units = 0;
    const std::uint64_t allocs_before = allocs();
    const double t0 = now_s();
    double elapsed = 0.0;
    do {
      units += step();
      elapsed = now_s() - t0;
    } while (elapsed < window_s);
    const auto n = static_cast<double>(units);
    t.ns_per_unit.push_back(elapsed * 1e9 / n);
    t.allocs_per_unit.push_back(static_cast<double>(allocs() - allocs_before) /
                                n);
  }
  return t;
}

ProbeResult result(const char* name, const char* unit,
                   std::vector<double> windows) {
  return ProbeResult{name, unit, std::move(windows)};
}

sim::Channel::Config link(double bandwidth_bps, double km, std::uint64_t seed) {
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = bandwidth_bps;
  cfg.distance_km = km;
  cfg.seed = seed;
  return cfg;
}

// ---- event core ----------------------------------------------------------

/// Schedule -> fire: 1024 self-rescheduling handlers with 1-64 ns delays.
std::vector<ProbeResult> probe_sim_event(double window_s,
                                         std::vector<std::string>&) {
  struct Ticker {
    sim::Simulator* sim;
    Rng* rng;
    void tick() {
      sim->schedule(SimTime{static_cast<std::int64_t>(1 + rng->next_below(64))},
                    [this] { tick(); });
    }
  };
  sim::Simulator sim;
  Rng rng(42);
  std::vector<Ticker> tickers(1024, Ticker{&sim, &rng});
  for (Ticker& t : tickers) t.tick();
  const Timed t = time_windows(
      window_s, [&] { return sim.run_until(sim.now() + SimTime{512}); });
  return {result("sim.event_ns", "ns", t.ns_per_unit)};
}

/// Schedule + cancel: the retransmission-timer pattern (armed, then disarmed
/// by an ACK).
std::vector<ProbeResult> probe_sim_timer(double window_s,
                                         std::vector<std::string>& errors) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const Timed t = time_windows(window_s, [&] {
    for (int i = 0; i < 1024; ++i) {
      sim.cancel(sim.schedule(SimTime{1000000}, [&fired] { ++fired; }));
    }
    return std::uint64_t{1024};
  });
  sim.run();
  if (fired != 0) add_error(errors, "sim.timer_pair_ns: cancelled timer fired");
  return {result("sim.timer_pair_ns", "ns", t.ns_per_unit)};
}

/// Channel::send -> delivery of 4 KiB packets at Pdrop 1e-3.
std::vector<ProbeResult> probe_channel(double window_s,
                                       std::vector<std::string>& errors) {
  sim::Simulator sim;
  sim::Channel ch(sim, link(400 * Gbps, 100.0, 7),
                  std::make_unique<sim::IidDrop>(1e-3));
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  ch.set_receiver([&delivered](sim::Packet&&) { ++delivered; });
  const Timed t = time_windows(window_s, [&] {
    for (int i = 0; i < 512; ++i) {
      sim::Packet p;
      p.bytes = kMtu;
      ch.send(std::move(p));
    }
    sim.run();
    sent += 512;
    return std::uint64_t{512};
  });
  if (delivered + ch.stats().dropped_packets != sent) {
    add_error(errors, "sim.channel_pkt_ns: packets lost without a drop");
  }
  return {result("sim.channel_pkt_ns", "ns", t.ns_per_unit)};
}

// ---- verbs / NIC model ---------------------------------------------------

/// A connected QP pair over one duplex link; the receive CQ collects
/// write-with-immediate and RC completions.
struct VerbsPair {
  VerbsPair(verbs::QpType type, double km, double p_drop,
            const verbs::NicCaps* caps)
      : nics(verbs::make_connected_pair(sim, link(400 * Gbps, km, 23), p_drop,
                                        0.0)),
        dst(1 * MiB, 0) {
    if (caps != nullptr) nics.a->set_caps(*caps);
    verbs::QpConfig q;
    q.type = type;
    q.mtu = kMtu;
    q.rc_ack_timeout_s = 1e-3;
    verbs::QpConfig tx_cfg = q;
    tx_cfg.send_cq = &tx_cq;
    verbs::QpConfig rx_cfg = q;
    rx_cfg.recv_cq = &rx_cq;
    tx = nics.a->create_qp(tx_cfg);
    rx = nics.b->create_qp(rx_cfg);
    tx->connect(nics.b->id(), rx->num());
    rx->connect(nics.a->id(), tx->num());
    mr = nics.b->pd().register_mr(dst.data(), dst.size());
  }

  sim::Simulator sim;
  verbs::NicPair nics;
  verbs::CompletionQueue tx_cq{1 << 12};
  verbs::CompletionQueue rx_cq{1 << 12};
  std::vector<std::uint8_t> src = std::vector<std::uint8_t>(1 * MiB, 0x5A);
  std::vector<std::uint8_t> dst;
  verbs::Qp* tx{nullptr};
  verbs::Qp* rx{nullptr};
  const verbs::MemoryRegion* mr{nullptr};
};

/// Posts 256 single-packet 4 KiB writes (with immediate when `imm`), runs
/// them to the receiver and drains its CQ. Returns the packets delivered.
std::uint64_t post_small_writes(VerbsPair& p, bool imm) {
  for (std::uint32_t i = 0; i < 256; ++i) {
    verbs::WriteWr wr;
    wr.local_addr = p.src.data();
    wr.length = kMtu;
    wr.rkey = p.mr->rkey();
    wr.remote_offset = std::uint64_t{i} * kMtu;
    wr.with_imm = imm;
    wr.imm = i;
    wr.signaled = false;
    p.tx->post_write(wr);
  }
  p.sim.run();
  verbs::Cqe cqes[256];
  return p.rx_cq.poll(cqes, 256);
}

/// UC write-with-immediate: one packet through the NIC, the channel and the
/// receiver's CQE — the SDR data path's per-packet verbs cost.
std::vector<ProbeResult> probe_uc_write(double window_s,
                                        std::vector<std::string>& errors) {
  VerbsPair p(verbs::QpType::kUC, 0.1, 0.0, nullptr);
  bool short_count = false;
  const Timed t = time_windows(window_s, [&] {
    if (post_small_writes(p, true) != 256) short_count = true;
    return std::uint64_t{256};
  });
  if (short_count) add_error(errors, "verbs.uc_write_pkt_ns: CQEs missing");
  return {result("verbs.uc_write_pkt_ns", "ns", t.ns_per_unit)};
}

/// RC Go-Back-N at Pdrop 1e-3: 1 MiB writes (256 packets), ACK/NAK and
/// retransmission included; ns per payload packet.
std::vector<ProbeResult> probe_rc_write(double window_s,
                                        std::vector<std::string>& errors) {
  VerbsPair p(verbs::QpType::kRC, 1.0, 1e-3, nullptr);
  bool failed = false;
  const Timed t = time_windows(window_s, [&] {
    verbs::WriteWr wr;
    wr.local_addr = p.src.data();
    wr.length = p.src.size();
    wr.rkey = p.mr->rkey();
    wr.signaled = true;
    p.tx->post_write(wr);
    p.sim.run();
    const auto cqe = p.tx_cq.poll_one();
    if (!cqe || cqe->status != verbs::WcStatus::kSuccess) failed = true;
    return std::uint64_t{256};
  });
  if (failed) {
    add_error(errors, "verbs.rc_write_pkt_ns: write did not complete");
  }
  return {result("verbs.rc_write_pkt_ns", "ns", t.ns_per_unit)};
}

/// 4 KiB writes through a NIC with the fleet's NicCaps: descriptor and
/// doorbell costs, SQ depth and token buckets on every post.
std::vector<ProbeResult> probe_nic_model(double window_s,
                                         std::vector<std::string>& errors) {
  const verbs::NicCaps caps = fleet::FleetConfig::defaults().caps;
  VerbsPair p(verbs::QpType::kUC, 0.1, 0.0, &caps);
  std::uint64_t received = 0;
  const Timed t = time_windows(window_s, [&] {
    post_small_writes(p, false);
    received += 256;
    return std::uint64_t{256};
  });
  if (p.rx->stats().packets_received != received) {
    add_error(errors, "verbs.nic_model_post_ns: packets missing");
  }
  return {result("verbs.nic_model_post_ns", "ns", t.ns_per_unit)};
}

// ---- SDR core --------------------------------------------------------------

/// core::Qp send_post/recv_post of 4 KiB messages (one packet, one chunk)
/// over a clean link: CTS, injection, CQE and bitmap per message.
std::vector<ProbeResult> probe_sdr_msg(double window_s,
                                       std::vector<std::string>& errors) {
  constexpr std::size_t kBatch = 64;
  sim::Simulator sim;
  verbs::NicPair nics =
      verbs::make_connected_pair(sim, link(400 * Gbps, 0.1, 29), 0.0, 0.0);
  core::Context client(*nics.a, core::DevAttr{});
  core::Context server(*nics.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = kMtu;
  attr.chunk_size = kMtu;
  attr.max_msg_size = kMtu;
  attr.max_inflight = kBatch;
  core::Qp* tx = client.create_qp(attr);
  core::Qp* rx = server.create_qp(attr);
  tx->connect(rx->info());
  rx->connect(tx->info());
  std::vector<std::uint8_t> src(kMtu, 0x3C);
  std::vector<std::uint8_t> dst(kBatch * kMtu, 0);
  const verbs::MemoryRegion* mr = server.mr_reg(dst.data(), dst.size());
  std::uint64_t completed = 0;
  rx->set_recv_event_handler([&](const core::RecvEvent& ev) {
    if (ev.type != core::RecvEvent::Type::kMessageCompleted) return;
    ++completed;
    rx->recv_complete(ev.handle);
  });
  std::vector<core::SendHandle*> sends(kBatch, nullptr);
  bool failed = false;
  const Timed t = time_windows(window_s, [&] {
    const std::uint64_t before = completed;
    for (std::size_t i = 0; i < kBatch; ++i) {
      core::RecvHandle* h = nullptr;
      if (!rx->recv_post(dst.data() + i * kMtu, kMtu, mr, &h)) failed = true;
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (!tx->send_post(src.data(), kMtu, 0, false, &sends[i])) failed = true;
    }
    sim.run();
    for (core::SendHandle* h : sends) {
      if (!tx->send_poll(h)) failed = true;
    }
    if (completed - before != kBatch) failed = true;
    return std::uint64_t{kBatch};
  });
  if (failed) add_error(errors, "sdr.msg4k_ns: a message did not complete");
  return {result("sdr.msg4k_ns", "ns", t.ns_per_unit)};
}

// ---- reliability ---------------------------------------------------------

/// One ReliableChannel at the fleet's operating point (100 Gbit/s, 1500 km,
/// Pdrop 1e-4) carrying batches of `batch` messages of `msg_bytes`.
Timed reliable_batches(double window_s, reliability::ReliableChannel::Kind kind,
                       std::size_t msg_bytes, std::size_t batch,
                       const char* name, std::vector<std::string>& errors) {
  sim::Simulator sim;
  verbs::NicPair nics =
      verbs::make_connected_pair(sim, link(100 * Gbps, 1500.0, 31), 1e-4, 0.0);
  reliability::ReliableChannel::Options o;
  o.kind = kind;
  o.profile.bandwidth_bps = 100 * Gbps;
  o.profile.rtt_s = rtt_s(1500.0);
  o.profile.p_drop_packet = 1e-4;
  o.profile.mtu = kMtu;
  o.profile.chunk_bytes = kMtu;
  o.attr.mtu = kMtu;
  o.attr.chunk_size = kMtu;
  o.attr.max_msg_size = msg_bytes;
  // EC posts a data and a parity core message per submessage.
  o.attr.max_inflight = 2 * batch;
  o.ec.k = 4;
  o.ec.m = 2;
  o.derive_timeouts();
  reliability::ReliableChannel ch(sim, *nics.a, *nics.b, o);
  std::vector<std::uint8_t> src(msg_bytes, 0x6B);
  std::vector<std::uint8_t> dst(batch * msg_bytes, 0);
  std::uint64_t done = 0;
  bool failed = false;
  const Timed t = time_windows(window_s, [&] {
    const std::uint64_t before = done;
    for (std::size_t i = 0; i < batch; ++i) {
      const auto on_done = [&](const Status& st) {
        if (st) {
          ++done;
        } else {
          failed = true;
        }
      };
      if (!ch.recv(dst.data() + i * msg_bytes, msg_bytes, on_done) ||
          !ch.send(src.data(), msg_bytes, [](const Status&) {})) {
        failed = true;
      }
    }
    sim.run();
    if (done - before != batch) failed = true;
    return std::uint64_t{batch};
  });
  if (failed) add_error(errors, "%s: a message did not complete", name);
  return t;
}

std::vector<ProbeResult> probe_sr(double window_s,
                                  std::vector<std::string>& errors) {
  Timed t = reliable_batches(window_s,
                             reliability::ReliableChannel::Kind::kSrRto,
                             4 * KiB, 64, "reliability.sr_msg4k_ns", errors);
  return {result("reliability.sr_msg4k_ns", "ns", std::move(t.ns_per_unit)),
          result("reliability.sr_allocs_per_msg", "count",
                 std::move(t.allocs_per_unit))};
}

std::vector<ProbeResult> probe_ec(double window_s,
                                  std::vector<std::string>& errors) {
  Timed t = reliable_batches(window_s,
                             reliability::ReliableChannel::Kind::kEcMds,
                             16 * KiB, 32, "reliability.ec_msg16k_ns", errors);
  return {result("reliability.ec_msg16k_ns", "ns", std::move(t.ns_per_unit)),
          result("reliability.ec_allocs_per_msg", "count",
                 std::move(t.allocs_per_unit))};
}

// ---- erasure-code kernels -------------------------------------------------

/// k data and m parity blocks of `block` random bytes.
struct Blocks {
  Blocks(std::size_t k, std::size_t m, std::size_t block)
      : bytes((k + m) * block) {
    Rng rng(k * 1000 + m);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    for (std::size_t i = 0; i < k + m; ++i) {
      ptrs.push_back(bytes.data() + i * block);
    }
    data.assign(ptrs.begin(), ptrs.begin() + static_cast<std::ptrdiff_t>(k));
  }
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint8_t*> ptrs;         // all k + m blocks
  std::vector<const std::uint8_t*> data;  // the first k
};

/// RS(4,2) over 4 KiB blocks — the fleet EC geometry: encode, and decode
/// with two data blocks erased.
std::vector<ProbeResult> probe_rs4x2(double window_s,
                                     std::vector<std::string>& errors) {
  const ec::ReedSolomon rs(4, 2);
  Blocks b(4, 2, kMtu);
  const std::span<std::uint8_t* const> parity(b.ptrs.data() + 4, 2);
  const Timed enc = time_windows(window_s, [&] {
    for (int i = 0; i < 64; ++i) rs.encode(b.data, parity, kMtu);
    return std::uint64_t{64};
  });

  const std::vector<std::uint8_t> original(b.bytes.begin(),
                                           b.bytes.begin() + 2 * kMtu);
  const ec::PresenceMap present = {false, false, true, true, true, true};
  bool ok = true;
  const Timed dec = time_windows(window_s, [&] {
    for (int i = 0; i < 64; ++i) ok = rs.decode(b.ptrs, present, kMtu) && ok;
    return std::uint64_t{64};
  });
  std::memset(b.bytes.data(), 0, 2 * kMtu);
  ok = rs.decode(b.ptrs, present, kMtu) && ok;
  if (!ok || std::memcmp(original.data(), b.bytes.data(), 2 * kMtu) != 0) {
    add_error(errors, "ec.rs4x2_decode_ns: decode did not restore the data");
  }
  return {result("ec.rs4x2_encode_ns", "ns", enc.ns_per_unit),
          result("ec.rs4x2_decode_ns", "ns", dec.ns_per_unit)};
}

/// RS(32,8) over 64 KiB chunks (Fig 11 geometry), one thread: application
/// Gbit/s per core, the input to the paper's cores-to-hide-400G figure.
std::vector<ProbeResult> probe_rs32x8(double window_s,
                                      std::vector<std::string>&) {
  constexpr std::size_t kChunk = 64 * KiB;
  const ec::ReedSolomon rs(32, 8);
  Blocks b(32, 8, kChunk);
  const std::span<std::uint8_t* const> parity(b.ptrs.data() + 32, 8);
  Timed t = time_windows(window_s, [&] {
    rs.encode(b.data, parity, kChunk);
    return std::uint64_t{1};
  });
  for (double& v : t.ns_per_unit) v = 32.0 * kChunk * 8.0 / v;
  return {result("ec.rs32x8_encode_gbps", "Gbit/s", t.ns_per_unit)};
}

struct Probe {
  const char* name;
  std::vector<ProbeResult> (*run)(double window_s,
                                  std::vector<std::string>& errors);
};

constexpr Probe kProbes[] = {
    {"sim.event", probe_sim_event},
    {"sim.timer_pair", probe_sim_timer},
    {"sim.channel_pkt", probe_channel},
    {"verbs.uc_write_pkt", probe_uc_write},
    {"verbs.rc_write_pkt", probe_rc_write},
    {"verbs.nic_model_post", probe_nic_model},
    {"sdr.msg4k", probe_sdr_msg},
    {"reliability.sr_msg4k", probe_sr},
    {"reliability.ec_msg16k", probe_ec},
    {"ec.rs4x2", probe_rs4x2},
    {"ec.rs32x8_encode", probe_rs32x8},
};

}  // namespace

bool is_probe(std::string_view name) {
  for (const Probe& p : kProbes) {
    if (name == p.name) return true;
  }
  return false;
}

std::vector<ProbeResult> run_probes(std::string_view which, double window_s,
                                    std::vector<std::string>& errors) {
  std::vector<ProbeResult> out;
  for (const Probe& p : kProbes) {
    if (which != "all" && which != p.name) continue;
    for (ProbeResult& r : p.run(window_s, errors)) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace sdr::e2e

#include "fleet/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/payload_pool.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "reliability/reliable_channel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/fabric.hpp"

namespace sdr::fleet {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSr: return "sr";
    case Scheme::kEc: return "ec";
    case Scheme::kRc: return "rc";
  }
  return "?";
}

FleetConfig FleetConfig::defaults() {
  FleetConfig cfg;
  cfg.caps.enabled = true;
  cfg.caps.pcie_desc_s = 16e-9;
  cfg.caps.pcie_doorbell_s = 250e-9;
  cfg.caps.doorbell_batch = 8;
  cfg.caps.sq_depth = 512;
  cfg.caps.write_ops_per_s = 2e6;
  cfg.caps.send_ops_per_s = 1e6;
  cfg.caps.burst_ops = 64.0;

  TenantTraffic small;
  small.name = "smallop";
  small.share = 0.7;
  small.msgs_per_s = 3000.0;
  small.base_msg_bytes = 4096;
  small.size_ranks = 4;  // 4..32 KiB
  small.zipf_s = 1.2;
  small.window = 8;

  TenantTraffic bulk;
  bulk.name = "bulk";
  bulk.share = 0.3;
  bulk.msgs_per_s = 400.0;
  bulk.base_msg_bytes = 64 * 1024;
  bulk.size_ranks = 3;  // 64..256 KiB
  bulk.zipf_s = 1.0;
  bulk.window = 4;

  cfg.tenants = {small, bulk};
  return cfg;
}

namespace {

// EC geometry for fleet-sized messages: one chunk per MTU packet and a
// (4, 2) code give a 16 KiB submessage — small-op messages pad to one
// submessage instead of the single-flow default's 2 MiB.
constexpr std::size_t kEcK = 4;
constexpr std::size_t kEcM = 2;

// Inter-DC trunks: a full mesh of ECMP bundles of 4 paths at 100 Gbit/s
// each, path k delayed by an extra k * 2 us, with unbounded egress queues.
constexpr double kTrunkBandwidthBps = 100e9;  // per path
constexpr std::size_t kTrunkPaths = 4;
constexpr double kPathSkewS = 2e-6;

constexpr std::uint64_t kCollectiveTenant = ~std::uint64_t{0};
constexpr std::size_t kCollectiveSegmentBytes = 64 * 1024;

// Virtual-time safety net: the run is cut off here if the fleet has not
// quiesced (e.g. RC retry storms); incomplete messages are accounted.
constexpr double kHorizonS = 60.0;

std::uint64_t mix_into(std::uint64_t h, std::uint64_t v) {
  return splitmix64_mix(h ^ (v + kSplitMix64Gamma + (h << 6) + (h >> 2)));
}

double percentile_ms(std::vector<std::int64_t>& latencies_ns, double pct) {
  if (latencies_ns.empty()) return 0.0;
  const std::size_t n = latencies_ns.size();
  std::size_t idx = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(n - 1) + 0.5);
  if (idx >= n) idx = n - 1;
  std::nth_element(latencies_ns.begin(), latencies_ns.begin() + idx,
                   latencies_ns.end());
  return static_cast<double>(latencies_ns[idx]) * 1e-6;
}

class FleetEngine;

/// One unidirectional fleet connection: a sender endpoint on one DC NIC
/// streaming windowed messages to a receiver endpoint on another.
struct Conn {
  FleetEngine* eng{nullptr};
  std::size_t id{0};
  std::size_t tenant{0};  // index into config tenants; kCollectiveTenant
  std::size_t src_endpoint{0};
  std::size_t window{1};
  bool is_collective{false};

  // Transport: SR/EC use a ReliableChannel, RC a raw QP pair.
  std::unique_ptr<reliability::ReliableChannel> rel;
  verbs::Qp* tx{nullptr};
  verbs::Qp* rx{nullptr};
  std::unique_ptr<verbs::CompletionQueue> rx_cq;
  const verbs::MemoryRegion* rx_mr{nullptr};  // over the engine's sink

  std::vector<PlannedMessage> plan;        // useful bytes + arrival ns
  std::vector<std::uint32_t> wire_bytes;   // scheme-padded post length
  std::size_t max_wire_bytes{0};

  std::size_t next_arrival{0};  // arrivals seen (tenant conns)
  std::size_t next_post{0};     // next index to hand to the protocol
  std::size_t inflight{0};      // at most `window`
  std::uint64_t completed{0};
  std::uint64_t failed{0};  // receiver done with an error (e.g. EC abort)

  // Outstanding completion callbacks per message: the reliable schemes
  // deliver a receiver done AND a sender done (the sender's message-table
  // slot frees only at the final ACK, ~0.5 RTT after delivery); the window
  // slot is reusable only once both fired. RC has only the receive CQE.
  std::vector<std::uint8_t> parts_left;

  // Collective edges only: per-step completion marks and the length of the
  // contiguous completed prefix. Messages on one channel can complete out
  // of order (a later small step passes an earlier retransmitting one), so
  // the downstream ring release keys off the contiguous prefix, never off
  // a raw completion index.
  std::vector<std::uint8_t> step_done;
  std::size_t steps_contig{0};

  void on_arrival();
  void try_post();
  void start(std::size_t seq);
  void on_recv_done(std::size_t seq, bool ok);
  void part_done(std::size_t seq);
};

/// Per-tenant telemetry rollup: counters + completion-latency histogram
/// exported through the registry ("fleet.<tenant>.*").
struct TenantRollup {
  std::uint64_t planned{0};
  std::uint64_t posted{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  std::uint64_t useful_bytes{0};
  std::uint64_t connections{0};
  std::vector<std::int64_t> latencies_ns;
  telemetry::HistogramHandle latency_hist;
  telemetry::Scope tele;  // last member: unbinds before counters die
};

class FleetEngine {
 public:
  explicit FleetEngine(const FleetConfig& config) : cfg_(config) {}

  FleetResult run();

 private:
  friend struct Conn;

  std::size_t scheme_padded(std::size_t bytes) const {
    if (cfg_.scheme != Scheme::kEc) return bytes;
    const std::size_t sub = kEcK * kMtu;
    return (bytes + sub - 1) / sub * sub;
  }

  void build_topology();
  void build_connections();
  void build_collective();
  std::unique_ptr<Conn> make_conn(std::size_t tenant_idx,
                                  std::size_t src_endpoint,
                                  std::size_t dst_dc,
                                  std::vector<PlannedMessage> plan);
  void kickoff();
  void collect(FleetResult& out);
  void on_completion(Conn& conn, std::size_t seq, std::int64_t latency_ns,
                     std::uint32_t useful);
  void on_failure(Conn& conn, std::size_t seq);
  void on_collective_step(Conn& conn, std::size_t seq);
  void concurrent_delta(std::int64_t d) {
    concurrent_ += d;
    if (concurrent_ > peak_concurrent_) peak_concurrent_ = concurrent_;
  }

  static constexpr std::size_t kMtu = 4096;

  FleetConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<verbs::Fabric> fabric_;
  std::vector<verbs::Nic*> dc_nics_;
  std::vector<std::unique_ptr<Conn>> conns_;
  // The source of every message: the bytes are a constant nothing
  // checks, so all connections share one read-only buffer, as long as the
  // largest wire message and filled once before the first post.
  std::vector<std::uint8_t> send_src_;
  // The destination of every message, sized and filled like send_src_.
  // Every message is a prefix of that one constant source, so each write
  // lands the bytes already there; EC decode reads only chunks its bitmap
  // marks and rebuilds the same constant. Nothing else reads a receive
  // byte, so every connection shares one sink, which stays in cache. A
  // member, not a static: sweep trials run fleets in parallel.
  std::vector<std::uint8_t> recv_sink_;
  std::vector<Conn*> collective_edges_;  // [participant] -> outgoing edge
  std::vector<TenantRollup> rollups_;    // tenants..., collective last
  std::vector<std::uint64_t> endpoint_bytes_;  // per sender endpoint
  std::vector<std::int64_t> fleet_latencies_ns_;
  std::int64_t concurrent_{0};
  std::int64_t peak_concurrent_{0};
  std::int64_t last_completion_ns_{0};
  std::uint64_t digest_{0};
  std::size_t collective_total_steps_{0};
};

// ---------------------------------------------------------------------------
// Connection behaviour
// ---------------------------------------------------------------------------

void Conn::on_arrival() {
  ++next_arrival;
  eng->concurrent_delta(+1);
  try_post();
  // Self-advancing arrival chain: one pending event per connection.
  if (next_arrival < plan.size()) {
    Conn* self = this;
    const std::int64_t at = plan[next_arrival].arrival_ns;
    eng->sim_.schedule_at(SimTime{at}, [self] { self->on_arrival(); });
  }
}

void Conn::try_post() {
  while (inflight < window && next_post < next_arrival) {
    start(next_post++);
  }
}

void Conn::start(std::size_t seq) {
  ++inflight;
  assert(inflight <= window);  // try_post gates tenant posts on the window

  const std::uint32_t len = wire_bytes[seq];
  if (rel != nullptr) {
    Conn* self = this;
    parts_left[seq] = 2;
    const Status rs =
        rel->recv(eng->recv_sink_.data(), len, [self, seq](const Status& st) {
          self->on_recv_done(seq, static_cast<bool>(st));
        });
    const Status ss = rel->send(
        eng->send_src_.data(), len,
        [self, seq](const Status&) { self->part_done(seq); });
    if (!rs || !ss) {
      // A refused post is a fleet-configuration bug (undersized message
      // table, bad geometry) — fail loudly, never silently drop a message.
      std::fprintf(stderr, "fleet: conn %zu seq %zu post failed: %s%s\n", id,
                   seq, rs ? "" : rs.message().c_str(),
                   ss ? "" : ss.message().c_str());
      std::abort();
    }
    return;
  }
  // RC write-with-immediate: the immediate carries the sequence number, so
  // the receiver-side CQE resolves its message without ordering games.
  parts_left[seq] = 1;
  verbs::WriteWr wr;
  wr.wr_id = seq;
  wr.local_addr = eng->send_src_.data();
  wr.length = len;
  wr.rkey = rx_mr->rkey();
  wr.remote_offset = 0;
  wr.with_imm = true;
  wr.imm = static_cast<std::uint32_t>(seq);
  wr.signaled = false;
  tx->post_write(wr);
}

void Conn::on_recv_done(std::size_t seq, bool ok) {
  const std::int64_t now_ns = eng->sim_.now().ns;
  eng->concurrent_delta(-1);
  if (!ok) {
    // Receiver gave up (EC, 16 silent FTO rounds). Free the window slot but
    // never count the message as delivered — and never release the ring
    // dependency on data that did not arrive.
    ++failed;
    eng->on_failure(*this, seq);
    part_done(seq);
    return;
  }
  ++completed;
  eng->on_completion(*this, seq, now_ns - plan[seq].arrival_ns,
                     plan[seq].bytes);
  // The ring dependency releases on delivery, not on the sender's ACK: the
  // downstream participant owns the segment as soon as it lands.
  if (is_collective) eng->on_collective_step(*this, seq);
  part_done(seq);
}

void Conn::part_done(std::size_t seq) {
  if (--parts_left[seq] != 0) return;
  --inflight;
  if (!is_collective) try_post();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

void FleetEngine::build_topology() {
  fabric_ = std::make_unique<verbs::Fabric>(sim_);
  dc_nics_.clear();
  for (std::size_t d = 0; d < cfg_.dcs; ++d) {
    verbs::Nic* nic = fabric_->add_nic();
    nic->set_caps(cfg_.caps);
    dc_nics_.push_back(nic);
  }
  verbs::Fabric::LinkOptions link;
  link.config.bandwidth_bps = kTrunkBandwidthBps;
  link.config.distance_km = cfg_.distance_km;
  link.config.seed = derive_seed(cfg_.seed, 0x71u);
  link.p_drop_forward = cfg_.p_drop;
  link.p_drop_backward = cfg_.p_drop;
  link.paths = kTrunkPaths;
  link.path_skew_s = kPathSkewS;
  for (std::size_t a = 0; a < cfg_.dcs; ++a) {
    for (std::size_t b = a + 1; b < cfg_.dcs; ++b) {
      fabric_->connect(dc_nics_[a], dc_nics_[b], link);
    }
  }
}

std::unique_ptr<Conn> FleetEngine::make_conn(std::size_t tenant_idx,
                                             std::size_t src_endpoint,
                                             std::size_t dst_dc,
                                             std::vector<PlannedMessage> plan) {
  auto conn = std::make_unique<Conn>();
  conn->eng = this;
  conn->id = conns_.size();
  conn->tenant = tenant_idx;
  conn->src_endpoint = src_endpoint;
  conn->is_collective = tenant_idx == kCollectiveTenant;
  conn->plan = std::move(plan);

  const std::size_t src_dc = src_endpoint / cfg_.endpoints_per_dc;
  verbs::Nic* src = dc_nics_[src_dc];
  verbs::Nic* dst = dc_nics_[dst_dc];

  conn->wire_bytes.reserve(conn->plan.size());
  std::size_t max_wire = 0;
  for (const PlannedMessage& m : conn->plan) {
    const std::size_t padded = scheme_padded(m.bytes);
    conn->wire_bytes.push_back(static_cast<std::uint32_t>(padded));
    max_wire = std::max(max_wire, padded);
  }
  conn->max_wire_bytes = max_wire;

  // A collective edge's window spans every ring step: the ring dependency
  // releases step g on receiver completion of step g-1, but the sender
  // side of a message only frees at the final ACK ~0.5 RTT later — under
  // loss the dependency chain can overtake the trailing ACKs by more than
  // any fixed window, so only a window of all the steps is always safe
  // (plans are small: 2*(dcs-1)*iterations steps).
  conn->window = conn->is_collective ? conn->plan.size()
                                     : cfg_.tenants[tenant_idx].window;
  conn->parts_left.assign(conn->plan.size(), 0);
  if (conn->is_collective) conn->step_done.assign(conn->plan.size(), 0);

  const double rtt = rtt_s(cfg_.distance_km);
  if (cfg_.scheme == Scheme::kRc) {
    verbs::QpConfig qcfg;
    qcfg.type = verbs::QpType::kRC;
    qcfg.mtu = kMtu;
    qcfg.rc_mode = verbs::RcMode::kGoBackN;
    qcfg.rc_ack_timeout_s = 3.0 * rtt;
    qcfg.rc_retry_limit = 16;
    conn->rx_cq = std::make_unique<verbs::CompletionQueue>(4096);
    verbs::QpConfig rx_cfg = qcfg;
    rx_cfg.recv_cq = conn->rx_cq.get();
    conn->tx = src->create_qp(qcfg);
    conn->rx = dst->create_qp(rx_cfg);
    conn->tx->connect(dst->id(), conn->rx->num());
    conn->rx->connect(src->id(), conn->tx->num());
    Conn* raw = conn.get();
    conn->rx_cq->set_notify([raw] {
      while (auto cqe = raw->rx_cq->poll_one()) {
        raw->on_recv_done(cqe->imm, true);
      }
    });
  } else {
    reliability::ReliableChannel::Options options;
    options.kind = cfg_.scheme == Scheme::kEc
                       ? reliability::ReliableChannel::Kind::kEcMds
                       : reliability::ReliableChannel::Kind::kSrRto;
    options.profile.bandwidth_bps = kTrunkBandwidthBps;
    options.profile.rtt_s = rtt;
    options.profile.p_drop_packet = cfg_.p_drop;
    options.profile.mtu = kMtu;
    options.attr.mtu = kMtu;
    if (cfg_.scheme == Scheme::kEc) {
      options.attr.chunk_size = kMtu;  // one coded chunk per packet
      options.ec.k = kEcK;
      options.ec.m = kEcM;
    } else {
      // One bitmap bit per chunk: keep the chunk no bigger than the largest
      // message on the connection, rounded to whole MTU packets.
      std::size_t chunk = std::min<std::size_t>(64 * KiB, max_wire);
      chunk = chunk / kMtu * kMtu;
      options.attr.chunk_size = chunk == 0 ? kMtu : chunk;
    }
    options.profile.chunk_bytes = options.attr.chunk_size;
    const std::size_t chunk = options.attr.chunk_size;
    options.attr.max_msg_size =
        std::max<std::size_t>(chunk, (max_wire + chunk - 1) / chunk * chunk);
    // The core maps message number -> table slot round-robin
    // (slot = number % max_inflight), and slot release inside the
    // protocols trails the app done callback: the sender frees at the
    // final ACK, ~0.5 RTT after the receiver reports completion. A table
    // sized to the app window therefore wraps onto slots that are still
    // draining and refuses the post the just-delivered message admitted.
    // Since every connection's plan is finite, size the table so message
    // numbers never wrap it at all: one slot per core message posted over
    // the connection's lifetime. The EC stack posts one core message per
    // data submessage plus one per parity submessage, so an app message of
    // S submessages consumes 2*S message numbers; SR consumes one.
    // Retransmits reuse handles and consume no new numbers. The immediate
    // layout caps the table at imm.max_messages() (1024); worst-case bulk
    // EC plans stay comfortably under it.
    std::size_t slots_per_msg = 1;
    if (cfg_.scheme == Scheme::kEc) {
      const std::size_t sub = kEcK * kMtu;
      slots_per_msg = 2 * std::max<std::size_t>(1, max_wire / sub);
    }
    options.attr.max_inflight = std::min<std::size_t>(
        options.attr.imm.max_messages(),
        conn->plan.size() * slots_per_msg + 4);
    options.derive_timeouts();
    conn->rel = std::make_unique<reliability::ReliableChannel>(sim_, *src,
                                                               *dst, options);
  }
  return conn;
}

void FleetEngine::build_connections() {
  const std::size_t per_dc = cfg_.endpoints_per_dc;
  const std::size_t endpoints = cfg_.dcs * per_dc;
  endpoint_bytes_.assign(endpoints, 0);

  // Normalize tenant shares once.
  double total_share = 0.0;
  for (const TenantTraffic& t : cfg_.tenants) total_share += t.share;
  if (total_share <= 0.0) total_share = 1.0;

  const bool collective_on = cfg_.collective && cfg_.dcs >= 2;
  for (std::size_t e = 0; e < endpoints; ++e) {
    const std::size_t dc = e / per_dc;
    const std::size_t local = e % per_dc;
    if (collective_on && local == 0) continue;  // collective participant
    if (cfg_.tenants.empty()) continue;

    // Proportional, deterministic tenant assignment by local position.
    const double pos = (static_cast<double>(local) + 0.5) /
                       static_cast<double>(per_dc);
    std::size_t tenant_idx = cfg_.tenants.size() - 1;
    double cum = 0.0;
    for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
      cum += cfg_.tenants[t].share / total_share;
      if (pos <= cum) {
        tenant_idx = t;
        break;
      }
    }

    // Spread destinations across every other DC.
    const std::size_t dst_dc =
        cfg_.dcs > 1 ? (dc + 1 + (local % (cfg_.dcs - 1))) % cfg_.dcs : dc;
    std::vector<PlannedMessage> plan = plan_messages(
        cfg_.tenants[tenant_idx], cfg_.messages_per_connection,
        derive_seed(cfg_.seed, 0x1000u + tenant_idx), e);
    conns_.push_back(make_conn(tenant_idx, e, dst_dc, std::move(plan)));
    ++rollups_[tenant_idx].connections;
  }
}

void FleetEngine::build_collective() {
  collective_edges_.clear();
  if (!cfg_.collective || cfg_.dcs < 2) return;
  const std::size_t steps_per_iter = 2 * (cfg_.dcs - 1);
  collective_total_steps_ = steps_per_iter * cfg_.collective_iterations;

  for (std::size_t p = 0; p < cfg_.dcs; ++p) {
    const std::size_t src_endpoint = p * cfg_.endpoints_per_dc;  // local 0
    const std::size_t dst_dc = (p + 1) % cfg_.dcs;
    std::vector<PlannedMessage> plan(collective_total_steps_);
    for (PlannedMessage& m : plan) {
      m.arrival_ns = 0;  // stamped when the dependency releases the step
      m.bytes = static_cast<std::uint32_t>(kCollectiveSegmentBytes);
    }
    conns_.push_back(
        make_conn(kCollectiveTenant, src_endpoint, dst_dc, std::move(plan)));
    collective_edges_.push_back(conns_.back().get());
    ++rollups_.back().connections;
  }
}

void FleetEngine::on_collective_step(Conn& conn, std::size_t seq) {
  // conn is the edge p -> p+1; its receiver (participant p+1) may send
  // ring step s+1 on its own outgoing edge once it has received step s
  // (reduce-scatter/allgather dependency: step s+1 consumes the segment
  // received in step s). Completions on one channel are not ordered —
  // a later small step can pass an earlier retransmitting one — so mark
  // the step and release downstream posts only as the contiguous
  // completed prefix advances; posting on a raw completion index would
  // leave holes in the downstream plan.
  conn.step_done[seq] = 1;
  while (conn.steps_contig < collective_total_steps_ &&
         conn.step_done[conn.steps_contig]) {
    ++conn.steps_contig;
  }
  const std::size_t receiver =
      (conn.id - collective_edges_[0]->id + 1) % collective_edges_.size();
  Conn* edge = collective_edges_[receiver];
  // Edge step s needs upstream step s-1, i.e. s <= conn.steps_contig.
  while (edge->next_post <= conn.steps_contig &&
         edge->next_post < collective_total_steps_) {
    const std::size_t next = edge->next_post++;
    edge->plan[next].arrival_ns = sim_.now().ns;
    edge->next_arrival = edge->next_post;
    concurrent_delta(+1);
    edge->start(next);
  }
}

void FleetEngine::kickoff() {
  for (auto& conn : conns_) {
    if (conn->is_collective || conn->plan.empty()) continue;
    Conn* raw = conn.get();
    sim_.schedule_at(SimTime{conn->plan[0].arrival_ns},
                     [raw] { raw->on_arrival(); });
  }
  // Ring step 0 is released unconditionally on every participant.
  for (Conn* edge : collective_edges_) {
    if (collective_total_steps_ == 0) break;
    edge->plan[0].arrival_ns = 0;
    edge->next_arrival = 1;
    edge->next_post = 1;
    concurrent_delta(+1);
    edge->start(0);
  }
}

void FleetEngine::on_completion(Conn& conn, std::size_t seq,
                                std::int64_t latency_ns,
                                std::uint32_t useful) {
  const std::int64_t now_ns = sim_.now().ns;
  last_completion_ns_ = std::max(last_completion_ns_, now_ns);
  TenantRollup& roll = conn.is_collective ? rollups_.back()
                                          : rollups_[conn.tenant];
  ++roll.completed;
  roll.useful_bytes += useful;
  roll.latencies_ns.push_back(latency_ns);
  roll.latency_hist.record(static_cast<double>(latency_ns) * 1e-9);
  fleet_latencies_ns_.push_back(latency_ns);
  endpoint_bytes_[conn.src_endpoint] += useful;

  digest_ = mix_into(digest_, conn.id);
  digest_ = mix_into(digest_, seq);
  digest_ = mix_into(digest_, static_cast<std::uint64_t>(now_ns));
  digest_ = mix_into(digest_, useful);
}

void FleetEngine::on_failure(Conn& conn, std::size_t seq) {
  TenantRollup& roll = conn.is_collective ? rollups_.back()
                                          : rollups_[conn.tenant];
  ++roll.failed;
  // Failures are part of the fleet outcome: fold a marker distinct from
  // any completion record.
  digest_ = mix_into(digest_, 0xFA11ED);
  digest_ = mix_into(digest_, conn.id);
  digest_ = mix_into(digest_, seq);
}

void FleetEngine::collect(FleetResult& out) {
  out.endpoints = cfg_.dcs * cfg_.endpoints_per_dc;
  out.connections = conns_.size();
  out.peak_concurrent = static_cast<std::uint64_t>(peak_concurrent_);
  out.quiesced = sim_.pending() == 0;
  out.payload_live_slots = common::payload_pool().live_slots();
  out.makespan_s = static_cast<double>(last_completion_ns_) * 1e-9;

  for (verbs::Nic* nic : dc_nics_) {
    out.qps_created += nic->qp_count();
    out.unknown_qp_packets += nic->unknown_qp_packets();
    out.unroutable_packets += nic->unroutable_packets();
  }
  for (const auto& ch : fabric_->channels()) {
    out.trunk_drops += ch->stats().dropped_packets + ch->stats().queue_drops;
  }
  for (const auto& conn : conns_) {
    out.messages_posted += conn->next_post;
    if (conn->rel != nullptr) {
      out.retransmissions += conn->rel->retransmissions();
    } else if (conn->tx != nullptr) {
      out.retransmissions += conn->tx->stats().rc_retransmissions;
    }
  }

  const std::size_t tenant_count = rollups_.size();
  out.tenants.resize(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    TenantRollup& roll = rollups_[t];
    TenantResult& res = out.tenants[t];
    res.name = t < cfg_.tenants.size() ? cfg_.tenants[t].name : "collective";
    res.connections = roll.connections;
    res.planned = roll.planned;
    res.posted = roll.posted;
    res.completed = roll.completed;
    res.failed = roll.failed;
    res.useful_bytes = roll.useful_bytes;
    if (out.makespan_s > 0.0) {
      res.goodput_gbps = static_cast<double>(roll.useful_bytes) * 8.0 /
                         out.makespan_s / 1e9;
    }
    res.p50_ms = percentile_ms(roll.latencies_ns, 50.0);
    res.p99_ms = percentile_ms(roll.latencies_ns, 99.0);
    res.p999_ms = percentile_ms(roll.latencies_ns, 99.9);
    out.messages_completed += roll.completed;
    out.messages_failed += roll.failed;
    out.useful_bytes += roll.useful_bytes;
  }
  if (out.makespan_s > 0.0) {
    out.fleet_goodput_gbps =
        static_cast<double>(out.useful_bytes) * 8.0 / out.makespan_s / 1e9;
  }
  out.p50_ms = percentile_ms(fleet_latencies_ns_, 50.0);
  out.p99_ms = percentile_ms(fleet_latencies_ns_, 99.0);
  out.p999_ms = percentile_ms(fleet_latencies_ns_, 99.9);

  // Jain fairness over per-sender-endpoint completed bytes (endpoints that
  // sent nothing because they own no connection are excluded).
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t active = 0;
  for (const auto& conn : conns_) {
    const double x =
        static_cast<double>(endpoint_bytes_[conn->src_endpoint]);
    sum += x;
    sum_sq += x * x;
    ++active;
  }
  if (active > 0 && sum_sq > 0.0) {
    out.jain_fairness =
        sum * sum / (static_cast<double>(active) * sum_sq);
  }

  // Fold the aggregate counters into the digest so "same digest" implies
  // "same fleet outcome", not just same completion sequence.
  std::uint64_t digest = digest_;
  digest = mix_into(digest, out.messages_posted);
  digest = mix_into(digest, out.messages_completed);
  digest = mix_into(digest, out.useful_bytes);
  digest = mix_into(digest, out.peak_concurrent);
  out.digest = digest;
}

FleetResult FleetEngine::run() {
  rollups_.clear();
  const bool collective_on = cfg_.collective && cfg_.dcs >= 2;
  rollups_.resize(cfg_.tenants.size() + 1);  // + collective slot (maybe idle)
  if (telemetry::enabled()) {
    auto& reg = telemetry::registry();
    for (std::size_t t = 0; t < rollups_.size(); ++t) {
      const std::string name =
          t < cfg_.tenants.size() ? cfg_.tenants[t].name : "collective";
      TenantRollup& roll = rollups_[t];
      roll.tele = telemetry::Scope(reg, "fleet." + name);
      roll.tele.bind_counter("messages_posted", &roll.posted);
      roll.tele.bind_counter("messages_completed", &roll.completed);
      roll.tele.bind_counter("messages_failed", &roll.failed);
      roll.tele.bind_counter("useful_bytes", &roll.useful_bytes);
      roll.latency_hist =
          roll.tele.histogram("completion_latency_s", 1e-6, 1e3);
    }
  }

  build_topology();
  build_connections();
  if (collective_on) build_collective();
  std::size_t largest = 0;
  for (const auto& conn : conns_) {
    largest = std::max(largest, conn->max_wire_bytes);
  }
  send_src_.assign(largest, 0xA5);
  recv_sink_.assign(largest, 0xA5);
  if (cfg_.scheme == Scheme::kRc && largest > 0) {
    // One registration over the sink per destination NIC; every RC write
    // targets its first byte.
    for (verbs::Nic* nic : dc_nics_) {
      const verbs::MemoryRegion* mr =
          nic->pd().register_mr(recv_sink_.data(), recv_sink_.size());
      for (const auto& conn : conns_) {
        if (&conn->rx->nic() == nic) conn->rx_mr = mr;
      }
    }
  }

  // Posted counts: tenant plans are fully posted by construction intent;
  // count them as posted when their arrival fires (next_post advances), so
  // tally after the run instead. Collective steps tally as they release.
  kickoff();
  sim_.run_until(SimTime::from_seconds(kHorizonS));

  for (const auto& conn : conns_) {
    TenantRollup& roll = conn->is_collective ? rollups_.back()
                                             : rollups_[conn->tenant];
    roll.planned += conn->plan.size();
    roll.posted += conn->next_post;
  }

  FleetResult out;
  collect(out);
  return out;
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  FleetEngine engine(config);
  return engine.run();
}

}  // namespace sdr::fleet

// End-to-end data-path benchmark: packets per wall-clock second through the
// full simulated wire, from post to bitmap update / completion. Where
// bench_simcore probes the event core in isolation, this is the composed
// path every figure sweep actually pays for: verbs packetization, channel
// serialization, per-packet CQEs, SDR matching and bitmap coalescing, and
// (for the lossy workloads) the RC retransmit queue and the SR reliability
// protocol on top.
//
// Three workloads:
//   * sdr_clean    — pipelined SDR messages (CTS + one UC Write-with-imm
//                    per MTU packet) over a clean 400 Gbit/s link. The
//                    zero-allocation steady-state target lives here.
//   * rc_lossy     — verbs RC Writes with Go-Back-N over a 1e-3 lossy
//                    link; exercises the unacked retransmit queue.
//   * sdr_lossy_sr — a ReliableChannel (SR RTO scheme) carrying messages
//                    over a 1e-3 lossy link: the paper's full software-
//                    defined reliability stack end to end.
//
// Each workload emits one machine-readable line:
//
//   BENCH_JSON {"bench":"datapath","workload":...,"packets":...,
//               "wall_s":...,"packets_per_sec":...,"allocs_per_packet":...,
//               "commit":...,"nproc":...,"ec_isa":...}
//
// Append these to bench/trajectory.jsonl when a PR touches the packet path.
// Scale run length with argv[1] (default 1.0: every measured window lasts
// at least ~0.25 s; CI smoke uses 0.05).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_counter.hpp"
#include "common/units.hpp"
#include "sdr/version.hpp"
#include "reliability/reliable_channel.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measured {
  std::uint64_t packets{0};
  double wall_s{0.0};
  double allocs_per_packet{0.0};
};

void report(const char* workload, const Measured& m) {
  std::printf("%-12s %.3e packets/s  (%llu packets, %.3f s, "
              "%.4f allocs/packet)\n",
              workload, static_cast<double>(m.packets) / m.wall_s,
              static_cast<unsigned long long>(m.packets), m.wall_s,
              m.allocs_per_packet);
  bench::bench_json("\"bench\":\"datapath\",\"workload\":\"%s\","
                    "\"packets\":%llu,\"wall_s\":%.6f,"
                    "\"packets_per_sec\":%.6e,\"allocs_per_packet\":%.6f,"
                    "\"commit\":\"%s\"",
                    workload, static_cast<unsigned long long>(m.packets),
                    m.wall_s, static_cast<double>(m.packets) / m.wall_s,
                    m.allocs_per_packet, kGitCommit);
}

// ---------------------------------------------------------------------------
// Workload 1: pipelined SDR messages over a clean link. CTS round trip,
// one unreliable Write-with-immediate per MTU packet, per-packet data CQEs,
// bitmap set + chunk coalescing, completion, repost. Warmup messages let
// slot tables, CQ rings and the payload pool reach capacity; the remainder
// is the measured steady state.
// ---------------------------------------------------------------------------
Measured run_sdr_clean(int iterations, int warmup, int inflight,
                       std::size_t msg_bytes) {
  telemetry::spans().track("sdr_clean");
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 400 * Gbps;
  cfg.distance_km = 0.1;
  cfg.seed = 11;
  verbs::NicPair nics = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);

  core::Context client(*nics.a, core::DevAttr{});
  core::Context server(*nics.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = 4096;
  attr.chunk_size = 64 * KiB;
  attr.max_msg_size = std::max<std::size_t>(msg_bytes, attr.chunk_size);
  attr.max_inflight = static_cast<std::size_t>(inflight) * 2;
  core::Qp* cq = client.create_qp(attr);
  core::Qp* sq = server.create_qp(attr);
  cq->connect(sq->info());
  sq->connect(cq->info());

  std::vector<std::uint8_t> src(msg_bytes, 0xA5);
  std::vector<std::uint8_t> dst(
      static_cast<std::size_t>(inflight) * attr.max_msg_size, 0);
  const auto* mr = server.mr_reg(dst.data(), dst.size());

  const std::uint64_t pkts_per_msg = msg_bytes / attr.mtu;
  std::uint64_t allocs_at_steady = 0;
  double t_steady = 0.0;
  int posted = 0;
  int completed = 0;

  std::function<void(int)> post_recv = [&](int window_slot) {
    if (posted >= iterations) return;
    ++posted;
    core::RecvHandle* rh = nullptr;
    sq->recv_post(dst.data() + window_slot * attr.max_msg_size, msg_bytes,
                  mr, &rh);
  };
  sq->set_recv_event_handler([&](const core::RecvEvent& ev) {
    if (ev.type != core::RecvEvent::Type::kMessageCompleted) return;
    ++completed;
    if (completed == warmup) {  // steady state begins here
      allocs_at_steady = common::allocations();
      t_steady = now_s();
    }
    const int window_slot = static_cast<int>(
        ev.handle->slot() % static_cast<std::size_t>(inflight));
    sq->recv_complete(ev.handle);
    post_recv(window_slot);
  });

  std::vector<core::SendHandle*> handles;
  int sent = 0;
  std::function<void()> pump = [&] {
    for (auto it = handles.begin(); it != handles.end();) {
      if (cq->send_poll(*it).is_ok()) {
        it = handles.erase(it);
      } else {
        ++it;
      }
    }
    while (sent < iterations &&
           handles.size() < static_cast<std::size_t>(inflight)) {
      core::SendHandle* sh = nullptr;
      if (!cq->send_post(src.data(), msg_bytes, 0, false, &sh)) break;
      handles.push_back(sh);
      ++sent;
    }
    if (completed < iterations) {
      // Reschedule through a one-pointer capture: copying the fat
      // std::function itself would allocate on every poll tick.
      sim.schedule(SimTime::from_micros(1), [&pump] { pump(); });
    }
  };

  for (int w = 0; w < inflight && posted < iterations; ++w) post_recv(w);
  pump();
  sim.run();
  const double wall = now_s() - t_steady;
  const std::uint64_t allocs = common::allocations() - allocs_at_steady;

  if (completed != iterations) {
    std::fprintf(stderr, "sdr_clean: only %d/%d messages completed\n",
                 completed, iterations);
    std::exit(1);
  }
  Measured m;
  m.packets = pkts_per_msg * static_cast<std::uint64_t>(iterations - warmup);
  m.wall_s = wall;
  m.allocs_per_packet =
      static_cast<double>(allocs) / static_cast<double>(m.packets);
  return m;
}

// ---------------------------------------------------------------------------
// Workload 2: verbs RC Writes (Go-Back-N) over a lossy link. Every packet
// sits in the unacked retransmit queue until its ACK; drops trigger NAK
// rewind and timeout retransmission — the commodity-NIC baseline path.
// ---------------------------------------------------------------------------
Measured run_rc_lossy(int iterations, int warmup, std::size_t msg_bytes) {
  telemetry::spans().track("rc_lossy");
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 400 * Gbps;
  cfg.distance_km = 1.0;
  cfg.seed = 23;
  verbs::NicPair nics = verbs::make_connected_pair(sim, cfg, 1e-3, 0.0);

  verbs::CompletionQueue tx_cq(1 << 16), rx_cq(1 << 16);
  tx_cq.reserve(64);  // keep first-touch ring growth out of steady state
  rx_cq.reserve(64);
  verbs::QpConfig qcfg;
  qcfg.type = verbs::QpType::kRC;
  qcfg.mtu = 4096;
  qcfg.rc_ack_timeout_s = 0.001;
  verbs::QpConfig tx_cfg = qcfg;
  tx_cfg.send_cq = &tx_cq;
  verbs::Qp* tx = nics.a->create_qp(tx_cfg);
  verbs::QpConfig rx_cfg = qcfg;
  rx_cfg.recv_cq = &rx_cq;
  verbs::Qp* rx = nics.b->create_qp(rx_cfg);
  tx->connect(nics.b->id(), rx->num());
  rx->connect(nics.a->id(), tx->num());

  std::vector<std::uint8_t> src(msg_bytes, 0x5A);
  std::vector<std::uint8_t> dst(msg_bytes, 0);
  const verbs::MemoryRegion* mr =
      nics.b->pd().register_mr(dst.data(), dst.size());

  const std::uint64_t pkts_per_msg = msg_bytes / qcfg.mtu;
  std::uint64_t allocs_at_steady = 0;
  double t_steady = 0.0;
  int completed = 0;
  int posted = 0;

  std::function<void()> post_next = [&] {
    if (posted >= iterations) return;
    ++posted;
    verbs::WriteWr wr;
    wr.wr_id = static_cast<std::uint64_t>(posted);
    wr.local_addr = src.data();
    wr.length = src.size();
    wr.rkey = mr->rkey();
    wr.remote_offset = 0;
    wr.signaled = true;
    tx->post_write(wr);
  };
  tx_cq.set_notify([&] {
    while (tx_cq.poll_one()) {
      ++completed;
      if (completed == warmup) {
        allocs_at_steady = common::allocations();
        t_steady = now_s();
      }
      post_next();
    }
  });

  post_next();
  sim.run();
  const double wall = now_s() - t_steady;
  const std::uint64_t allocs = common::allocations() - allocs_at_steady;

  if (completed != iterations) {
    std::fprintf(stderr, "rc_lossy: only %d/%d writes completed\n", completed,
                 iterations);
    std::exit(1);
  }
  Measured m;
  m.packets = (pkts_per_msg * static_cast<std::uint64_t>(iterations - warmup)) +
              tx->stats().rc_retransmissions;
  m.wall_s = wall;
  m.allocs_per_packet =
      static_cast<double>(allocs) / static_cast<double>(m.packets);
  return m;
}

// ---------------------------------------------------------------------------
// Workload 3: the full software-defined reliability stack — a
// ReliableChannel (SR RTO) carrying pipelined messages over a 1e-3 lossy
// link. Allocations per packet here include the SR sender/receiver message
// state, ACK wire messages and retransmission timers; the figure is
// reported honestly rather than forced to zero.
// ---------------------------------------------------------------------------
Measured run_sdr_lossy_sr(int iterations, int warmup, std::size_t msg_bytes) {
  telemetry::spans().track("sdr_lossy_sr");
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100 * Gbps;
  cfg.distance_km = 100.0;
  cfg.seed = 37;
  verbs::NicPair nics = verbs::make_connected_pair(sim, cfg, 1e-3, 0.0);

  reliability::ReliableChannel::Options options;
  options.kind = reliability::ReliableChannel::Kind::kSrRto;
  options.profile.bandwidth_bps = cfg.bandwidth_bps;
  options.profile.rtt_s = rtt_s(cfg.distance_km);
  options.profile.p_drop_packet = 1e-3;
  options.profile.mtu = 4096;
  options.profile.chunk_bytes = 64 * KiB;
  options.attr.mtu = 4096;
  options.attr.chunk_size = 64 * KiB;
  options.attr.max_msg_size = std::max<std::size_t>(msg_bytes, 64 * KiB);
  options.attr.max_inflight = 32;
  options.derive_timeouts();
  reliability::ReliableChannel channel(sim, *nics.a, *nics.b, options);

  std::vector<std::uint8_t> src(msg_bytes, 0xC3);
  std::vector<std::uint8_t> dst(msg_bytes, 0);

  const std::uint64_t pkts_per_msg = msg_bytes / options.attr.mtu;

  // The driver state lives in one struct so the per-message completion
  // closure captures a single pointer: it stays inside std::function's
  // small-object buffer and the measured loop allocates nothing itself.
  struct Driver {
    reliability::ReliableChannel& channel;
    std::uint8_t* src;
    std::uint8_t* dst;
    std::size_t msg_bytes;
    int iterations;
    int warmup;
    int posted{0};
    int completed{0};
    std::uint64_t allocs_at_steady{0};
    double t_steady{0.0};

    void post_pair() {
      if (posted >= iterations) return;
      ++posted;
      channel.recv(dst, msg_bytes, [this](const Status&) { on_recv_done(); });
      channel.send(src, msg_bytes, [](const Status&) {});
    }
    void on_recv_done() {
      ++completed;
      if (completed == warmup) {
        allocs_at_steady = common::allocations();
        t_steady = now_s();
      }
      post_pair();
    }
  } driver{channel, src.data(), dst.data(), msg_bytes, iterations, warmup};

  driver.post_pair();
  sim.run();
  const double wall = now_s() - driver.t_steady;
  const std::uint64_t allocs = common::allocations() - driver.allocs_at_steady;

  if (driver.completed != iterations) {
    std::fprintf(stderr, "sdr_lossy_sr: only %d/%d messages completed\n",
                 driver.completed, iterations);
    std::exit(1);
  }
  Measured m;
  m.packets = (pkts_per_msg * static_cast<std::uint64_t>(iterations - warmup)) +
              channel.retransmissions();
  m.wall_s = wall;
  m.allocs_per_packet =
      static_cast<double>(allocs) / static_cast<double>(m.packets);
  return m;
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) {
  // Strips --trace-perfetto=<file> / --profile / --telemetry-out=<dir>
  // before the positional scale argument is read.
  sdr::bench::TelemetrySession telemetry(&argc, argv);
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  auto scaled = [scale](int n, int floor_n) {
    const int v = static_cast<int>(static_cast<double>(n) * scale);
    return v < floor_n ? floor_n : v;
  };

  std::printf("data-path benchmark: end-to-end packets/s and allocs/packet "
              "(scale %.2f)\n\n", scale);

  // Iteration counts: at scale 1.0 every measured window lasts at least
  // ~0.25 s on a 4-vCPU x86 host (shorter windows read +-25 % run to run).
  // Warmup floors: every workload's warmup must visit its full slot /
  // window table at least once so pools and rings reach their high-water
  // capacity before measurement. The smoke-scale (CI) run then shows the
  // same zero-alloc steady state as the full run, and CI asserts on it.
  {
    const int iters = scaled(3072, 72);
    const int warmup = std::max(iters / 8, 40);
    const sdr::Measured m = sdr::run_sdr_clean(iters, warmup, 8, 1 * sdr::MiB);
    sdr::report("sdr_clean", m);
  }
  {
    const int iters = scaled(5120, 72);
    const int warmup = std::max(iters / 8, 40);
    const sdr::Measured m = sdr::run_rc_lossy(iters, warmup, 1 * sdr::MiB);
    sdr::report("rc_lossy", m);
  }
  {
    const int iters = scaled(3072, 72);
    const int warmup = std::max(iters / 8, 40);
    const sdr::Measured m = sdr::run_sdr_lossy_sr(iters, warmup, 1 * sdr::MiB);
    sdr::report("sdr_lossy_sr", m);
  }
  return 0;
}

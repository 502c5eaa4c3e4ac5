// Workloads of the end-to-end benchmark: the fleet at its default operating
// point under each scheme, and two single-connection streams. README.md
// records why each one exists and which layers it stresses or bypasses.
//
// Work per run is fixed by --seconds (fleet seeds, stream window length), not
// by a timer, so two commits always do identical work and the simulated
// metrics are exact per (seed, seconds).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "e2e.hpp"
#include "fleet/fleet.hpp"
#include "reliability/reliable_channel.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::e2e {
namespace {

/// Set-up timing: at least kMinSetupBuilds timed builds, spread over the
/// run (between fleet seeds, at stream window boundaries) so they sample
/// the host as long as the run does, each batch after an untimed build (the
/// first builds of a process pay page faults and allocator growth). run.py
/// reports the median.
constexpr std::size_t kMinSetupBuilds = 31;

double percentile_ms(std::vector<std::int64_t>& ns, double pct) {
  if (ns.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(ns.size() - 1) + 0.5);
  if (idx >= ns.size()) idx = ns.size() - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx),
                   ns.end());
  return static_cast<double>(ns[idx]) * 1e-6;
}

// ---------------------------------------------------------------------------
// Fleet workloads: FleetConfig::defaults() (4 DCs x 64 endpoints, 1500 km,
// Pdrop 1e-4, NIC model on, 70/30 small-op/bulk mix + ring collective),
// 4080 messages per seed, open loop in simulated time. Runs scale by seeds,
// never by messages_per_connection: the EC message table caps at 1024 slots.
// ---------------------------------------------------------------------------

struct FleetSpec {
  const char* name;
  fleet::Scheme scheme;
  /// Seeds per second of --seconds: one run measures about --seconds of
  /// wall time on a 4-core x86 host.
  double seeds_per_s;
};

constexpr FleetSpec kFleets[] = {
    {"fleet_sr", fleet::Scheme::kSr, 3.4},
    {"fleet_ec", fleet::Scheme::kEc, 0.9},
    {"fleet_rc", fleet::Scheme::kRc, 12.0},
};

const FleetSpec* find_fleet(std::string_view name) {
  for (const FleetSpec& f : kFleets) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

/// The fleet's own oracles: every posted message is accounted, the event
/// queue drained, no payload slot leaked and no packet was misrouted.
void check_fleet(const fleet::FleetResult& r, std::uint64_t seed,
                 std::vector<std::string>& errors) {
  const auto fail = [&](const char* what) {
    add_error(errors, "fleet seed %llu: %s",
              static_cast<unsigned long long>(seed), what);
  };
  if (r.messages_completed + r.messages_failed != r.messages_posted) {
    fail("completed + failed != posted");
  }
  if (!r.quiesced) fail("did not quiesce before the horizon");
  if (r.payload_live_slots != 0) fail("payload pool slots still live");
  if (r.unknown_qp_packets != 0 || r.unroutable_packets != 0) {
    fail("packets to unknown QPs or unroutable NICs");
  }
}

/// Adds one fleet seed's message counts to `run` and checks its oracles.
void account_fleet(const fleet::FleetResult& r, std::uint64_t seed,
                   WorkloadRun& run) {
  check_fleet(r, seed, run.errors);
  run.posted += r.messages_posted;
  run.completed += r.messages_completed;
  run.failed += r.messages_failed;
}

Unit fleet_unit(const fleet::FleetResult& r, std::uint64_t seed,
                double wall_s) {
  Unit u;
  u.seed = seed;
  u.wall_s = wall_s;
  u.msgs = r.messages_completed;
  u.sim_goodput_gbps = r.fleet_goodput_gbps;
  u.sim_p99_ms = r.p99_ms;
  u.retransmissions = r.retransmissions;
  u.peak_concurrent = r.peak_concurrent;
  u.digest = r.digest;
  return u;
}

fleet::FleetConfig fleet_config(fleet::Scheme scheme, std::uint64_t seed) {
  fleet::FleetConfig cfg = fleet::FleetConfig::defaults();
  cfg.scheme = scheme;
  cfg.seed = seed;
  return cfg;
}

WorkloadRun run_fleet_workload(const FleetSpec& spec, std::uint64_t seed,
                               double seconds) {
  WorkloadRun run;
  // Set-up: the whole fleet built (topology, every connection's QPs,
  // channels and protocol state) with no traffic, then torn down.
  fleet::FleetConfig empty = fleet_config(spec.scheme, seed);
  empty.messages_per_connection = 0;
  empty.collective = false;
  const auto build = [&] {
    const double t0 = now_s();
    fleet::run_fleet(empty);
    return now_s() - t0;
  };

  const auto seeds = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds * spec.seeds_per_s)));
  const std::size_t builds_per_seed = (kMinSetupBuilds + seeds - 1) / seeds;
  for (std::size_t i = 0; i < seeds; ++i) {
    build();
    for (std::size_t b = 0; b < builds_per_seed; ++b) {
      run.setup_s.push_back(build());
    }
    const std::uint64_t s = derive_seed(seed, i);
    const fleet::FleetConfig cfg = fleet_config(spec.scheme, s);
    const HostSpeed host = host_speed();
    const std::uint64_t allocs_before = allocs();
    const double t0 = now_s();
    const fleet::FleetResult r = fleet::run_fleet(cfg);
    const double wall = now_s() - t0;
    run.allocs += allocs() - allocs_before;
    account_fleet(r, s, run);
    run.units.push_back(fleet_unit(r, s, wall));
    run.units.back().host = host;
  }
  return run;
}

/// The traced-pass protocol of both workload kinds. `pass(traced, run)` runs
/// one unit, accounts its messages in `run` and returns it. One untraced
/// pass warms the process up first, then kTracedPairs untraced/traced pairs
/// run. Each side keeps its fastest wall: a process's first units pay page
/// faults and allocator growth for a pass or two, which would otherwise
/// count against whichever side ran first. The profile is the last traced
/// pass's.
constexpr int kTracedPairs = 2;

template <class Pass>
TracedResult traced_pairs(Pass&& pass) {
  TracedResult out;
  pass(false, out.run);
  for (int i = 0; i < kTracedPairs; ++i) {
    const Unit plain = pass(false, out.run);
    const double traced_s = pass(true, out.run).wall_s;
    if (i == 0) {
      out.run.units.push_back(plain);
      out.traced_wall_s = traced_s;
    }
    out.run.units[0].wall_s = std::min(out.run.units[0].wall_s, plain.wall_s);
    out.traced_wall_s = std::min(out.traced_wall_s, traced_s);
  }
  const telemetry::Profiler& prof = telemetry::profiler();
  for (std::size_t c = 0; c < kProfCategories; ++c) {
    out.prof[c] = prof.entry(static_cast<telemetry::ProfCategory>(c));
  }
  return out;
}

TracedResult run_fleet_traced(const FleetSpec& spec, std::uint64_t seed) {
  const std::uint64_t s = derive_seed(seed, 0);
  const fleet::FleetConfig cfg = fleet_config(spec.scheme, s);
  std::uint64_t first_digest = 0;
  return traced_pairs([&](bool traced, WorkloadRun& run) {
    if (traced) telemetry::profiler().arm();
    const double t0 = now_s();
    const fleet::FleetResult r = fleet::run_fleet(cfg);
    const double wall = now_s() - t0;
    if (traced) telemetry::profiler().disarm();
    account_fleet(r, s, run);
    if (first_digest == 0) first_digest = r.digest;
    if (r.digest != first_digest) {
      add_error(run.errors, "fleet seed %llu: profiling changed the digest",
                static_cast<unsigned long long>(s));
    }
    return fleet_unit(r, s, wall);
  });
}

// ---------------------------------------------------------------------------
// Stream workloads: one connection, closed loop with a fixed number of
// messages in flight. Inputs are seeded: a random byte pattern and, per
// message, a size in [512 KiB, 1 MiB] and a source offset into the pattern.
// Every delivered message is compared byte for byte against its source;
// that check is timed and left out of the window's wall time.
// ---------------------------------------------------------------------------

constexpr std::size_t kMtu = 4096;
constexpr std::size_t kChunk = 64 * KiB;
constexpr std::size_t kMinMsg = 512 * KiB;
constexpr std::size_t kMaxMsg = 1 * MiB;
constexpr std::size_t kPatternBytes = 2 * MiB;
/// Measured windows per run (plus one warm-up window): enough that their
/// median rides out the host's noise bursts.
constexpr std::size_t kWindows = 15;

struct StreamSpec {
  const char* name;
  bool reliable;  // ReliableChannel SR-RTO; otherwise a bare core::Qp pair
  double bandwidth_bps;
  double distance_km;
  double p_drop;
  std::size_t in_flight;
  /// Message sizes are whole multiples of this. ReliableChannel caches one
  /// memory registration per (buffer, length), so the SR stream draws whole
  /// chunks: its few sizes warm the cache within the warm-up window instead
  /// of registering memory throughout the run.
  std::size_t size_step;
  /// Messages per second of --seconds, split over the warm-up and the
  /// measured windows (sized like FleetSpec::seeds_per_s).
  double msgs_per_s;
};

constexpr StreamSpec kStreams[] = {
    {"stream_clean", false, 400 * Gbps, 0.1, 0.0, 8, kMtu, 5500.0},
    {"stream_lossy_sr", true, 100 * Gbps, 100.0, 1e-3, 32, kChunk, 4200.0},
};

const StreamSpec* find_stream(std::string_view name) {
  for (const StreamSpec& s : kStreams) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::size_t window_msgs(const StreamSpec& spec, double seconds) {
  return static_cast<std::size_t>(std::max(
      64.0, std::round(seconds * spec.msgs_per_s /
                       static_cast<double>(kWindows + 1))));
}

struct StreamInputs {
  std::vector<std::uint8_t> pattern;
  std::vector<std::uint32_t> bytes;
  std::vector<std::uint32_t> offset;
};

StreamInputs make_inputs(const StreamSpec& spec, std::uint64_t seed,
                         std::size_t messages) {
  StreamInputs in;
  Rng rng(derive_seed(seed, 0x5157));
  in.pattern.resize(kPatternBytes);
  for (std::size_t i = 0; i < kPatternBytes; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(in.pattern.data() + i, &v, sizeof(v));
  }
  const std::uint64_t sizes = (kMaxMsg - kMinMsg) / spec.size_step + 1;
  const std::uint64_t offsets = (kPatternBytes - kMaxMsg) / kMtu + 1;
  in.bytes.resize(messages);
  in.offset.resize(messages);
  for (std::size_t i = 0; i < messages; ++i) {
    in.bytes[i] = static_cast<std::uint32_t>(
        kMinMsg + rng.next_below(sizes) * spec.size_step);
    in.offset[i] = static_cast<std::uint32_t>(rng.next_below(offsets) * kMtu);
  }
  return in;
}

sim::Channel::Config link_config(const StreamSpec& spec, std::uint64_t seed) {
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = spec.bandwidth_bps;
  cfg.distance_km = spec.distance_km;
  cfg.seed = derive_seed(seed, 0x11c);
  return cfg;
}

/// Splits a stream's completions into one warm-up window and `windows`
/// measured windows of `per_window` messages each. At every boundary it
/// stamps wall time (minus output verification), simulated time, bytes,
/// retransmissions and the in-flight peak, and off the clock times the
/// host-speed reference and runs `off_clock` (whose allocations it keeps
/// out of the stream's count). `traced` arms the profiler for the measured
/// windows only.
class Windows {
 public:
  Windows(std::size_t per_window, std::size_t windows, bool traced,
          std::function<void()> off_clock)
      : per_window_(per_window),
        windows_(windows),
        traced_(traced),
        off_clock_(std::move(off_clock)) {
    latency_ns_.reserve(per_window);
    units_.reserve(windows);
  }

  std::size_t total() const { return per_window_ * (windows_ + 1); }
  std::size_t completed() const { return completed_; }
  std::uint64_t off_clock_allocs() const { return off_clock_allocs_; }
  std::vector<Unit>& units() { return units_; }

  /// Runs `check` (returns true when the output is right) off the clock.
  template <class Check>
  bool verify(Check&& check) {
    const double t0 = now_s();
    const bool ok = check();
    verify_s_ += now_s() - t0;
    return ok;
  }

  void complete(SimTime now, SimTime posted_at, std::uint32_t bytes,
                std::uint64_t retransmissions, std::uint64_t in_flight) {
    ++completed_;
    if (completed_ > per_window_) {
      latency_ns_.push_back((now - posted_at).ns);
      bytes_ += bytes;
      peak_ = std::max(peak_, in_flight);
    }
    if (completed_ % per_window_ == 0) boundary(now, retransmissions);
  }

 private:
  void boundary(SimTime now, std::uint64_t retransmissions) {
    const double wall = now_s();
    if (completed_ > per_window_) {
      Unit u;
      u.wall_s = (wall - wall0_) - (verify_s_ - verify0_);
      u.host = host_;
      u.msgs = per_window_;
      u.sim_goodput_gbps = static_cast<double>(bytes_) * 8.0 /
                           (now - sim0_).seconds() / 1e9;
      u.sim_p99_ms = percentile_ms(latency_ns_, 99.0);
      u.retransmissions = retransmissions - retx0_;
      u.peak_concurrent = peak_;
      units_.push_back(u);
      if (traced_ && completed_ == total()) telemetry::profiler().disarm();
    } else if (traced_) {
      telemetry::profiler().arm();
    }
    if (completed_ < total()) host_ = host_speed();
    if (off_clock_) {
      const std::uint64_t allocs_before = allocs();
      off_clock_();
      off_clock_allocs_ += allocs() - allocs_before;
    }
    latency_ns_.clear();
    bytes_ = 0;
    peak_ = 0;
    sim0_ = now;
    retx0_ = retransmissions;
    verify0_ = verify_s_;
    wall0_ = now_s();
  }

  std::size_t per_window_;
  std::size_t windows_;
  bool traced_;
  std::function<void()> off_clock_;
  std::uint64_t off_clock_allocs_{0};
  std::size_t completed_{0};
  std::vector<std::int64_t> latency_ns_;
  std::uint64_t bytes_{0};
  std::uint64_t peak_{0};
  std::uint64_t retx0_{0};
  SimTime sim0_{};
  double wall0_{0.0};
  HostSpeed host_;
  double verify_s_{0.0};
  double verify0_{0.0};
  std::vector<Unit> units_;
};

/// stream_clean's stack: a bare SDR core::Qp pair (UC write-with-imm per
/// packet, CQE-driven bitmap) — no reliability layer.
struct CleanStack {
  CleanStack(const StreamSpec& spec, std::uint64_t seed, std::uint8_t* dst,
             std::size_t dst_bytes)
      : nics(verbs::make_connected_pair(sim, link_config(spec, seed),
                                        spec.p_drop, 0.0)),
        client(*nics.a, core::DevAttr{}),
        server(*nics.b, core::DevAttr{}) {
    core::QpAttr attr;
    attr.mtu = kMtu;
    attr.chunk_size = kChunk;
    attr.max_msg_size = kMaxMsg;
    attr.max_inflight = 2 * spec.in_flight;
    tx = client.create_qp(attr);
    rx = server.create_qp(attr);
    tx->connect(rx->info());
    rx->connect(tx->info());
    mr = server.mr_reg(dst, dst_bytes);
  }

  sim::Simulator sim;
  verbs::NicPair nics;
  core::Context client;
  core::Context server;
  core::Qp* tx{nullptr};
  core::Qp* rx{nullptr};
  const verbs::MemoryRegion* mr{nullptr};
};

/// Closed loop over a CleanStack: message n goes to destination slot
/// n % in_flight; its completion posts receive n + in_flight, reaps finished
/// sends and tops the send window back up.
class CleanLoop {
 public:
  CleanLoop(CleanStack& stack, const StreamSpec& spec, const StreamInputs& in,
            std::uint8_t* dst, Windows& windows)
      : s_(stack),
        in_(in),
        dst_(dst),
        window_(spec.in_flight),
        windows_(windows),
        send_handles_(spec.in_flight, nullptr),
        send_posted_at_(windows.total()) {}

  void run(std::vector<std::string>& errors) {
    s_.rx->set_recv_event_handler(
        [this](const core::RecvEvent& ev) { on_recv(ev); });
    while (next_recv_ < window_ && next_recv_ < windows_.total()) {
      post_recv();
    }
    pump_sends();
    s_.sim.run();
    if (refused_ != 0) {
      add_error(errors, "stream_clean: %llu posts refused", refused_);
    }
    if (corrupt_ != 0) {
      add_error(errors, "stream_clean: %llu messages differ from their source",
                corrupt_);
    }
  }

 private:
  void post_recv() {
    const std::size_t n = next_recv_++;
    core::RecvHandle* h = nullptr;
    if (!s_.rx->recv_post(dst_ + (n % window_) * kMaxMsg, in_.bytes[n], s_.mr,
                          &h)) {
      ++refused_;
    }
  }

  void on_recv(const core::RecvEvent& ev) {
    if (ev.type != core::RecvEvent::Type::kMessageCompleted) return;
    const std::uint64_t n = ev.handle->msg_number();
    const std::uint8_t* got = dst_ + (n % window_) * kMaxMsg;
    if (!windows_.verify([&] {
          return std::memcmp(got, in_.pattern.data() + in_.offset[n],
                             in_.bytes[n]) == 0;
        })) {
      ++corrupt_;
    }
    s_.rx->recv_complete(ev.handle);
    windows_.complete(s_.sim.now(), send_posted_at_[n], in_.bytes[n], 0,
                      window_);
    if (next_recv_ < windows_.total()) post_recv();
    pump_sends();
  }

  void pump_sends() {
    while (reaped_ < next_send_ &&
           s_.tx->send_poll(send_handles_[reaped_ % window_]).is_ok()) {
      ++reaped_;
    }
    while (next_send_ - reaped_ < window_ && next_send_ < windows_.total()) {
      const std::size_t n = next_send_++;
      send_posted_at_[n] = s_.sim.now();
      if (!s_.tx->send_post(in_.pattern.data() + in_.offset[n], in_.bytes[n],
                            0, false, &send_handles_[n % window_])) {
        ++refused_;
      }
    }
  }

  CleanStack& s_;
  const StreamInputs& in_;
  std::uint8_t* dst_;
  std::size_t window_;
  Windows& windows_;
  std::vector<core::SendHandle*> send_handles_;
  std::vector<SimTime> send_posted_at_;
  std::size_t next_recv_{0};
  std::size_t next_send_{0};
  std::size_t reaped_{0};
  unsigned long long refused_{0};
  unsigned long long corrupt_{0};
};

/// The SDR message table maps message n to slot n % kSrTable; a message is
/// posted only once message n - kSrTable has finished on both sides, so a
/// slow retransmitting message can never have its slot reused under it.
constexpr std::size_t kSrTable = 256;

/// stream_lossy_sr's stack: one ReliableChannel, SR with RTO = 3 RTT.
struct SrStack {
  SrStack(const StreamSpec& spec, std::uint64_t seed)
      : nics(verbs::make_connected_pair(sim, link_config(spec, seed),
                                        spec.p_drop, 0.0)),
        channel(sim, *nics.a, *nics.b, options(spec)) {}

  static reliability::ReliableChannel::Options options(
      const StreamSpec& spec) {
    reliability::ReliableChannel::Options o;
    o.kind = reliability::ReliableChannel::Kind::kSrRto;
    o.profile.bandwidth_bps = spec.bandwidth_bps;
    o.profile.rtt_s = rtt_s(spec.distance_km);
    o.profile.p_drop_packet = spec.p_drop;
    o.profile.mtu = kMtu;
    o.profile.chunk_bytes = kChunk;
    o.attr.mtu = kMtu;
    o.attr.chunk_size = kChunk;
    o.attr.max_msg_size = kMaxMsg;
    o.attr.max_inflight = kSrTable;
    o.derive_timeouts();
    return o;
  }

  sim::Simulator sim;
  verbs::NicPair nics;
  reliability::ReliableChannel channel;
};

/// Closed loop over an SrStack. Messages complete out of order under loss,
/// so destination slots come from a free list and a message's window slot
/// is released only when both its receive and its send (final ACK) are done.
class SrLoop {
 public:
  SrLoop(SrStack& stack, const StreamSpec& spec, const StreamInputs& in,
         std::uint8_t* dst, Windows& windows)
      : s_(stack),
        in_(in),
        dst_(dst),
        window_(spec.in_flight),
        windows_(windows),
        parts_left_(windows.total(), 0),
        slot_of_(windows.total(), 0),
        posted_at_(windows.total()) {
    for (std::size_t i = window_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

  void run(std::vector<std::string>& errors) {
    try_post();
    s_.sim.run();
    if (refused_ != 0) {
      add_error(errors, "stream_lossy_sr: %llu posts refused", refused_);
    }
    if (corrupt_ != 0) {
      add_error(errors,
                "stream_lossy_sr: %llu messages differ from their source",
                corrupt_);
    }
  }

  unsigned long long failed() const { return failed_; }

 private:
  void try_post() {
    while (in_flight_ < window_ && next_ < windows_.total() &&
           (next_ < kSrTable || parts_left_[next_ - kSrTable] == 0)) {
      post(next_++);
    }
  }

  void post(std::size_t n) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slot_of_[n] = slot;
    parts_left_[n] = 2;
    posted_at_[n] = s_.sim.now();
    ++in_flight_;
    const bool rs = s_.channel
                        .recv(dst_ + slot * kMaxMsg, in_.bytes[n],
                              [this, n](const Status& st) { on_recv(n, st); })
                        .is_ok();
    const bool ss = s_.channel
                        .send(in_.pattern.data() + in_.offset[n], in_.bytes[n],
                              [this, n](const Status& st) {
                                if (!st) ++failed_;
                                part_done(n);
                              })
                        .is_ok();
    if (!rs || !ss) ++refused_;
  }

  void on_recv(std::size_t n, const Status& st) {
    if (!st) {
      ++failed_;
    } else {
      const std::uint8_t* got = dst_ + slot_of_[n] * kMaxMsg;
      if (!windows_.verify([&] {
            return std::memcmp(got, in_.pattern.data() + in_.offset[n],
                               in_.bytes[n]) == 0;
          })) {
        ++corrupt_;
      }
    }
    windows_.complete(s_.sim.now(), posted_at_[n], in_.bytes[n],
                      s_.channel.retransmissions(), in_flight_);
    part_done(n);
  }

  void part_done(std::size_t n) {
    if (--parts_left_[n] != 0) return;
    free_slots_.push_back(slot_of_[n]);
    --in_flight_;
    try_post();
  }

  SrStack& s_;
  const StreamInputs& in_;
  std::uint8_t* dst_;
  std::size_t window_;
  Windows& windows_;
  std::vector<std::uint8_t> parts_left_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<SimTime> posted_at_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t next_{0};
  std::size_t in_flight_{0};
  unsigned long long refused_{0};
  unsigned long long corrupt_{0};
  unsigned long long failed_{0};
};

/// One stream run on a fresh stack: warm-up plus `windows` measured
/// windows. Returns the measured units; counts and errors go to `run`, and
/// with `sample_setup` timed stack builds go to `run.setup_s`.
std::vector<Unit> stream_once(const StreamSpec& spec, std::uint64_t seed,
                              std::size_t per_window, std::size_t windows,
                              bool traced, bool sample_setup,
                              WorkloadRun& run) {
  std::vector<std::uint8_t> dst(spec.in_flight * kMaxMsg, 0);
  // Set-up: simulator, link, NICs and the connected stack, up to the first
  // post (the buffers are the application's and exist already).
  const auto build = [&] {
    const double t0 = now_s();
    if (spec.reliable) {
      const SrStack stack(spec, seed);
      return now_s() - t0;
    }
    const CleanStack stack(spec, seed, dst.data(), dst.size());
    return now_s() - t0;
  };
  const std::size_t builds_per_boundary =
      (kMinSetupBuilds + windows) / (windows + 1);
  std::function<void()> off_clock;
  if (sample_setup) {
    off_clock = [&] {
      build();
      for (std::size_t b = 0; b < builds_per_boundary; ++b) {
        run.setup_s.push_back(build());
      }
    };
  }
  Windows w(per_window, windows, traced, std::move(off_clock));
  const StreamInputs in = make_inputs(spec, seed, w.total());
  unsigned long long failed = 0;
  const std::uint64_t allocs_before = allocs();
  if (spec.reliable) {
    SrStack stack(spec, seed);
    SrLoop loop(stack, spec, in, dst.data(), w);
    loop.run(run.errors);
    failed = loop.failed();
  } else {
    CleanStack stack(spec, seed, dst.data(), dst.size());
    CleanLoop loop(stack, spec, in, dst.data(), w);
    loop.run(run.errors);
  }
  run.allocs += allocs() - allocs_before - w.off_clock_allocs();
  run.posted += w.total();
  run.completed += w.completed() - failed;
  run.failed += failed;
  if (w.completed() != w.total()) {
    add_error(run.errors, "%s: only %zu/%zu messages completed", spec.name,
              w.completed(), w.total());
  }
  return std::move(w.units());
}

WorkloadRun run_stream_workload(const StreamSpec& spec, std::uint64_t seed,
                                double seconds) {
  WorkloadRun run;
  run.units = stream_once(spec, seed, window_msgs(spec, seconds), kWindows,
                          false, true, run);
  return run;
}

TracedResult run_stream_traced(const StreamSpec& spec, std::uint64_t seed,
                               double seconds) {
  const std::size_t per_window = window_msgs(spec, seconds);
  return traced_pairs([&](bool traced, WorkloadRun& run) {
    const std::vector<Unit> units =
        stream_once(spec, seed, per_window, 1, traced, false, run);
    if (units.size() != 1) {
      add_error(run.errors, "%s: traced window missing", spec.name);
      return Unit{};
    }
    return units[0];
  });
}

}  // namespace

bool is_workload(std::string_view name) {
  return find_fleet(name) != nullptr || find_stream(name) != nullptr;
}

WorkloadRun run_workload(std::string_view name, std::uint64_t seed,
                         double seconds) {
  if (const FleetSpec* f = find_fleet(name)) {
    return run_fleet_workload(*f, seed, seconds);
  }
  return run_stream_workload(*find_stream(name), seed, seconds);
}

TracedResult run_traced(std::string_view name, std::uint64_t seed,
                        double seconds) {
  if (const FleetSpec* f = find_fleet(name)) {
    return run_fleet_traced(*f, seed);
  }
  return run_stream_traced(*find_stream(name), seed, seconds);
}

}  // namespace sdr::e2e

// Cross-datacenter bulk transfer with guided reliability choice.
//
// Scenario from the paper's §5.2 case study: two datacenters connected by a
// long-haul channel. The tuner evaluates the completion-time model for the
// deployment, recommends a scheme, and then the example *runs* the transfer
// end-to-end with both Selective Repeat and Erasure Coding over the full
// SDR stack to compare measured (virtual-time) completion.
//
// Run: ./cross_dc_transfer [distance_km] [gbps] [packet_drop] [MiB]
//      defaults: 3750 km, 400 Gbit/s, 1e-4, 64 MiB
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "reliability/reliable_channel.hpp"
#include "reliability/tuner.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

using namespace sdr;  // NOLINT — example code

namespace {

double run_transfer(reliability::ReliableChannel::Kind kind,
                    const reliability::LinkProfile& profile,
                    double packet_drop, std::size_t bytes,
                    std::uint64_t* retransmissions) {
  sim::Simulator sim;
  sim::Channel::Config link;
  link.bandwidth_bps = profile.bandwidth_bps;
  link.distance_km = rtt_to_km(profile.rtt_s);
  link.seed = 4242;
  verbs::NicPair nics = verbs::make_connected_pair(sim, link, packet_drop, 0.0);

  reliability::ReliableChannel::Options options;
  options.kind = kind;
  options.profile = profile;
  options.attr.mtu = profile.mtu;
  options.attr.chunk_size = profile.chunk_bytes;
  options.attr.max_msg_size = 16 * MiB;
  options.attr.max_inflight = 256;
  options.ec.k = 32;
  options.ec.m = 8;
  options.derive_timeouts();
  reliability::ReliableChannel channel(sim, *nics.a, *nics.b, options);

  // Chop the transfer into 8 MiB reliable Writes (k*chunk-aligned for EC)
  // and pipeline them: all receives pre-posted, all sends in flight — the
  // SDR message table is sized for exactly this.
  const std::size_t piece = 8 * MiB;
  const std::size_t pieces = (bytes + piece - 1) / piece;
  std::vector<std::uint8_t> src(bytes), dst(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 131);
  }
  std::size_t completed = 0;
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t off = p * piece;
    const std::size_t len = std::min(piece, bytes - off);
    channel.recv(dst.data() + off, len, [&completed](const Status& s) {
      if (s.is_ok()) ++completed;
    });
  }
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t off = p * piece;
    const std::size_t len = std::min(piece, bytes - off);
    channel.send(src.data() + off, len, [](const Status&) {});
  }
  sim.run();
  if (completed != pieces || std::memcmp(dst.data(), src.data(), bytes) != 0) {
    std::fprintf(stderr, "transfer failed!\n");
    return -1.0;
  }
  const double completion = sim.now().seconds();
  if (retransmissions != nullptr) {
    *retransmissions = channel.retransmissions();
  }
  return completion;
}

}  // namespace

int main(int argc, char** argv) {
  const double km = argc > 1 ? std::stod(argv[1]) : 3750.0;
  const double gbps = argc > 2 ? std::stod(argv[2]) : 400.0;
  const double packet_drop = argc > 3 ? std::stod(argv[3]) : 1e-4;
  const std::size_t mib = argc > 4 ? std::stoul(argv[4]) : 64;
  const std::size_t bytes = mib * MiB;

  reliability::LinkProfile profile;
  profile.bandwidth_bps = gbps * 1e9;
  profile.rtt_s = rtt_s(km);
  profile.p_drop_packet = packet_drop;
  profile.mtu = 4096;
  profile.chunk_bytes = 64 * KiB;

  std::printf("deployment: %s over %.0f km (RTT %s), packet drop %.1e, "
              "transfer %s\n\n",
              format_rate(profile.bandwidth_bps).c_str(), km,
              format_seconds(profile.rtt_s).c_str(), packet_drop,
              format_bytes(bytes).c_str());

  // --- Model-guided recommendation.
  const auto rec = reliability::recommend(profile, bytes);
  std::printf("tuner recommendation: %s\n  %s\n\n",
              model::scheme_name(rec.best.scheme).c_str(),
              rec.rationale.c_str());

  // --- Execute with SR RTO, SR NACK and EC MDS; compare virtual time.
  TextTable table({"scheme", "completion", "vs ideal", "retransmissions"});
  const double ideal = static_cast<double>(bytes) * 8.0 /
                           profile.bandwidth_bps +
                       profile.rtt_s;
  struct Run {
    const char* name;
    reliability::ReliableChannel::Kind kind;
  };
  const Run runs[] = {
      {"SR RTO", reliability::ReliableChannel::Kind::kSrRto},
      {"SR NACK", reliability::ReliableChannel::Kind::kSrNack},
      {"EC MDS(32,8)", reliability::ReliableChannel::Kind::kEcMds},
  };
  for (const Run& run : runs) {
    std::uint64_t retr = 0;
    const double t = run_transfer(run.kind, profile, packet_drop, bytes, &retr);
    if (t < 0) return 1;
    table.add_row({run.name, format_seconds(t),
                   TextTable::num(t / ideal, 3) + "x", std::to_string(retr)});
  }
  table.print();
  std::printf("\n(ideal lossless pipeline: %s)\n",
              format_seconds(ideal).c_str());
  return 0;
}

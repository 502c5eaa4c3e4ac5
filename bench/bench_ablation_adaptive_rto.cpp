// Ablation: static vs adaptive (RFC 6298-style) retransmission timeout in
// the executable SR protocol (paper §4.1.1 lists RTO tuning among the SR
// extensions SDR enables). A deployment whose RTT estimate is wrong by an
// order of magnitude — common when one endpoint serves peers at very
// different distances (§2.1: "a single endpoint might communicate with
// remote endpoints at varying distances") — pays the misconfiguration on
// every drop; the adaptive sender learns the channel in one message.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

using namespace sdr;  // NOLINT

namespace {

struct Outcome {
  double total_s{0.0};
  std::uint64_t retransmissions{0};
  double learned_rto_s{0.0};
};

Outcome run(double true_rtt_s, double configured_rto_s, bool adaptive,
            double p_drop, int messages) {
  sim::Simulator sim;
  bench::TelemetrySession::attach(sim);
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100 * Gbps;
  cfg.distance_km = rtt_to_km(true_rtt_s);
  cfg.seed = 4711;
  verbs::NicPair nics = verbs::make_connected_pair(sim, cfg, p_drop, 0.0);
  core::Context ctx_a(*nics.a, core::DevAttr{});
  core::Context ctx_b(*nics.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = 4096;
  attr.chunk_size = 16 * KiB;
  attr.max_msg_size = 8 * MiB;
  core::Qp* qa = ctx_a.create_qp(attr);
  core::Qp* qb = ctx_b.create_qp(attr);
  qa->connect(qb->info());
  qb->connect(qa->info());
  verbs::ControlLink ca(*nics.a), cb(*nics.b);
  ca.connect(nics.b->id(), cb.qp_number());
  cb.connect(nics.a->id(), ca.qp_number());

  reliability::LinkProfile profile;
  profile.bandwidth_bps = cfg.bandwidth_bps;
  profile.rtt_s = true_rtt_s;
  profile.mtu = attr.mtu;
  profile.chunk_bytes = attr.chunk_size;

  reliability::SrProtoConfig config;
  config.rto_s = configured_rto_s;
  config.adaptive_rto = adaptive;
  config.ack_interval_s = true_rtt_s / 4.0;
  reliability::SrSender sender(sim, *qa, ca, profile, config);
  reliability::SrReceiver receiver(sim, *qb, cb, profile, config);

  const std::size_t bytes = 4 * MiB;
  std::vector<std::uint8_t> src(bytes, 0x42), dst(bytes);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  for (int m = 0; m < messages; ++m) {
    bool ok = false;
    receiver.expect(dst.data(), bytes, mr,
                    [&](const Status& s) { ok = s.is_ok(); });
    sender.write(src.data(), bytes, [](const Status&) {});
    sim.run();
    if (!ok || std::memcmp(dst.data(), src.data(), bytes) != 0) {
      std::fprintf(stderr, "transfer failed\n");
      break;
    }
  }
  Outcome out;
  out.total_s = sim.now().seconds();
  out.retransmissions = sender.stats().retransmissions;
  out.learned_rto_s = sender.rtt_estimator().rto_s();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetrySession telemetry(&argc, argv);
  bench::figure_header("Ablation: static vs adaptive RTO (§4.1.1)",
                       "8 x 4 MiB messages, 1%% packet drop; the configured "
                       "RTO assumes a 3750 km peer but the actual peer is "
                       "100 km away (1 ms RTT)");

  const double true_rtt = 0.001;        // actual channel
  const double configured_rto = 0.075;  // tuned for a 25 ms-RTT deployment
  const double p_drop = 0.01;
  const int messages = 8;

  TextTable t({"RTO policy", "total time", "retransmissions",
               "final sender RTO"});
  const Outcome fixed =
      run(true_rtt, configured_rto, /*adaptive=*/false, p_drop, messages);
  const Outcome learned =
      run(true_rtt, configured_rto, /*adaptive=*/true, p_drop, messages);
  t.add_row({"static 75 ms", format_seconds(fixed.total_s),
             std::to_string(fixed.retransmissions), "75 ms (fixed)"});
  t.add_row({"adaptive (RFC 6298)", format_seconds(learned.total_s),
             std::to_string(learned.retransmissions),
             format_seconds(learned.learned_rto_s)});
  t.print();
  std::printf("\nspeedup from learning the channel: %.1fx — per-connection "
              "RTO provisioning is exactly the per-deployment tuning the "
              "SDR architecture is built to enable.\n",
              fixed.total_s / learned.total_s);
  return learned.total_s < fixed.total_s ? 0 : 1;
}

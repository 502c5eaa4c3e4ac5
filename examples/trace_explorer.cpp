// Trace explorer: replay a lossy SR transfer with the causal span recorder
// armed and print the span tree of the transferred message — every chunk
// that needed recovery is expanded into its wire attempts and the protocol
// decisions between them, with cause links:
//
//   chunk 173
//     attempt#0 ... dropped
//     rto_fired      <- caused by attempt#0
//     retransmit     <- caused by rto_fired
//     attempt#1 ... complete   <- caused by retransmit
//
// This is the debugging workflow the telemetry layer exists for: the same
// joined view `--trace-perfetto` renders graphically, as a terminal tree.
// Chunks that sailed through cleanly are elided and counted.
//
// Run: ./trace_explorer [packet_drop] [KiB] [seed]
//      defaults: 0.03, 256 KiB, 5
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "reliability/reliable_channel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/nic.hpp"

using namespace sdr;  // NOLINT — example code

namespace {

const char* annotate(telemetry::EventKind kind) {
  using T = telemetry::EventKind;
  switch (kind) {
    case T::kPosted: return "SDR posts the chunk to a data QP";
    case T::kCts: return "receiver clear-to-send arrives";
    case T::kTx: return "packet enters the lossy channel";
    case T::kDropped: return "channel drop model eats the packet";
    case T::kQueueDrop: return "channel queue overflows (tail drop)";
    case T::kReordered: return "packet held back for reordering";
    case T::kDuplicated: return "channel duplicates the packet";
    case T::kDelivered: return "packet reaches the remote NIC";
    case T::kCqe: return "receive CQE surfaces at the SDR layer";
    case T::kBitmapUpdate: return "receive bitmap marks the chunk done";
    case T::kAckSent: return "receiver emits a cumulative ACK";
    case T::kNackSent: return "receiver NACKs a gap";
    case T::kRtoFired: return "sender retransmission timeout fires";
    case T::kRetransmit: return "sender retransmits the chunk";
    case T::kEcRepair: return "EC decode repairs the submessage";
    case T::kEcFallback: return "EC falls back to retransmission";
    case T::kMsgComplete: return "message fully received";
    default: return "";  // flight-recorder kinds never become span instants
  }
}

std::string span_label(const telemetry::Span& s) {
  char buf[48];
  switch (s.kind) {
    case telemetry::SpanKind::kMessage:
      std::snprintf(buf, sizeof(buf), "msg %llu",
                    static_cast<unsigned long long>(s.msg));
      break;
    case telemetry::SpanKind::kChunk:
      std::snprintf(buf, sizeof(buf), "chunk %u", s.chunk);
      break;
    case telemetry::SpanKind::kAttempt:
      std::snprintf(buf, sizeof(buf), "attempt#%u", s.attempt);
      break;
    case telemetry::SpanKind::kInstant:
      std::snprintf(buf, sizeof(buf), "%s", telemetry::to_string(s.what));
      break;
  }
  return buf;
}

void print_span(const telemetry::SpanRecorder& sp, telemetry::SpanIndex i,
                int indent) {
  const telemetry::Span& s = sp.at(i);
  char times[64];
  if (s.kind == telemetry::SpanKind::kInstant) {
    std::snprintf(times, sizeof(times), "@%.9f s", s.begin.seconds());
  } else {
    std::snprintf(times, sizeof(times), "%.9f-%.9f s", s.begin.seconds(),
                  s.end.seconds());
  }
  char detail[96] = "";
  if (s.kind == telemetry::SpanKind::kAttempt) {
    std::snprintf(detail, sizeof(detail), "  %llu B imm=0x%08x",
                  static_cast<unsigned long long>(s.bytes), s.imm);
  } else if (s.kind == telemetry::SpanKind::kInstant) {
    std::snprintf(detail, sizeof(detail), "  (%s)", annotate(s.what));
  }
  std::string cause;
  if (s.cause != telemetry::kNoSpan) {
    cause = "  <- caused by " + span_label(sp.at(s.cause));
  }
  std::printf("%*s%-12s %s  %s%s%s\n", indent, "", span_label(s).c_str(),
              times,
              s.kind == telemetry::SpanKind::kInstant
                  ? ""
                  : telemetry::to_string(s.outcome),
              detail, cause.c_str());
}

/// A chunk earned its place in the tree if anything beyond the happy path
/// happened to it: extra attempts, a lost attempt, or a protocol decision.
bool chunk_is_interesting(const telemetry::SpanRecorder& sp,
                          telemetry::SpanIndex chunk) {
  std::size_t attempts = 0;
  for (telemetry::SpanIndex c : sp.children(chunk)) {
    const telemetry::Span& s = sp.at(c);
    if (s.kind == telemetry::SpanKind::kAttempt) {
      ++attempts;
      if (s.outcome != telemetry::SpanOutcome::kComplete) return true;
    } else if (s.kind == telemetry::SpanKind::kInstant &&
               (s.what == telemetry::EventKind::kRtoFired ||
                s.what == telemetry::EventKind::kRetransmit ||
                s.what == telemetry::EventKind::kNackSent)) {
      return true;
    }
  }
  return attempts > 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double p_drop = argc > 1 ? std::atof(argv[1]) : 0.03;
  const std::size_t kib = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 256;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 5;
  const std::size_t bytes = kib * KiB;

  // Run-scoped telemetry: local instances installed for this run only, so
  // an embedding process (or another run in the same process) never sees
  // this run's metrics, and nothing mutates the process-wide default.
  telemetry::Registry registry;
  telemetry::SpanRecorder span_rec;
  registry.enable();
  span_rec.arm();
  telemetry::ScopedTelemetry scoped(&registry, &span_rec);

  sim::Simulator sim;
  sim::Channel::Config link;
  link.bandwidth_bps = 100 * Gbps;
  link.distance_km = 100.0;  // ~1 ms RTT
  link.seed = seed;
  verbs::NicPair nics = verbs::make_connected_pair(sim, link, p_drop, 0.0);

  reliability::ReliableChannel::Options options;
  options.kind = reliability::ReliableChannel::Kind::kSrRto;
  options.profile.bandwidth_bps = link.bandwidth_bps;
  options.profile.rtt_s = 2.0 * propagation_delay_s(link.distance_km);
  options.profile.p_drop_packet = p_drop;
  // chunk == MTU so the wire packet index equals the SR chunk index and a
  // chunk's whole life is a single packet stream — the simplest tree.
  options.profile.mtu = 1024;
  options.profile.chunk_bytes = 1024;
  options.attr.mtu = 1024;
  options.attr.chunk_size = 1024;
  options.attr.max_msg_size = 4 * MiB;
  options.attr.max_inflight = 8;
  options.derive_timeouts();
  reliability::ReliableChannel channel(sim, *nics.a, *nics.b, options);

  std::vector<std::uint8_t> src(bytes), dst(bytes, 0);
  for (std::size_t i = 0; i < bytes; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 131);
  }
  bool done = false;
  channel.recv(dst.data(), bytes, [&](const Status& s) {
    done = s.is_ok();
  });
  channel.send(src.data(), bytes, [](const Status&) {});
  sim.run();

  if (!done || std::memcmp(src.data(), dst.data(), bytes) != 0) {
    std::fprintf(stderr, "transfer failed\n");
    return 1;
  }
  std::printf("Transferred %s over %.0f km at %.0f Gbit/s, p_drop=%g: "
              "%llu retransmissions, completion %.6f s (sim time)\n\n",
              format_bytes(bytes).c_str(), link.distance_km,
              link.bandwidth_bps / 1e9, p_drop,
              static_cast<unsigned long long>(channel.retransmissions()),
              sim.now().seconds());

  // Walk every message span: expand chunks that needed recovery into their
  // attempt/decision subtree, count the clean ones.
  const telemetry::SpanRecorder& sp = span_rec;
  bool any_interesting = false;
  for (telemetry::SpanIndex root : sp.children(telemetry::kNoSpan)) {
    if (sp.at(root).kind != telemetry::SpanKind::kMessage) continue;
    std::printf("Span tree of %s:\n", span_label(sp.at(root)).c_str());
    print_span(sp, root, 0);
    std::size_t clean = 0;
    for (telemetry::SpanIndex chunk : sp.children(root)) {
      const telemetry::Span& cs = sp.at(chunk);
      if (cs.kind != telemetry::SpanKind::kChunk) {
        print_span(sp, chunk, 2);  // message-level instants (cts, ...)
        continue;
      }
      if (!chunk_is_interesting(sp, chunk)) {
        ++clean;
        continue;
      }
      any_interesting = true;
      print_span(sp, chunk, 2);
      // Coalesce runs of identical cause-free instants (e.g. the periodic
      // cumulative ACK stuck at this chunk while its retransmission is in
      // flight) into one line.
      const std::vector<telemetry::SpanIndex> kids = sp.children(chunk);
      for (std::size_t k = 0; k < kids.size();) {
        const telemetry::Span& s = sp.at(kids[k]);
        std::size_t run = 1;
        if (s.kind == telemetry::SpanKind::kInstant) {
          while (k + run < kids.size()) {
            const telemetry::Span& n = sp.at(kids[k + run]);
            if (n.kind != telemetry::SpanKind::kInstant ||
                n.what != s.what || n.cause != telemetry::kNoSpan) {
              break;
            }
            ++run;
          }
        }
        print_span(sp, kids[k], 4);
        if (run > 1) {
          std::printf("      ... x%zu more until %.9f s\n", run - 1,
                      sp.at(kids[k + run - 1]).begin.seconds());
        }
        k += run;
      }
    }
    if (clean > 0) {
      std::printf("  (%zu clean chunks elided: one delivered attempt "
                  "each)\n", clean);
    }
  }
  if (!any_interesting) {
    std::printf("No chunk was retransmitted (drop dice were kind) — rerun "
                "with a higher drop rate or another seed.\n");
  }

  std::printf("\nRegistry snapshot (reliability.sr.*):\n");
  std::vector<telemetry::FlatMetric> metrics;
  telemetry::registry().flatten(metrics);
  for (const auto& m : metrics) {
    if (m.name.rfind("reliability.sr.", 0) == 0) {
      std::printf("  %-44s %.6g\n", m.name.c_str(), m.value);
    }
  }
  return 0;
}

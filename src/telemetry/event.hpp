// One instrumentation event per protocol hook.
//
// Every instrumented hook in the stack (channel, verbs RC, SDR core, SR and
// EC layers) reports a state change exactly once:
//
//   if (telemetry::observing()) telemetry::emit({...});
//
// `observing()` is one thread-local bool, true while the calling thread's
// span recorder or flight recorder is armed, so a disarmed stack costs one
// never-taken branch per hook and zero allocations; the Event is built only
// inside the guard. emit() feeds both consumers:
//
//   * SpanRecorder::consume (span.hpp) — the causal message -> chunk ->
//     attempt tree exported to Perfetto,
//   * FlightRecorder::consume (flight_recorder.hpp) — per-(layer, conn)
//     rings of the reliability layers' last state transitions,
//
// and checks on the way that sim time never runs backwards on this thread
// (event_order(); the sdrcheck harness turns a regression into an oracle
// failure).
//
// Events are PODs. The span tree reads the cross-layer join fields (qp,
// msg, chunk, imm, bytes); the flight ring reads the per-kind operands
// a/b/c, documented at each hook and in DESIGN.md §4f. posted, tx,
// delivered, cqe and msg_complete stay distinct kinds on purpose: a
// completion does not prove delivery, nor a delivery a completion.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace sdr::telemetry {

namespace detail {
// True while the calling thread's span or flight recorder is armed. Kept in
// sync by the recorders' arm/disarm and set_thread_* installers. constinit
// (here and on the other fast flags) keeps cross-TU reads a bare TLS load:
// without it the compiler must route every access through the dynamic-init
// guard, which costs a branch per guard check and miscompiles under
// -fsanitize=null on GCC 12 (stale-flags branch into the null trap).
extern thread_local constinit bool g_observing;
/// Recompute g_observing from the calling thread's current recorders.
void resync_observing();
}  // namespace detail

/// Sentinels for fields an event's layer cannot know.
inline constexpr std::uint64_t kNoMsg = ~std::uint64_t{0};
inline constexpr std::uint32_t kNoChunk = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoImm = 0xFFFFFFFFu;

enum class EventKind : std::uint8_t {
  kPosted,        // SDR staged a packet for a data QP
  kCts,           // clear-to-send control message processed
  kTx,            // packet entered the channel
  kDropped,       // drop model discarded the packet
  kQueueDrop,     // channel tail-drop (queue capacity exceeded)
  kReordered,     // packet got extra reorder delay
  kDuplicated,    // channel emitted a duplicate copy
  kDelivered,     // packet handed to the receiving NIC
  kCqe,           // completion queue entry processed by SDR
  kBitmapUpdate,  // message-table chunk bit set
  kAckSent,       // SR receiver sent a (cumulative/selective) ACK
  kNackSent,      // SR receiver sent a NACK
  kRtoFired,      // retransmission/fallback timeout fired
  kRetransmit,    // chunk/packet re-sent
  kEcRepair,      // erasure-coded block recovered from parity
  kEcFallback,    // EC sender fell back to SR for a block
  kMsgComplete,   // message fully received
  kWrite,         // reliability sender accepted a message
  kAckApplied,    // SR sender applied an ACK
  kNackApplied,   // SR sender applied a NACK
  kMsgDone,       // reliability sender finished a message
  kSubRecovered,  // EC receiver recovered a submessage
  kNak,           // RC receiver sent a transport NAK
};

const char* to_string(EventKind kind);

/// The stack layer that emitted an event.
enum class Layer : std::uint8_t { kWire, kSdr, kSr, kEc, kRc };

const char* to_string(Layer layer);

struct Event {
  SimTime t{};
  EventKind kind{EventKind::kPosted};
  Layer layer{Layer::kSdr};
  /// Flight-ring key within the layer: the reliability layer's control QP
  /// number, or the RC transport QP number.
  std::uint64_t conn{0};
  /// posted: the destination data QP (the span tree's message QP).
  std::uint32_t qp{0};
  std::uint64_t msg{kNoMsg};
  /// Reliability-granularity chunk (attr.chunk_size units); RC: the PSN.
  std::uint32_t chunk{kNoChunk};
  /// Wire immediate; kNoImm for packets that carry none.
  std::uint32_t imm{kNoImm};
  std::uint64_t bytes{0};
  /// Per-kind operands (posted: a = wire packet index; flight kinds: see
  /// DESIGN.md §4f).
  std::uint64_t a{0};
  std::uint64_t b{0};
  std::uint64_t c{0};
};

/// True when this thread has an armed event consumer; one plain branch.
inline bool observing() { return detail::g_observing; }

/// Hands `e` to the calling thread's span and flight recorders.
void emit(Event e);

/// The calling thread's event-order check, updated by every emit(): the
/// time of the last event and how many events came before their
/// predecessor in sim time. Reset it (`event_order() = {}`) when a new
/// simulation starts on the thread.
struct EventOrder {
  SimTime last{};
  std::uint64_t events{0};
  std::uint64_t regressions{0};
};
EventOrder& event_order();

}  // namespace sdr::telemetry

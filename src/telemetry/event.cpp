#include "telemetry/event.hpp"

#include "common/failpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/span.hpp"

namespace sdr::telemetry {

namespace detail {

thread_local constinit bool g_observing = false;

void resync_observing() { g_observing = spans().armed() || flight().armed(); }

}  // namespace detail

namespace {
thread_local EventOrder t_order;
}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kPosted: return "posted";
    case EventKind::kCts: return "cts";
    case EventKind::kTx: return "tx";
    case EventKind::kDropped: return "dropped";
    case EventKind::kQueueDrop: return "queue_drop";
    case EventKind::kReordered: return "reordered";
    case EventKind::kDuplicated: return "duplicated";
    case EventKind::kDelivered: return "delivered";
    case EventKind::kCqe: return "cqe";
    case EventKind::kBitmapUpdate: return "bitmap_update";
    case EventKind::kAckSent: return "ack_sent";
    case EventKind::kNackSent: return "nack_sent";
    case EventKind::kRtoFired: return "rto_fired";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kEcRepair: return "ec_repair";
    case EventKind::kEcFallback: return "ec_fallback";
    case EventKind::kMsgComplete: return "msg_complete";
    case EventKind::kWrite: return "write";
    case EventKind::kAckApplied: return "ack_applied";
    case EventKind::kNackApplied: return "nack_applied";
    case EventKind::kMsgDone: return "msg_done";
    case EventKind::kSubRecovered: return "sub_recovered";
    case EventKind::kNak: return "nak";
  }
  return "unknown";
}

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kWire: return "wire";
    case Layer::kSdr: return "sdr";
    case Layer::kSr: return "sr";
    case Layer::kEc: return "ec";
    case Layer::kRc: return "rc";
  }
  return "unknown";
}

void emit(Event e) {
  EventOrder& order = t_order;
  // Failpoint for the conformance harness: stamp the event just before its
  // predecessor, as a hook reading a stale clock would.
  if (SDR_FAILPOINT("telemetry.stale_event_time") && order.last.ns > 0) {
    e.t = SimTime{order.last.ns - 1};
  }
  ++order.events;
  if (e.t < order.last) ++order.regressions;
  order.last = e.t;
  spans().consume(e);
  flight().consume(e);
}

EventOrder& event_order() { return t_order; }

}  // namespace sdr::telemetry

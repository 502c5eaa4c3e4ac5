#include "telemetry/flight_recorder.hpp"

#include <cinttypes>
#include <cstdio>

namespace sdr::telemetry {

namespace {

FlightRecorder& default_flight() {
  static FlightRecorder instance;
  return instance;
}

thread_local FlightRecorder* t_flight = nullptr;

}  // namespace

void FlightRecorder::arm(std::size_t per_conn_capacity) {
  per_conn_ = per_conn_capacity == 0 ? 1 : per_conn_capacity;
  rings_.clear();
  armed_ = true;
  detail::resync_observing();
}

void FlightRecorder::disarm() {
  armed_ = false;
  rings_.clear();
  detail::resync_observing();
}

void FlightRecorder::consume(const Event& e) {
  if (!armed_ || e.layer == Layer::kWire || e.layer == Layer::kSdr) return;
  Ring& ring = rings_[Key{e.layer, e.conn}];
  if (ring.buf.empty()) ring.buf.resize(per_conn_);
  ring.buf[ring.head] = e;
  ring.head = ring.head + 1 == ring.buf.size() ? 0 : ring.head + 1;
  if (ring.size < ring.buf.size()) {
    ++ring.size;
  } else {
    ++ring.overwritten;
  }
}

std::vector<Event> FlightRecorder::history(Layer layer,
                                           std::uint64_t conn) const {
  std::vector<Event> out;
  const auto it = rings_.find(Key{layer, conn});
  if (it == rings_.end()) return out;
  const Ring& ring = it->second;
  out.reserve(ring.size);
  const std::size_t start =
      ring.size == ring.buf.size() ? ring.head : 0;
  for (std::size_t i = 0; i < ring.size; ++i) {
    std::size_t idx = start + i;
    if (idx >= ring.buf.size()) idx -= ring.buf.size();
    out.push_back(ring.buf[idx]);
  }
  return out;
}

std::string FlightRecorder::to_json() const {
  std::string out;
  out.append("{\"connections\":[");
  char buf[256];
  bool first_conn = true;
  for (const auto& [key, ring] : rings_) {
    if (!first_conn) out.push_back(',');
    first_conn = false;
    int n = std::snprintf(buf, sizeof(buf),
                          "{\"layer\":\"%s\",\"conn\":%" PRIu64
                          ",\"overwritten\":%" PRIu64 ",\"records\":[",
                          to_string(key.first), key.second, ring.overwritten);
    out.append(buf, static_cast<std::size_t>(n));
    const std::size_t start =
        ring.size == ring.buf.size() ? ring.head : 0;
    for (std::size_t i = 0; i < ring.size; ++i) {
      std::size_t idx = start + i;
      if (idx >= ring.buf.size()) idx -= ring.buf.size();
      const Event& r = ring.buf[idx];
      n = std::snprintf(buf, sizeof(buf),
                        "%s{\"t_s\":%.9f,\"what\":\"%s\","
                        "\"msg\":%" PRIu64 ",\"a\":%" PRIu64 ",\"b\":%" PRIu64
                        ",\"c\":%" PRIu64 "}",
                        i == 0 ? "" : ",", r.t.seconds(), to_string(r.kind),
                        r.msg, r.a, r.b, r.c);
      out.append(buf, static_cast<std::size_t>(n));
    }
    out.append("]}");
  }
  out.append("]}\n");
  return out;
}

FlightRecorder& flight() {
  return t_flight != nullptr ? *t_flight : default_flight();
}

FlightRecorder* set_thread_flight(FlightRecorder* f) {
  FlightRecorder* prev = t_flight;
  t_flight = f;
  detail::resync_observing();
  return prev;
}

}  // namespace sdr::telemetry

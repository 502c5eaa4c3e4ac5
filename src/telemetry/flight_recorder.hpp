// Flight recorder: per-connection ring of the last-N protocol state
// transitions, snapshot-dumpable as JSON for postmortems.
//
// When an sdrcheck oracle fails, the seed repro line says *which* run broke;
// the flight recorder says *what the protocol was doing* right before: SR
// window fill and RTO decisions, EC repair/fallback state, RC ePSN motion.
// It consumes the event stream (event.hpp) of the reliability layers —
// sr, ec, rc — and keeps one bounded ring per (layer, conn), conn being the
// layer's control/transport QP number. Old transitions are overwritten, so
// a dump is always "the last N things each connection did", which is
// exactly the postmortem view. Wire and SDR-core events are per packet and
// stay out of the rings (they would flush a connection's history within one
// message); the span tree has them.
//
// A record's tag is to_string(kind); its three operands a/b/c are
// documented per kind at the hooks and in DESIGN.md §4f.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/event.hpp"

namespace sdr::telemetry {

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Starts accepting events; each connection's ring holds the last
  /// `per_conn_capacity` transitions (ring storage is allocated lazily on a
  /// connection's first event — arming itself allocates nothing).
  void arm(std::size_t per_conn_capacity = 128);
  void disarm();
  bool armed() const { return armed_; }

  /// Records `e` when armed and `e` comes from a reliability layer.
  void consume(const Event& e);

  std::size_t connections() const { return rings_.size(); }
  std::size_t per_conn_capacity() const { return per_conn_; }
  /// A connection's surviving events, oldest first.
  std::vector<Event> history(Layer layer, std::uint64_t conn) const;

  /// {"connections":[{"layer":"sr","conn":N,"overwritten":K,"records":[
  /// {"t_s":..,"what":..,"msg":..,"a":..,"b":..,"c":..}]}]} with connections
  /// in ascending (layer, conn) order (deterministic dumps).
  std::string to_json() const;

 private:
  struct Ring {
    std::vector<Event> buf;
    std::size_t head{0};  // next write position
    std::size_t size{0};
    std::uint64_t overwritten{0};
  };
  using Key = std::pair<Layer, std::uint64_t>;

  bool armed_{false};
  std::size_t per_conn_{128};
  std::map<Key, Ring> rings_;  // ordered: deterministic JSON
};

/// The calling thread's current flight recorder (set_thread_flight override
/// or the process-wide default).
FlightRecorder& flight();
FlightRecorder* set_thread_flight(FlightRecorder* f);

}  // namespace sdr::telemetry

// Umbrella header for the telemetry subsystem.
//
//   registry()  — hierarchical counters/gauges/histograms, sampled over time
//   emit()      — one event per protocol hook, fed to the two recorders:
//   spans()     —   causal span tree (msg -> chunk -> attempt), Perfetto
//   flight()    —   per-connection ring of protocol state transitions
//   profiler()  — wall-clock self-time attribution by subsystem category
//   Sampler     — periodic registry snapshots -> CSV/JSONL time series
//
// Typical bring-up (before constructing the instrumented stack):
//
//   telemetry::registry().enable();
//   telemetry::spans().arm();     // turns observing() on for this thread
//   telemetry::Sampler sampler(telemetry::registry(), /*period_s=*/1e-3);
//   sampler.attach(sim);
//
// See src/telemetry/registry.hpp and event.hpp for the zero-overhead-when-
// disabled contract. Every accessor resolves per thread: ScopedTelemetry
// below installs private instances as the calling thread's current ones,
// which is how the sweep engine (src/sweep/) gives every trial fully
// isolated telemetry with no shared globals.
#pragma once

#include "telemetry/event.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/span.hpp"

namespace sdr::telemetry {

/// RAII guard: makes `reg`, `sp`, `fl` and `pr` the calling thread's
/// current registry, span recorder, flight recorder and profiler for the
/// guard's lifetime (nullptr falls back to the process-wide default).
/// Restores the previous installation — guards nest. Everything the guarded
/// code registers or emits through registry()/emit()/profiler() lands in
/// the scoped instances, so concurrent scopes on different threads cannot
/// interleave.
class ScopedTelemetry {
 public:
  ScopedTelemetry(Registry* reg, SpanRecorder* sp = nullptr,
                  FlightRecorder* fl = nullptr, Profiler* pr = nullptr)
      : prev_registry_(set_thread_registry(reg)),
        prev_spans_(set_thread_spans(sp)),
        prev_flight_(set_thread_flight(fl)),
        prev_profiler_(set_thread_profiler(pr)) {}

  ~ScopedTelemetry() {
    set_thread_profiler(prev_profiler_);
    set_thread_flight(prev_flight_);
    set_thread_spans(prev_spans_);
    set_thread_registry(prev_registry_);
  }

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  Registry* prev_registry_;
  SpanRecorder* prev_spans_;
  FlightRecorder* prev_flight_;
  Profiler* prev_profiler_;
};

}  // namespace sdr::telemetry

// Software Data Path Accelerator.
//
// Emulates the BlueField-3 DPA of paper §3.4: a set of worker threads, each
// polling a dedicated completion ring and running the receive backend
// (immediate decode -> generation check -> atomic per-packet bitmap update
// -> chunk coalescing into the host bitmap). The bitmap logic is shared
// with the simulator backend via core::MessageTable::process_completion, so
// the threaded engine exercises exactly the protocol code the paper
// offloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dpa/ring.hpp"
#include "sdr/imm_codec.hpp"
#include "sdr/message_table.hpp"

namespace sdr::dpa {

// alignas(64): each worker increments its own stats on every CQE; the
// per-worker blocks are heap-allocated and, at 32 bytes, two workers'
// counters can otherwise land on one cache line and ping-pong it.
struct alignas(64) WorkerStats {
  std::uint64_t processed{0};
  std::uint64_t chunks_completed{0};
  std::uint64_t messages_completed{0};
  std::uint64_t discarded{0};
};

class Engine {
 public:
  /// `workers` receive DPA threads, each with a `ring_capacity` CQE ring.
  Engine(core::MessageTable& table, std::size_t workers,
         std::size_t ring_capacity = 1 << 14);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  std::size_t workers() const { return rings_.size(); }
  CompletionRing& ring(std::size_t worker) { return *rings_[worker]; }

  /// Start the worker threads (busy-poll their rings until stop()).
  void start();
  /// Drain-and-stop: workers exit once their rings are empty.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Block until all rings are empty (producers quiesced first).
  void wait_idle() const;

  WorkerStats total_stats() const;

  /// Synchronous single-CQE processing (the simulator-backend path and the
  /// calibration loop use this directly, bypassing threads).
  static void process(core::MessageTable& table, const core::ImmCodec& codec,
                      RawCqe cqe, WorkerStats& stats);

 private:
  void worker_loop(std::size_t index);

  core::MessageTable& table_;
  core::ImmCodec codec_;
  std::vector<std::unique_ptr<CompletionRing>> rings_;
  std::vector<std::unique_ptr<WorkerStats>> stats_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace sdr::dpa

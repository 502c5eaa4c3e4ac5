#include "dpa/engine.hpp"

#include <cassert>

namespace sdr::dpa {

Engine::Engine(core::MessageTable& table, std::size_t workers,
               std::size_t ring_capacity)
    : table_(table), codec_(table.attr().imm) {
  assert(workers >= 1);
  rings_.reserve(workers);
  stats_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    rings_.push_back(std::make_unique<CompletionRing>(ring_capacity));
    stats_.push_back(std::make_unique<WorkerStats>());
  }
}

Engine::~Engine() { stop(); }

void Engine::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(false, std::memory_order_release);
  threads_.reserve(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Engine::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  running_.store(false, std::memory_order_release);
}

void Engine::wait_idle() const {
  for (const auto& ring : rings_) {
    while (!ring->empty()) std::this_thread::yield();
  }
}

WorkerStats Engine::total_stats() const {
  WorkerStats total;
  for (const auto& s : stats_) {
    total.processed += s->processed;
    total.chunks_completed += s->chunks_completed;
    total.messages_completed += s->messages_completed;
    total.discarded += s->discarded;
  }
  return total;
}

void Engine::process(core::MessageTable& table, const core::ImmCodec& codec,
                     RawCqe cqe, WorkerStats& stats) {
  const core::ImmFields fields = codec.decode(cqe.imm);
  const core::ProcessResult result =
      table.process_completion(fields, cqe.generation);
  ++stats.processed;
  if (!result.accepted) {
    ++stats.discarded;
    return;
  }
  if (result.chunk_completed) ++stats.chunks_completed;
  if (result.message_completed) ++stats.messages_completed;
}

void Engine::worker_loop(std::size_t index) {
  CompletionRing& ring = *rings_[index];
  WorkerStats& stats = *stats_[index];
  constexpr std::size_t kBatch = 64;
  RawCqe batch[kBatch];
  while (true) {
    // Drain in batches: one acquire/release pair per kBatch CQEs instead
    // of per CQE, and stats accumulate in locals so the shared counters
    // are written once per batch.
    std::size_t n = ring.pop_batch(batch, kBatch);
    if (n == 0) {
      if (stopping_.load(std::memory_order_acquire) && ring.empty()) return;
      std::this_thread::yield();
      continue;
    }
    WorkerStats local;
    for (std::size_t i = 0; i < n; ++i) {
      process(table_, codec_, batch[i], local);
    }
    stats.processed += local.processed;
    stats.chunks_completed += local.chunks_completed;
    stats.messages_completed += local.messages_completed;
    stats.discarded += local.discarded;
  }
}

}  // namespace sdr::dpa

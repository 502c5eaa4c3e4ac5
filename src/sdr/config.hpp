// SDR queue-pair and context configuration (paper §3.2.2).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"
#include "sdr/imm_codec.hpp"

namespace sdr::core {

/// Backend transport for the SDR data path (paper §2.3/§3.2.1).
///  * kUc — zero-copy: single-packet unreliable Writes land directly in the
///    user buffer through the root indirect memory key (the default).
///  * kUd — two-sided datagrams: packets land in runtime-owned staging
///    buffers and are copied to the user buffer by the backend ("it comes
///    at the cost of intermediate packet staging in the host CPU").
enum class Transport : std::uint8_t { kUc, kUd };

struct QpAttr {
  /// M: maximum message size; message i targets root-key offsets
  /// [i*M, i*M + M). Must be a multiple of chunk_size.
  std::size_t max_msg_size{16 * MiB};

  /// Receive bitmap chunk size — one frontend bitmap bit per chunk. Must be
  /// a multiple of the MTU (paper §3.1.1).
  std::size_t chunk_size{64 * KiB};

  std::size_t mtu{4096};

  /// In-flight message descriptors (message table slots). Bounded by
  /// 2^msg_id_bits of the immediate layout.
  std::size_t max_inflight{1024};

  /// Message-ID generations: internal QP sets cycled per slot reuse for
  /// late-packet protection (paper §3.3.2).
  std::size_t generations{4};

  /// Parallel channels per generation (paper §3.4.1 multi-channel design).
  std::size_t channels{1};

  Transport transport{Transport::kUc};

  ImmLayout imm{kDefaultImmLayout};

  std::size_t packets_per_chunk() const { return chunk_size / mtu; }
  std::size_t max_packets_per_msg() const { return max_msg_size / mtu; }
  std::size_t max_chunks_per_msg() const { return max_msg_size / chunk_size; }

  bool valid() const {
    return mtu > 0 && chunk_size % mtu == 0 && chunk_size >= mtu &&
           max_msg_size % chunk_size == 0 && max_msg_size >= chunk_size &&
           max_inflight >= 1 && max_inflight <= imm.max_messages() &&
           generations >= 1 && channels >= 1 && imm.valid() &&
           max_packets_per_msg() <= imm.max_packets();
  }
};

/// Device attributes of Table 1's context_create. Empty: the software NIC
/// needs none.
struct DevAttr {};

}  // namespace sdr::core

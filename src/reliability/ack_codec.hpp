// Wire encoding of the control-path ACK/NACK messages (paper §4.1.1-§4.1.2).
//
// SR ACKs compactly encode the receiver's bitmap in two parts: a cumulative
// ACK (highest chunk below which everything arrived) plus a selective
// bitmap window starting there. NACKs list explicit chunk indices. EC ACKs
// signal full-message recovery; EC NACKs list failed data submessages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdr::reliability {

enum class ControlType : std::uint8_t {
  kSrAck = 1,
  kSrNack = 2,
  kEcAck = 3,
  kEcNack = 4,
  // Eager small-message path (the rendezvous-vs-eager optimization the
  // paper's §4.1 control-path freedom enables, citing [43]): payload rides
  // the control datagram, skipping the SDR CTS round trip.
  kEagerData = 5,
  kEagerAck = 6,
};

struct ControlMessage {
  ControlType type{ControlType::kSrAck};
  std::uint64_t msg_number{0};   // SDR message number of the (first) message

  // kSrAck
  std::uint32_t cumulative{0};           // chunks [0, cumulative) received
  std::uint32_t selective_base{0};       // first chunk the window describes
  std::vector<std::uint64_t> selective;  // bitmap window words

  // kSrNack / kEcNack
  std::vector<std::uint32_t> indices;    // missing chunks / failed submsgs

  // kEagerData
  std::vector<std::uint8_t> payload;

  bool operator==(const ControlMessage&) const = default;
};

/// Reset a reused (scratch) ControlMessage to an empty message of the
/// given type, keeping its vectors' capacity.
inline void reset_control(ControlMessage& msg, ControlType type,
                          std::uint64_t msg_number) {
  msg.type = type;
  msg.msg_number = msg_number;
  msg.cumulative = 0;
  msg.selective_base = 0;
  msg.selective.clear();
  msg.indices.clear();
  msg.payload.clear();
}

/// Serialize into a datagram payload (must fit the control MTU; the window
/// and index list are truncated by the callers to guarantee this). `out` is
/// cleared first and keeps its capacity, so the per-ACK hot path allocates
/// nothing in steady state.
void encode_control(const ControlMessage& msg, std::vector<std::uint8_t>& out);

/// Parse into `out`, reusing its vectors' capacity. Returns false on
/// malformed/truncated input (`out` is then in an unspecified but valid
/// state).
bool decode_control(const std::uint8_t* data, std::size_t length,
                    ControlMessage& out);

}  // namespace sdr::reliability

#include "reliability/ack_codec.hpp"

#include <cstring>

namespace sdr::reliability {

namespace {

template <typename T>
void append(std::vector<std::uint8_t>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
bool read(const std::uint8_t* data, std::size_t length, std::size_t& cursor,
          T* value) {
  if (cursor + sizeof(T) > length) return false;
  std::memcpy(value, data + cursor, sizeof(T));
  cursor += sizeof(T);
  return true;
}

}  // namespace

void encode_control(const ControlMessage& msg, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(32 + msg.selective.size() * 8 + msg.indices.size() * 4);
  append<std::uint8_t>(out, static_cast<std::uint8_t>(msg.type));
  append<std::uint64_t>(out, msg.msg_number);
  append<std::uint32_t>(out, msg.cumulative);
  append<std::uint32_t>(out, msg.selective_base);
  append<std::uint16_t>(out, static_cast<std::uint16_t>(msg.selective.size()));
  append<std::uint16_t>(out, static_cast<std::uint16_t>(msg.indices.size()));
  append<std::uint16_t>(out, static_cast<std::uint16_t>(msg.payload.size()));
  for (std::uint64_t w : msg.selective) append<std::uint64_t>(out, w);
  for (std::uint32_t i : msg.indices) append<std::uint32_t>(out, i);
  if (!msg.payload.empty()) {
    const std::size_t at = out.size();
    out.resize(at + msg.payload.size());
    std::memcpy(out.data() + at, msg.payload.data(), msg.payload.size());
  }
}

bool decode_control(const std::uint8_t* data, std::size_t length,
                    ControlMessage& msg) {
  std::size_t cursor = 0;
  std::uint8_t type = 0;
  std::uint16_t n_words = 0;
  std::uint16_t n_indices = 0;
  std::uint16_t n_payload = 0;
  if (!read(data, length, cursor, &type) ||
      !read(data, length, cursor, &msg.msg_number) ||
      !read(data, length, cursor, &msg.cumulative) ||
      !read(data, length, cursor, &msg.selective_base) ||
      !read(data, length, cursor, &n_words) ||
      !read(data, length, cursor, &n_indices) ||
      !read(data, length, cursor, &n_payload)) {
    return false;
  }
  if (type < 1 || type > 6) return false;
  msg.type = static_cast<ControlType>(type);
  msg.selective.resize(n_words);
  for (std::uint16_t i = 0; i < n_words; ++i) {
    if (!read(data, length, cursor, &msg.selective[i])) return false;
  }
  msg.indices.resize(n_indices);
  for (std::uint16_t i = 0; i < n_indices; ++i) {
    if (!read(data, length, cursor, &msg.indices[i])) return false;
  }
  // assign/resize rather than fresh vectors: a reused ControlMessage keeps
  // its capacity, so steady-state decoding allocates nothing.
  if (n_payload > 0) {
    if (cursor + n_payload > length) return false;
    msg.payload.assign(data + cursor, data + cursor + n_payload);
    cursor += n_payload;
  } else {
    msg.payload.clear();
  }
  return true;
}

}  // namespace sdr::reliability

#include "verbs/nic.hpp"

#include <utility>
#include <variant>

#include "common/logging.hpp"

namespace sdr::verbs {

Nic::Nic(sim::Simulator& simulator, NicId id) : sim_(simulator), id_(id) {
  if (telemetry::enabled()) register_metrics();
}

void Nic::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("verbs.nic"));
  tele_.bind_counter("unroutable_packets", &unroutable_);
  tele_.bind_counter("unknown_qp_packets", &unknown_qp_);
}

Qp* Nic::create_qp(const QpConfig& config) {
  const QpNumber num = next_qp_num_++;
  auto qp = std::make_unique<Qp>(*this, num, config);
  Qp* raw = qp.get();
  qps_.push_back(std::move(qp));
  ++live_qps_;
  return raw;
}

Qp* Nic::find_qp(QpNumber num) {
  const QpNumber index = num - kFirstQpNumber;
  if (num < kFirstQpNumber || index >= qps_.size()) return nullptr;
  return qps_[index].get();
}

void Nic::destroy_qp(QpNumber num) {
  const QpNumber index = num - kFirstQpNumber;
  if (num < kFirstQpNumber || index >= qps_.size()) return;
  if (qps_[index] != nullptr) {
    qps_[index].reset();
    --live_qps_;
  }
}

void Nic::add_route(NicId remote, sim::Channel* tx) {
  add_multipath_route(remote, {tx});
}

void Nic::add_multipath_route(NicId remote,
                              std::vector<sim::Channel*> paths) {
  if (remote >= routes_.size()) routes_.resize(remote + 1);
  routes_[remote] = std::move(paths);
}

sim::Channel* Nic::route_to(NicId remote, QpNumber src_qp,
                            QpNumber dst_qp) const {
  if (remote >= routes_.size() || routes_[remote].empty()) return nullptr;
  const auto& paths = routes_[remote];
  if (paths.size() == 1) return paths.front();
  // ECMP flow hash: a QP pair is sticky to one path (per-flow ordering),
  // distinct QP pairs spread across paths. Fibonacci-style mixing keeps
  // adjacent QP numbers from clumping onto one path.
  const std::uint64_t flow =
      (static_cast<std::uint64_t>(src_qp) << 32) | dst_qp;
  const std::uint64_t h = flow * 0x9E3779B97F4A7C15ULL;
  return paths[(h >> 40) % paths.size()];
}

void Nic::send_packet(WirePacket&& pkt) {
  sim::Channel* channel = route_to(pkt.dst_nic, pkt.src_qp, pkt.dst_qp);
  if (channel == nullptr) {
    ++unroutable_;
    SDR_WARN("nic %u: no route to nic %u", id_, pkt.dst_nic);
    return;
  }
  sim::Packet wire;
  wire.bytes = pkt.payload.size() + kPacketHeaderBytes;
  wire.payload = std::move(pkt);
  channel->send(std::move(wire));
}

void Nic::deliver(sim::Packet&& packet) {
  auto* pkt = std::get_if<WirePacket>(&packet.payload);
  if (pkt == nullptr) {
    ++unknown_qp_;
    return;
  }
  Qp* qp = find_qp(pkt->dst_qp);
  if (qp == nullptr) {
    // Late packet for a destroyed QP — silently dropped, like hardware.
    ++unknown_qp_;
    return;
  }
  qp->on_packet(std::move(*pkt));
}

NicPair make_connected_pair(sim::Simulator& simulator,
                            sim::Channel::Config config,
                            std::unique_ptr<sim::DropModel> forward,
                            std::unique_ptr<sim::DropModel> backward) {
  NicPair pair;
  pair.a = std::make_unique<Nic>(simulator, 1);
  pair.b = std::make_unique<Nic>(simulator, 2);
  pair.link = std::make_unique<sim::DuplexLink>(
      simulator, config, std::move(forward), std::move(backward));
  Nic* a = pair.a.get();
  Nic* b = pair.b.get();
  pair.link->forward().set_receiver(
      [b](sim::Packet&& p) { b->deliver(std::move(p)); });
  pair.link->backward().set_receiver(
      [a](sim::Packet&& p) { a->deliver(std::move(p)); });
  a->add_route(b->id(), &pair.link->forward());
  b->add_route(a->id(), &pair.link->backward());
  return pair;
}

NicPair make_connected_pair(sim::Simulator& simulator,
                            sim::Channel::Config config, double p_drop_fwd,
                            double p_drop_bwd) {
  return make_connected_pair(simulator, config,
                             std::make_unique<sim::IidDrop>(p_drop_fwd),
                             std::make_unique<sim::IidDrop>(p_drop_bwd));
}

}  // namespace sdr::verbs

#include "verbs/fabric.hpp"

namespace sdr::verbs {

Nic* Fabric::add_nic() {
  nics_.push_back(std::make_unique<Nic>(
      sim_, static_cast<NicId>(nics_.size() + 1)));
  return nics_.back().get();
}

void Fabric::connect(Nic* a, Nic* b, const LinkOptions& options) {
  auto build_direction = [&](Nic* src, Nic* dst, double p_drop) {
    std::vector<sim::Channel*> paths;
    paths.reserve(options.paths);
    for (std::size_t k = 0; k < options.paths; ++k) {
      sim::Channel::Config cfg = options.config;
      cfg.extra_delay_s += static_cast<double>(k) * options.path_skew_s;
      cfg.seed = link_seed_++;
      channels_.push_back(std::make_unique<sim::Channel>(
          sim_, cfg, std::make_unique<sim::IidDrop>(p_drop)));
      sim::Channel* ch = channels_.back().get();
      ch->set_receiver(
          [dst](sim::Packet&& packet) { dst->deliver(std::move(packet)); });
      paths.push_back(ch);
    }
    if (paths.size() == 1) {
      src->add_route(dst->id(), paths.front());
    } else {
      src->add_multipath_route(dst->id(), std::move(paths));
    }
  };
  build_direction(a, b, options.p_drop_forward);
  build_direction(b, a, options.p_drop_backward);
}

}  // namespace sdr::verbs

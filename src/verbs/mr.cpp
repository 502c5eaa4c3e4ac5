#include "verbs/mr.hpp"

namespace sdr::verbs {

Status IndirectMkeyTable::bind(std::size_t slot, const MemoryRegion* mr,
                               std::uint64_t base) {
  if (slot >= slots_.size()) {
    return Status(StatusCode::kOutOfRange, "indirect table slot out of range");
  }
  // MRs smaller than the slot are allowed: accesses beyond the MR end fail
  // at resolve time, matching hardware where the mkey context carries the
  // region length.
  slots_[slot] = Slot{mr, base};
  return Status::ok();
}

Status IndirectMkeyTable::bind_null(std::size_t slot,
                                    const MemoryRegion* null_mr) {
  if (slot >= slots_.size()) {
    return Status(StatusCode::kOutOfRange, "indirect table slot out of range");
  }
  slots_[slot] = Slot{null_mr, 0};
  return Status::ok();
}

ResolvedAccess IndirectMkeyTable::resolve(std::uint64_t offset,
                                          std::size_t len) const {
  const std::size_t slot = offset / slot_size_;
  if (slot >= slots_.size()) return ResolvedAccess{nullptr, false, false};
  const Slot& s = slots_[slot];
  if (s.mr == nullptr) return ResolvedAccess{nullptr, false, false};
  if (s.mr->is_null()) return ResolvedAccess{nullptr, true, true};
  const std::uint64_t within = offset - slot * slot_size_;
  // Accesses must not straddle a slot boundary and must fit in the MR.
  if (within + len > slot_size_) return ResolvedAccess{nullptr, false, false};
  if (!s.mr->contains(s.base + within, len)) {
    return ResolvedAccess{nullptr, false, false};
  }
  return ResolvedAccess{s.mr->addr() + s.base + within, true, false};
}

const MemoryRegion* ProtectionDomain::add_mr(std::uint8_t* addr,
                                             std::size_t length,
                                             bool is_null) {
  const MemoryKey rkey = next_key_++;
  auto mr = std::make_unique<MemoryRegion>(rkey, addr, length, is_null);
  const MemoryRegion* raw = mr.get();
  mrs_.emplace(rkey, std::move(mr));
  return raw;
}

const MemoryRegion* ProtectionDomain::register_mr(std::uint8_t* addr,
                                                  std::size_t length) {
  return add_mr(addr, length, false);
}

const MemoryRegion* ProtectionDomain::null_mr() {
  if (null_mr_ == nullptr) null_mr_ = add_mr(nullptr, 0, true);
  return null_mr_;
}

IndirectMkeyTable* ProtectionDomain::create_indirect_table(
    std::size_t slot_count, std::size_t slot_size) {
  const MemoryKey key = next_key_++;
  auto table = std::make_unique<IndirectMkeyTable>(key, slot_count, slot_size);
  IndirectMkeyTable* raw = table.get();
  tables_.emplace(key, std::move(table));
  return raw;
}

Status ProtectionDomain::deregister_mr(const MemoryRegion* mr) {
  if (mr == nullptr) return Status(StatusCode::kInvalidArgument, "null MR");
  const auto it = mrs_.find(mr->rkey());
  if (it == mrs_.end()) return Status(StatusCode::kNotFound, "unknown MR");
  mrs_.erase(it);
  return Status::ok();
}

ResolvedAccess ProtectionDomain::resolve(MemoryKey rkey, std::uint64_t offset,
                                         std::size_t len) const {
  if (const auto mit = mrs_.find(rkey); mit != mrs_.end()) {
    const MemoryRegion& mr = *mit->second;
    if (mr.is_null()) return ResolvedAccess{nullptr, true, true};
    if (!mr.contains(offset, len)) return ResolvedAccess{nullptr, false, false};
    return ResolvedAccess{mr.addr() + offset, true, false};
  }
  if (const auto tit = tables_.find(rkey); tit != tables_.end()) {
    return tit->second->resolve(offset, len);
  }
  return ResolvedAccess{nullptr, false, false};
}

}  // namespace sdr::verbs

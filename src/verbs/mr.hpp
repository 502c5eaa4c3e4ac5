// Memory registration: protection domain, memory regions, NULL MR, and the
// indirect (zero-based root) memory key table of paper §3.2.2 / Figure 5.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "verbs/types.hpp"

namespace sdr::verbs {

/// A registered memory region. `is_null` models ibv_alloc_null_mr(): writes
/// targeting it are accepted (and complete) but the payload is discarded —
/// the paper's stage-1 late-packet protection (§3.3).
class MemoryRegion {
 public:
  MemoryRegion(MemoryKey rkey, std::uint8_t* addr, std::size_t length,
               bool is_null)
      : rkey_(rkey), addr_(addr), length_(length), is_null_(is_null) {}

  MemoryKey rkey() const { return rkey_; }
  std::uint8_t* addr() const { return addr_; }
  std::size_t length() const { return length_; }
  bool is_null() const { return is_null_; }

  bool contains(std::uint64_t offset, std::size_t len) const {
    return is_null_ || offset + len <= length_;
  }

 private:
  MemoryKey rkey_;
  std::uint8_t* addr_;
  std::size_t length_;
  bool is_null_;
};

/// Result of resolving a (key, offset, len) remote access.
struct ResolvedAccess {
  std::uint8_t* addr{nullptr};  // nullptr => NULL MR (discard payload)
  bool valid{false};            // false => remote access error
  bool discard{false};          // true  => NULL MR sink
};

/// Indirect memory key: a zero-based table of slots, each `slot_size` bytes
/// of virtual offset space, backed by a (MemoryRegion, base_offset) pair or
/// by the NULL MR. For a QP with maximum message size M, message i targets
/// offsets [i*M, i*M + M) — exactly Figure 5 of the paper.
class IndirectMkeyTable {
 public:
  IndirectMkeyTable(MemoryKey key, std::size_t slot_count,
                    std::size_t slot_size)
      : key_(key), slot_size_(slot_size), slots_(slot_count) {}

  MemoryKey key() const { return key_; }
  std::size_t slot_count() const { return slots_.size(); }
  std::size_t slot_size() const { return slot_size_; }

  /// Bind slot `i` to user memory (mr, base). The slot then serves
  /// offsets [i*slot_size, (i+1)*slot_size).
  Status bind(std::size_t slot, const MemoryRegion* mr, std::uint64_t base);

  /// Bind slot `i` to the NULL MR: arriving writes complete but payload is
  /// discarded (late-packet protection stage 1).
  Status bind_null(std::size_t slot, const MemoryRegion* null_mr);

  ResolvedAccess resolve(std::uint64_t offset, std::size_t len) const;

 private:
  struct Slot {
    const MemoryRegion* mr{nullptr};
    std::uint64_t base{0};
  };
  MemoryKey key_;
  std::size_t slot_size_;
  std::vector<Slot> slots_;
};

/// Protection domain: owns MRs and indirect tables, resolves remote keys.
class ProtectionDomain {
 public:
  ProtectionDomain() = default;
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  const MemoryRegion* register_mr(std::uint8_t* addr, std::size_t length);
  /// The domain's one NULL MR, made on first use. Every SDR QP on the
  /// domain binds its free root-key slots to it, so it is never
  /// deregistered.
  const MemoryRegion* null_mr();
  IndirectMkeyTable* create_indirect_table(std::size_t slot_count,
                                           std::size_t slot_size);

  Status deregister_mr(const MemoryRegion* mr);

  /// Resolve a remote access against either a plain MR rkey or an indirect
  /// table key.
  ResolvedAccess resolve(MemoryKey rkey, std::uint64_t offset,
                         std::size_t len) const;

 private:
  const MemoryRegion* add_mr(std::uint8_t* addr, std::size_t length,
                             bool is_null);

  MemoryKey next_key_{0x1000};
  std::unordered_map<MemoryKey, std::unique_ptr<MemoryRegion>> mrs_;
  const MemoryRegion* null_mr_{nullptr};
  std::unordered_map<MemoryKey, std::unique_ptr<IndirectMkeyTable>> tables_;
};

}  // namespace sdr::verbs

// Process-wide allocation counter for the binaries that gate on
// allocations (the simcore, datapath, fleet and Fig 11 benches, and the
// datapath and telemetry allocation tests).
//
// Linking the sdr_alloc_counter library replaces the global operator new
// and delete of the whole process: every operator-new call bumps one
// relaxed atomic counter, and callers compare snapshots taken around the
// code they measure. It is a separate library, never part of sdr_common, so
// every other binary keeps the system allocator.
#pragma once

#include <cstdint>

namespace sdr::common {

/// operator-new calls (any form: array, aligned, nothrow) so far.
std::uint64_t allocations();

}  // namespace sdr::common

#include "common/bitmap.hpp"

// AtomicBitmap is header-only today; this TU anchors the library target and
// keeps a stable home for future out-of-line additions.

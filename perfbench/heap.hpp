// Live and peak heap bytes of the benchmark process, counted by the
// replacement operator new/delete in heap.cpp.
#pragma once

#include <cstddef>

namespace perfbench {

[[nodiscard]] std::size_t heap_live_bytes();
[[nodiscard]] std::size_t heap_peak_bytes();
/// Restarts the peak at the current live size.
void heap_reset_peak();

}  // namespace perfbench

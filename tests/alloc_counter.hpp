// Process-wide heap-allocation counter for the allocation-regression tests.
//
// Replacing the global operator new/delete family is the only way to observe
// a library-internal heap allocation from a test. The replacements live in
// alloc_counter.cpp, a translation unit of their own, so no test body is
// compiled next to them; a test executable gets them by listing that file
// among its SOURCES in tests/CMakeLists.txt.
#pragma once

#include <cstdint>

namespace tcevd::test {

/// Heap allocations made through any form of operator new so far.
std::uint64_t heap_allocs() noexcept;

}  // namespace tcevd::test

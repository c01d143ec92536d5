// GEMM shape tracers: replay the exact loop structure of the SBR variants
// (and the FormW back-transformation) emitting every engine GEMM's (m, n, k)
// without touching data. At paper scale (n = 32768) actually running the
// algorithms is infeasible on this machine, but the *shape stream* is all
// the throughput model needs.
//
// These functions are unit-tested against the real implementations: for
// small sizes, the recorded shape list of a real run must equal the traced
// list call-for-call (tests/test_perfmodel.cpp). That test is what licenses
// using the traces at paper scale.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"
#include "src/tensorcore/engine.hpp"

namespace tcevd::perf {

/// Engine GEMMs of sbr_wy(n, bandwidth b, big block nb), in call order.
/// `cache_oa` selects the SbrOptions::wy_cache_oa_product variant.
std::vector<tc::GemmShape> trace_sbr_wy(index_t n, index_t b, index_t nb,
                                        bool cache_oa = false);

/// Engine GEMMs of sbr_zy(n, bandwidth b) without Q accumulation.
std::vector<tc::GemmShape> trace_sbr_zy(index_t n, index_t b);

/// Engine GEMMs of sbr_dbr(n, bandwidth b, big block nb). With b == nb this
/// equals trace_sbr_wy (the DBR driver runs the multiplicative path
/// verbatim); with b < nb each big block ends in the detached trailing
/// update: S (nb x nb, k = mt), Z (tw x nb, k = nb), then the two rank-2k
/// GEMMs (tw x tw, k = nb).
std::vector<tc::GemmShape> trace_sbr_dbr(index_t n, index_t b, index_t nb,
                                         bool cache_oa = false);

/// GEMMs of the recursive FormW merge (paper Algorithm 2) given the blocks
/// produced by sbr_wy(n, b, nb), plus the final Q = I - W Y^T product.
std::vector<tc::GemmShape> trace_formw(index_t n, index_t b, index_t nb);

/// GEMMs of the progressive ZY back-transformation (apply each panel's
/// block reflector to Q as it is produced).
std::vector<tc::GemmShape> trace_zy_backtransform(index_t n, index_t b);

/// Panel (m, b) sizes factored by either SBR variant, in order.
std::vector<tc::GemmShape> trace_panels(index_t n, index_t b);

}  // namespace tcevd::perf

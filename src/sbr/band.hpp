// Band-matrix helpers for the SBR pipeline.
#pragma once

#include "src/common/matrix.hpp"

namespace tcevd::sbr {

/// Largest |A(i,j)| with |i - j| > bw (0 for an exactly banded matrix).
template <typename T>
double band_violation(ConstMatrixView<T> a, index_t bw);

/// Zero everything outside the band |i - j| <= bw, in place.
template <typename T>
void truncate_to_band(MatrixView<T> a, index_t bw);

/// Largest |A(i,j) - A(j,i)| (symmetry check).
template <typename T>
double symmetry_violation(ConstMatrixView<T> a);

#define TCEVD_BAND_EXTERN(T)                                             \
  extern template double band_violation<T>(ConstMatrixView<T>, index_t); \
  extern template void truncate_to_band<T>(MatrixView<T>, index_t);      \
  extern template double symmetry_violation<T>(ConstMatrixView<T>);

TCEVD_BAND_EXTERN(float)
TCEVD_BAND_EXTERN(double)
#undef TCEVD_BAND_EXTERN

}  // namespace tcevd::sbr

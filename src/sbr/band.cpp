#include "src/sbr/band.hpp"

#include <cmath>

namespace tcevd::sbr {

template <typename T>
double band_violation(ConstMatrixView<T> a, index_t bw) {
  double worst = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      if (std::abs(i - j) > bw)
        worst = std::max(worst, std::abs(static_cast<double>(a(i, j))));
  return worst;
}

template <typename T>
void truncate_to_band(MatrixView<T> a, index_t bw) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      if (std::abs(i - j) > bw) a(i, j) = T{};
}

template <typename T>
double symmetry_violation(ConstMatrixView<T> a) {
  double worst = 0.0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = j + 1; i < a.rows(); ++i)
      worst = std::max(worst,
                       std::abs(static_cast<double>(a(i, j)) - static_cast<double>(a(j, i))));
  return worst;
}

#define TCEVD_BAND_INST(T)                                        \
  template double band_violation<T>(ConstMatrixView<T>, index_t); \
  template void truncate_to_band<T>(MatrixView<T>, index_t);      \
  template double symmetry_violation<T>(ConstMatrixView<T>);

TCEVD_BAND_INST(float)
TCEVD_BAND_INST(double)
#undef TCEVD_BAND_INST

}  // namespace tcevd::sbr

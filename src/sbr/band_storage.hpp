// Compact symmetric band storage (LAPACK 'sb'-style, lower triangle).
//
// The second stage (src/bulge) chases the band in this O(n * b) storage
// instead of the n x n matrix SBR leaves it in. Entry (i, j) with i >= j and
// i - j <= bw + 1 lives at data[(i - j) + j * (bw + 2)]; the extra (+1)
// diagonal is the scratch slot the live bulge occupies mid-chase.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"

namespace tcevd::sbr {

template <typename T>
class BandMatrix {
 public:
  BandMatrix() = default;
  BandMatrix(index_t n, index_t bw)
      : n_(n), bw_(bw), ld_(bw + 2),
        data_(static_cast<std::size_t>((bw + 2) * std::max<index_t>(n, 1)), T{}) {
    TCEVD_CHECK(n >= 0 && bw >= 0 && bw < std::max<index_t>(n, 1),
                "band matrix bandwidth out of range");
  }

  index_t size() const noexcept { return n_; }
  index_t bandwidth() const noexcept { return bw_; }

  /// Entry (i, j) of the symmetric matrix; any (i, j) with |i - j| <= bw+1.
  T get(index_t i, index_t j) const noexcept {
    if (i < j) std::swap(i, j);
    TCEVD_ASSERT(i - j <= bw_ + 1 && i < n_, "band access out of range");
    return data_[static_cast<std::size_t>((i - j) + j * ld_)];
  }
  void set(index_t i, index_t j, T v) noexcept {
    if (i < j) std::swap(i, j);
    TCEVD_ASSERT(i - j <= bw_ + 1 && i < n_, "band access out of range");
    data_[static_cast<std::size_t>((i - j) + j * ld_)] = v;
  }
  /// Mutable reference for i >= j (storage orientation).
  T& at(index_t i, index_t j) noexcept {
    TCEVD_ASSERT(i >= j && i - j <= bw_ + 1 && i < n_, "band access out of range");
    return data_[static_cast<std::size_t>((i - j) + j * ld_)];
  }

  /// Import the band of a full symmetric matrix (lower triangle read).
  static BandMatrix from_full(ConstMatrixView<T> a, index_t bw) {
    const index_t n = a.rows();
    TCEVD_CHECK(a.cols() == n, "from_full requires a square matrix");
    BandMatrix out(n, bw);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j; i < std::min(n, j + bw + 1); ++i) out.at(i, j) = a(i, j);
    return out;
  }

  /// Export to full symmetric storage.
  Matrix<T> to_full() const {
    Matrix<T> a(n_, n_);
    for (index_t j = 0; j < n_; ++j)
      for (index_t i = j; i < std::min(n_, j + bw_ + 2); ++i) {
        a(i, j) = get(i, j);
        a(j, i) = a(i, j);
      }
    return a;
  }

  /// Read off the tridiagonal (d, e) directly. For bw <= 1 bands — what the
  /// DBR first stage produces at its narrowest — this IS the second stage:
  /// the matrix is already tridiagonal and no rotation is ever applied.
  void extract_tridiagonal(std::vector<T>& d, std::vector<T>& e) const {
    d.assign(static_cast<std::size_t>(n_), T{});
    e.assign(static_cast<std::size_t>(std::max<index_t>(n_ - 1, 0)), T{});
    for (index_t i = 0; i < n_; ++i) {
      d[static_cast<std::size_t>(i)] = get(i, i);
      if (i + 1 < n_) e[static_cast<std::size_t>(i)] = get(i + 1, i);
    }
  }

  /// Bytes of storage held — the O(n b) footprint claim, testable.
  std::size_t storage_bytes() const noexcept { return data_.size() * sizeof(T); }

 private:
  index_t n_ = 0;
  index_t bw_ = 0;
  index_t ld_ = 2;
  std::vector<T> data_;
};

}  // namespace tcevd::sbr

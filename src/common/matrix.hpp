// Column-major dense matrix container and non-owning views.
//
// Storage follows the LAPACK convention: element (i, j) lives at
// data[i + j*ld] with ld >= rows. Views are cheap value types; submatrix
// slicing never copies. All dimensions are 64-bit so paper-scale shapes
// (n = 32768) never overflow index arithmetic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.hpp"

namespace tcevd {

using index_t = std::int64_t;

template <typename T>
class MatrixView;
template <typename T>
class ConstMatrixView;

/// Owning column-major matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), ld_(std::max<index_t>(rows, 1)) {
    TCEVD_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be nonnegative");
    data_.assign(static_cast<std::size_t>(ld_ * std::max<index_t>(cols, 1)), T{});
  }

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t ld() const noexcept { return ld_; }
  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  T& operator()(index_t i, index_t j) noexcept {
    TCEVD_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i + j * ld_)];
  }
  const T& operator()(index_t i, index_t j) const noexcept {
    TCEVD_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i + j * ld_)];
  }

  MatrixView<T> view() noexcept;
  ConstMatrixView<T> view() const noexcept;
  MatrixView<T> sub(index_t i0, index_t j0, index_t nrows, index_t ncols) noexcept;
  ConstMatrixView<T> sub(index_t i0, index_t j0, index_t nrows, index_t ncols) const noexcept;

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 1;
  std::vector<T> data_;
};

/// Non-owning mutable view of a column-major block.
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t ld) noexcept
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    TCEVD_ASSERT(ld >= std::max<index_t>(rows, 1), "leading dimension too small");
  }

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t ld() const noexcept { return ld_; }
  T* data() const noexcept { return data_; }

  T& operator()(index_t i, index_t j) const noexcept {
    TCEVD_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i + j * ld_)];
  }

  MatrixView sub(index_t i0, index_t j0, index_t nrows, index_t ncols) const noexcept {
    TCEVD_ASSERT(i0 >= 0 && j0 >= 0 && nrows >= 0 && ncols >= 0 && i0 + nrows <= rows_ &&
                     j0 + ncols <= cols_,
                 "submatrix out of range");
    return MatrixView(data_ + i0 + j0 * ld_, nrows, ncols, ld_);
  }
  MatrixView col(index_t j) const noexcept { return sub(0, j, rows_, 1); }

  operator ConstMatrixView<T>() const noexcept;

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 1;
};

/// Non-owning read-only view.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, index_t rows, index_t cols, index_t ld) noexcept
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    TCEVD_ASSERT(ld >= std::max<index_t>(rows, 1), "leading dimension too small");
  }

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t ld() const noexcept { return ld_; }
  const T* data() const noexcept { return data_; }

  const T& operator()(index_t i, index_t j) const noexcept {
    TCEVD_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i + j * ld_)];
  }

  ConstMatrixView sub(index_t i0, index_t j0, index_t nrows, index_t ncols) const noexcept {
    TCEVD_ASSERT(i0 >= 0 && j0 >= 0 && nrows >= 0 && ncols >= 0 && i0 + nrows <= rows_ &&
                     j0 + ncols <= cols_,
                 "submatrix out of range");
    return ConstMatrixView(data_ + i0 + j0 * ld_, nrows, ncols, ld_);
  }
  ConstMatrixView col(index_t j) const noexcept { return sub(0, j, rows_, 1); }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 1;
};

template <typename T>
MatrixView<T> Matrix<T>::view() noexcept {
  return MatrixView<T>(data_.data(), rows_, cols_, ld_);
}
template <typename T>
ConstMatrixView<T> Matrix<T>::view() const noexcept {
  return ConstMatrixView<T>(data_.data(), rows_, cols_, ld_);
}
template <typename T>
MatrixView<T> Matrix<T>::sub(index_t i0, index_t j0, index_t nrows, index_t ncols) noexcept {
  return view().sub(i0, j0, nrows, ncols);
}
template <typename T>
ConstMatrixView<T> Matrix<T>::sub(index_t i0, index_t j0, index_t nrows,
                                  index_t ncols) const noexcept {
  return view().sub(i0, j0, nrows, ncols);
}

template <typename T>
MatrixView<T>::operator ConstMatrixView<T>() const noexcept {
  return ConstMatrixView<T>(data_, rows_, cols_, ld_);
}

// ---------------------------------------------------------------------------
// Small dense helpers shared across modules.
// ---------------------------------------------------------------------------

/// out = in (shapes must match; strides may differ).
template <typename T>
void copy_matrix(ConstMatrixView<T> in, MatrixView<T> out) {
  TCEVD_CHECK(in.rows() == out.rows() && in.cols() == out.cols(), "copy shape mismatch");
  for (index_t j = 0; j < in.cols(); ++j)
    for (index_t i = 0; i < in.rows(); ++i) out(i, j) = in(i, j);
}

/// Set to the identity (rectangular: ones on the main diagonal).
template <typename T>
void set_identity(MatrixView<T> a) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) a(i, j) = (i == j) ? T{1} : T{0};
}

template <typename T>
void set_zero(MatrixView<T> a) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) a(i, j) = T{0};
}

/// out = in with element-wise static_cast (e.g. double reference -> float).
template <typename Src, typename Dst>
void convert_matrix(ConstMatrixView<Src> in, MatrixView<Dst> out) {
  TCEVD_CHECK(in.rows() == out.rows() && in.cols() == out.cols(), "convert shape mismatch");
  for (index_t j = 0; j < in.cols(); ++j)
    for (index_t i = 0; i < in.rows(); ++i) out(i, j) = static_cast<Dst>(in(i, j));
}

/// Mirror the lower triangle into the upper triangle (make symmetric).
template <typename T>
void symmetrize_from_lower(MatrixView<T> a);

/// Force exact symmetry: a = (a + a^T) / 2.
template <typename T>
void make_symmetric(MatrixView<T> a);

extern template void symmetrize_from_lower<float>(MatrixView<float>);
extern template void symmetrize_from_lower<double>(MatrixView<double>);
extern template void make_symmetric<float>(MatrixView<float>);
extern template void make_symmetric<double>(MatrixView<double>);

}  // namespace tcevd

#include <memory>

#include "src/blas/blas.hpp"
#include "src/blas/gemm_packed.hpp"

namespace tcevd::blas {

namespace {

/// Element of op(A) for triangular routines.
template <typename T>
inline T op_elem(Trans trans, ConstMatrixView<T> a, index_t i, index_t j) {
  return trans == Trans::No ? a(i, j) : a(j, i);
}

/// True when op(A) is lower triangular.
inline bool op_is_lower(Uplo uplo, Trans trans) {
  return (uplo == Uplo::Lower) == (trans == Trans::No);
}

}  // namespace

template <typename T>
void gemm(Trans transa, Trans transb, T alpha, View<T> a, View<T> b, T beta, MatrixView<T> c) {
  // All four trans combinations run the transpose-aware packed pipeline —
  // zero intermediate matrices, pooled over disjoint C tiles when profitable
  // (bitwise-identical to serial; see src/blas/gemm_packed.hpp).
  gemm_packed(transa, transb, alpha, a, b, beta, c);
}

template <typename T>
void symm(Side side, Uplo uplo, T alpha, View<T> a, View<T> b, T beta, MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t na = (side == Side::Left) ? m : n;
  TCEVD_CHECK(a.rows() == na && a.cols() == na, "symm symmetric factor must be square");
  TCEVD_CHECK(b.rows() == m && b.cols() == n, "symm shape mismatch");

  // Element of the symmetric A from its stored triangle.
  auto ae = [&](index_t i, index_t j) {
    if (uplo == Uplo::Lower) return (i >= j) ? a(i, j) : a(j, i);
    return (i <= j) ? a(i, j) : a(j, i);
  };

  if (side == Side::Left) {
    // C(:, j) = alpha * A * B(:, j) + beta * C(:, j), column-wise symv-like.
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        T s{};
        for (index_t l = 0; l < m; ++l) s += ae(i, l) * b(l, j);
        c(i, j) = alpha * s + ((beta == T{}) ? T{} : beta * c(i, j));
      }
    }
  } else {
    // C = alpha * B * A + beta * C.
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        T s{};
        for (index_t l = 0; l < n; ++l) s += b(i, l) * ae(l, j);
        c(i, j) = alpha * s + ((beta == T{}) ? T{} : beta * c(i, j));
      }
    }
  }
}

template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, View<T> a, T beta, MatrixView<T> c) {
  const index_t n = c.rows();
  const index_t k = (trans == Trans::No) ? a.cols() : a.rows();
  TCEVD_CHECK(c.cols() == n, "syrk requires square C");
  TCEVD_CHECK(((trans == Trans::No) ? a.rows() : a.cols()) == n, "syrk shape mismatch");

  auto elem = [&](index_t i, index_t l) { return trans == Trans::No ? a(i, l) : a(l, i); };
  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i < n; ++i) c(i, j) = (beta == T{}) ? T{} : beta * c(i, j);
      for (index_t l = 0; l < k; ++l) {
        const T t = alpha * elem(j, l);
        if (t == T{}) continue;
        for (index_t i = j; i < n; ++i) c(i, j) += t * elem(i, l);
      }
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i <= j; ++i) c(i, j) = (beta == T{}) ? T{} : beta * c(i, j);
      for (index_t l = 0; l < k; ++l) {
        const T t = alpha * elem(j, l);
        if (t == T{}) continue;
        for (index_t i = 0; i <= j; ++i) c(i, j) += t * elem(i, l);
      }
    }
  }
}

template <typename T>
void syr2k(Uplo uplo, Trans trans, T alpha, View<T> a, View<T> b, T beta, MatrixView<T> c) {
  const index_t n = c.rows();
  const index_t k = (trans == Trans::No) ? a.cols() : a.rows();
  TCEVD_CHECK(c.cols() == n, "syr2k requires square C");

  auto ae = [&](index_t i, index_t l) { return trans == Trans::No ? a(i, l) : a(l, i); };
  auto be = [&](index_t i, index_t l) { return trans == Trans::No ? b(i, l) : b(l, i); };
  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i < n; ++i) c(i, j) = (beta == T{}) ? T{} : beta * c(i, j);
      for (index_t l = 0; l < k; ++l) {
        const T ta = alpha * be(j, l);
        const T tb = alpha * ae(j, l);
        if (ta == T{} && tb == T{}) continue;
        for (index_t i = j; i < n; ++i) c(i, j) += ae(i, l) * ta + be(i, l) * tb;
      }
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i <= j; ++i) c(i, j) = (beta == T{}) ? T{} : beta * c(i, j);
      for (index_t l = 0; l < k; ++l) {
        const T ta = alpha * be(j, l);
        const T tb = alpha * ae(j, l);
        if (ta == T{} && tb == T{}) continue;
        for (index_t i = 0; i <= j; ++i) c(i, j) += ae(i, l) * ta + be(i, l) * tb;
      }
    }
  }
}

template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, View<T> a, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t na = (side == Side::Left) ? m : n;
  TCEVD_CHECK(a.rows() == na && a.cols() == na, "trmm triangular factor shape mismatch");
  const bool unit = diag == Diag::Unit;
  const bool lower = op_is_lower(uplo, trans);

  if (side == Side::Left) {
    // B(:,j) = alpha * op(A) * B(:,j), in place per column.
    for (index_t j = 0; j < n; ++j) {
      if (lower) {
        for (index_t i = m - 1; i >= 0; --i) {
          T s = unit ? b(i, j) : op_elem(trans, a, i, i) * b(i, j);
          for (index_t l = 0; l < i; ++l) s += op_elem(trans, a, i, l) * b(l, j);
          b(i, j) = alpha * s;
        }
      } else {
        for (index_t i = 0; i < m; ++i) {
          T s = unit ? b(i, j) : op_elem(trans, a, i, i) * b(i, j);
          for (index_t l = i + 1; l < m; ++l) s += op_elem(trans, a, i, l) * b(l, j);
          b(i, j) = alpha * s;
        }
      }
    }
  } else {
    // B = alpha * B * op(A). Column j of the result mixes columns l of B with
    // l <= j (op(A) upper) or l >= j (op(A) lower); order the sweep so source
    // columns are still unmodified when read.
    if (lower) {
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          T s = unit ? b(i, j) : b(i, j) * op_elem(trans, a, j, j);
          for (index_t l = j + 1; l < n; ++l) s += b(i, l) * op_elem(trans, a, l, j);
          b(i, j) = alpha * s;
        }
      }
    } else {
      for (index_t j = n - 1; j >= 0; --j) {
        for (index_t i = 0; i < m; ++i) {
          T s = unit ? b(i, j) : b(i, j) * op_elem(trans, a, j, j);
          for (index_t l = 0; l < j; ++l) s += b(i, l) * op_elem(trans, a, l, j);
          b(i, j) = alpha * s;
        }
      }
    }
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, View<T> a, MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t na = (side == Side::Left) ? m : n;
  TCEVD_CHECK(a.rows() == na && a.cols() == na, "trsm triangular factor shape mismatch");
  const bool unit = diag == Diag::Unit;
  const bool lower = op_is_lower(uplo, trans);

  if (alpha != T{1}) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) b(i, j) *= alpha;
  }

  if (side == Side::Left) {
    // Solve op(A) X = B column by column (forward for lower, backward for upper).
    for (index_t j = 0; j < n; ++j) {
      if (lower) {
        for (index_t i = 0; i < m; ++i) {
          T s = b(i, j);
          for (index_t l = 0; l < i; ++l) s -= op_elem(trans, a, i, l) * b(l, j);
          b(i, j) = unit ? s : s / op_elem(trans, a, i, i);
        }
      } else {
        for (index_t i = m - 1; i >= 0; --i) {
          T s = b(i, j);
          for (index_t l = i + 1; l < m; ++l) s -= op_elem(trans, a, i, l) * b(l, j);
          b(i, j) = unit ? s : s / op_elem(trans, a, i, i);
        }
      }
    }
  } else {
    // Solve X op(A) = B: column j of X needs previously solved columns l with
    // op(A)(l,j) != 0.
    if (lower) {
      for (index_t j = n - 1; j >= 0; --j) {
        for (index_t l = j + 1; l < n; ++l) {
          const T t = op_elem(trans, a, l, j);
          if (t == T{}) continue;
          for (index_t i = 0; i < m; ++i) b(i, j) -= t * b(i, l);
        }
        if (!unit) {
          const T d = op_elem(trans, a, j, j);
          for (index_t i = 0; i < m; ++i) b(i, j) /= d;
        }
      }
    } else {
      for (index_t j = 0; j < n; ++j) {
        for (index_t l = 0; l < j; ++l) {
          const T t = op_elem(trans, a, l, j);
          if (t == T{}) continue;
          for (index_t i = 0; i < m; ++i) b(i, j) -= t * b(i, l);
        }
        if (!unit) {
          const T d = op_elem(trans, a, j, j);
          for (index_t i = 0; i < m; ++i) b(i, j) /= d;
        }
      }
    }
  }
}

#define TCEVD_L3_INST(T)                                                                     \
  template void gemm<T>(Trans, Trans, T, ConstMatrixView<T>, ConstMatrixView<T>, T,          \
                        MatrixView<T>);                                                      \
  template void symm<T>(Side, Uplo, T, ConstMatrixView<T>, ConstMatrixView<T>, T,            \
                        MatrixView<T>);                                                      \
  template void syrk<T>(Uplo, Trans, T, ConstMatrixView<T>, T, MatrixView<T>);               \
  template void syr2k<T>(Uplo, Trans, T, ConstMatrixView<T>, ConstMatrixView<T>, T,          \
                         MatrixView<T>);                                                     \
  template void trmm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>);      \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>);

TCEVD_L3_INST(float)
TCEVD_L3_INST(double)
#undef TCEVD_L3_INST

}  // namespace tcevd::blas

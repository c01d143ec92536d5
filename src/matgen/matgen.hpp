// Test-matrix generation (stand-in for MAGMA's magma_generate; paper
// Tables 3/4 matrix classes).
//
//   Normal / Uniform — iid random entries, symmetrized.
//   Cluster0 / Cluster1 / Arith / Geo — symmetric positive definite with a
//   prescribed spectrum in [1/cond, 1]:
//     Cluster0: lambda = {1, 1/k, ..., 1/k}         (cluster at the bottom)
//     Cluster1: lambda = {1, ..., 1, 1/k}           (cluster at the top)
//     Arith:    lambda_i arithmetic from 1 down to 1/k
//     Geo:      lambda_i geometric  from 1 down to 1/k
//   realized as A = Q diag(lambda) Q^T with Haar-ish random orthogonal Q
//   (QR of a Gaussian matrix), computed in double.
#pragma once

#include <string>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/rng.hpp"

namespace tcevd::matgen {

enum class MatrixType { Normal, Uniform, Cluster0, Cluster1, Arith, Geo };

/// Display name matching the paper's tables ("SVD_Arith 1e5" etc.).
std::string matrix_type_name(MatrixType type, double cond);

/// The prescribed spectrum (ascending) for the spectrum-controlled types;
/// empty for Normal/Uniform (whose spectrum is whatever the entries give)
/// and for n = 0.
std::vector<double> prescribed_spectrum(MatrixType type, index_t n, double cond);

/// Random orthogonal matrix (QR of a Gaussian sample).
Matrix<double> random_orthogonal(index_t n, Rng& rng);

/// Generate the symmetric test matrix in double precision.
Matrix<double> generate(MatrixType type, index_t n, double cond, Rng& rng);

/// Convenience: generate and round to float (the EVD pipeline's input).
Matrix<float> generate_f(MatrixType type, index_t n, double cond, Rng& rng);

/// All (type, cond) rows of the paper's accuracy tables, in table order.
struct TableRow {
  MatrixType type;
  double cond;
};
std::vector<TableRow> paper_accuracy_rows();

}  // namespace tcevd::matgen

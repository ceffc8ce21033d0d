// Structure analysis of the assembled spline collocation matrix.
//
// Periodic spline matrices are "banded + corners" (Fig. 1): splitting off a
// border of width k (the corner reach) leaves a banded block Q whose type
// decides the specialized solver, reproducing Table I:
//   symmetric tridiagonal + positive definite -> pttrs
//   general tridiagonal                       -> gttrs
//   symmetric banded + positive definite      -> pbtrs
//   general banded                            -> gbtrs
//   anything else                             -> getrs
#pragma once

#include "parallel/view.hpp"

#include <cstddef>

namespace pspl::core {

enum class SolverKind {
    PTTRS, ///< positive-definite symmetric tridiagonal
    GTTRS, ///< general tridiagonal (pivoted)
    PBTRS, ///< positive-definite symmetric banded
    GBTRS, ///< general banded
    GETRS, ///< general dense
};

const char* to_string(SolverKind kind);

struct MatrixStructure {
    std::size_t n = 0;            ///< full matrix size
    std::size_t corner_width = 0; ///< k: size of the Schur border
    std::size_t kl = 0;           ///< subdiagonals of Q
    std::size_t ku = 0;           ///< superdiagonals of Q
    bool q_symmetric = false;
    /// Solver selected from the structure. Positive definiteness is verified
    /// at factorization time; the factorizer falls back to GBTRS/GETRS if a
    /// Cholesky-type factorization fails.
    SolverKind recommended = SolverKind::GETRS;
};

/// Magnitude at or below which the analysis treats an entry as a
/// structural zero.
inline constexpr double structure_tol = 1e-14;

/// Analyze a dense periodic-banded matrix. Entries with |a_ij| <= tol are
/// treated as structural zeros.
MatrixStructure analyze_structure(const View2D<double>& a,
                                  double tol = structure_tol);

} // namespace pspl::core

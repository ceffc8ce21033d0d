// Positive-definite symmetric banded Cholesky (LAPACK pbtrf/pbtrs subset,
// lower storage, unblocked dpbtf2 algorithm).
//
// Storage: `ab` has shape (kd + 1, n); entry A(i,j) of the lower triangle
// (j <= i <= j+kd) lives at ab(i - j, j).
#pragma once

#include "parallel/view.hpp"

#include <algorithm>
#include <cstddef>

namespace pspl::hostlapack {

/// SPD banded matrix, lower band storage.
struct SymBandMatrix {
    std::size_t n = 0;
    std::size_t kd = 0; ///< number of subdiagonals
    View2D<double> ab;  ///< (kd+1, n)

    SymBandMatrix() = default;
    SymBandMatrix(std::size_t n_, std::size_t kd_)
        : n(n_), kd(kd_), ab("sym_band_ab", kd_ + 1, n_)
    {
    }

    double& at(std::size_t i, std::size_t j) { return ab(i - j, j); }
    double at(std::size_t i, std::size_t j) const { return ab(i - j, j); }
};

/// Pack the lower band of the leading n x n block of a dense SPD matrix.
SymBandMatrix pack_sym_band(const View2D<double>& a, std::size_t kd,
                            std::size_t n);

/// In-place Cholesky A = L*L^T. Returns 0, or k+1 if the leading minor of
/// order k+1 is not positive definite.
int pbtrf(SymBandMatrix& m);

/// Solve A x = b in-place given the pbtrf factorization; `b` may be strided.
template <class ABView, class BView>
void pbtrs(const ABView& ab, std::size_t n, std::size_t kd, const BView& b)
{
    // L y = b
    for (std::size_t j = 0; j < n; ++j) {
        const double bj = b(j) / ab(0, j);
        b(j) = bj;
        const std::size_t km = std::min(kd, n - 1 - j);
        for (std::size_t i = 1; i <= km; ++i) {
            b(j + i) -= ab(i, j) * bj;
        }
    }
    // L^T x = y
    for (std::size_t j = n; j-- > 0;) {
        double acc = b(j);
        const std::size_t km = std::min(kd, n - 1 - j);
        for (std::size_t i = 1; i <= km; ++i) {
            acc -= ab(i, j) * b(j + i);
        }
        b(j) = acc / ab(0, j);
    }
}

template <class BView>
void pbtrs(const SymBandMatrix& m, const BView& b)
{
    pbtrs(m.ab, m.n, m.kd, b);
}

} // namespace pspl::hostlapack

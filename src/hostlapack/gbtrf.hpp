// General banded LU factorization with partial pivoting (LAPACK gbtrf/gbtrs
// subset, unblocked dgbtf2 algorithm) in LAPACK band storage.
//
// Storage: `ab` has shape (2*kl + ku + 1, n); entry A(i,j) lives at
// ab(kl + ku + i - j, j). The top `kl` rows hold fill-in produced by row
// interchanges and MUST be zero on entry (pack_band guarantees this).
#pragma once

#include "parallel/view.hpp"

#include <algorithm>
#include <cstddef>

namespace pspl::hostlapack {

/// General banded matrix in LAPACK band storage with factorization headroom.
struct BandMatrix {
    std::size_t n = 0;
    std::size_t kl = 0; ///< number of subdiagonals
    std::size_t ku = 0; ///< number of superdiagonals
    View2D<double> ab;  ///< (2*kl+ku+1, n)

    BandMatrix() = default;
    BandMatrix(std::size_t n_, std::size_t kl_, std::size_t ku_)
        : n(n_), kl(kl_), ku(ku_), ab("band_ab", 2 * kl_ + ku_ + 1, n_)
    {
    }

    double& at(std::size_t i, std::size_t j)
    {
        return ab(kl + ku + i - j, j);
    }
    double at(std::size_t i, std::size_t j) const
    {
        return ab(kl + ku + i - j, j);
    }
    bool in_band(std::size_t i, std::size_t j) const
    {
        return (j <= i + ku) && (i <= j + kl);
    }
};

/// Pack the band of the leading n x n block of a dense matrix into LAPACK
/// band storage.
BandMatrix pack_band(const View2D<double>& a, std::size_t kl, std::size_t ku,
                     std::size_t n);

/// In-place banded LU with partial pivoting. Returns 0, or k+1 if the k-th
/// pivot is exactly zero.
int gbtrf(BandMatrix& m, View1D<int>& ipiv);

/// Solve A x = b in-place given the gbtrf factorization; `b` may be strided.
template <class ABView, class PivView, class BView>
void gbtrs(const ABView& ab, std::size_t n, std::size_t kl, std::size_t ku,
           const PivView& ipiv, const BView& b)
{
    const std::size_t kv = kl + ku;
    // Forward: apply interchanges and L (unit lower, bandwidth kl).
    if (kl > 0) {
        for (std::size_t j = 0; j + 1 < n; ++j) {
            const auto p = static_cast<std::size_t>(ipiv(j));
            if (p != j) {
                const double t = b(j);
                b(j) = b(p);
                b(p) = t;
            }
            const std::size_t km = std::min(kl, n - 1 - j);
            const double bj = b(j);
            for (std::size_t i = 1; i <= km; ++i) {
                b(j + i) -= ab(kv + i, j) * bj;
            }
        }
    }
    // Backward: U has bandwidth kv.
    for (std::size_t j = n; j-- > 0;) {
        double acc = b(j);
        const std::size_t reach = std::min(kv, n - 1 - j);
        for (std::size_t i = 1; i <= reach; ++i) {
            acc -= ab(kv - i, j + i) * b(j + i);
        }
        b(j) = acc / ab(kv, j);
    }
}

/// Convenience overload taking the factorized BandMatrix.
template <class PivView, class BView>
void gbtrs(const BandMatrix& m, const PivView& ipiv, const BView& b)
{
    gbtrs(m.ab, m.n, m.kl, m.ku, ipiv, b);
}

} // namespace pspl::hostlapack

#include "hostlapack/gbtrf.hpp"

#include "parallel/macros.hpp"

#include <cmath>

namespace pspl::hostlapack {

BandMatrix pack_band(const View2D<double>& a, std::size_t kl, std::size_t ku,
                     std::size_t n)
{
    PSPL_EXPECT(n <= a.extent(0) && n <= a.extent(1),
                "pack_band: block exceeds the matrix");
    BandMatrix m(n, kl, ku);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t ilo = j > ku ? j - ku : 0;
        const std::size_t ihi = std::min(n - 1, j + kl);
        for (std::size_t i = ilo; i <= ihi; ++i) {
            m.at(i, j) = a(i, j);
        }
    }
    return m;
}

int gbtrf(BandMatrix& m, View1D<int>& ipiv)
{
    const std::size_t n = m.n;
    const std::size_t kl = m.kl;
    const std::size_t kv = m.kl + m.ku;
    auto& ab = m.ab;
    PSPL_EXPECT(ipiv.extent(0) >= n, "gbtrf: ipiv too small");

    int info = 0;
    for (std::size_t j = 0; j < n; ++j) {
        // Pivot search among rows j .. j+km in column j.
        const std::size_t km = std::min(kl, n - 1 - j);
        std::size_t jp = 0; // offset of pivot row from j
        double pmax = std::abs(ab(kv, j));
        for (std::size_t i = 1; i <= km; ++i) {
            const double v = std::abs(ab(kv + i, j));
            if (v > pmax) {
                pmax = v;
                jp = i;
            }
        }
        ipiv(j) = static_cast<int>(j + jp);
        if (pmax == 0.0) {
            if (info == 0) {
                info = static_cast<int>(j) + 1;
            }
            continue;
        }
        // Columns reachable by row j+jp within the (widened) band.
        const std::size_t ju = std::min(n - 1, j + kv);
        if (jp != 0) {
            // Swap rows j and j+jp across columns j..ju.
            for (std::size_t jj = j; jj <= ju; ++jj) {
                const double t = ab(kv + j - jj, jj);
                ab(kv + j - jj, jj) = ab(kv + j + jp - jj, jj);
                ab(kv + j + jp - jj, jj) = t;
            }
        }
        if (km > 0) {
            const double inv_piv = 1.0 / ab(kv, j);
            for (std::size_t i = 1; i <= km; ++i) {
                ab(kv + i, j) *= inv_piv;
            }
            // Rank-1 update of the trailing band.
            for (std::size_t jj = j + 1; jj <= ju; ++jj) {
                const double t = ab(kv + j - jj, jj);
                if (t != 0.0) {
                    for (std::size_t i = 1; i <= km; ++i) {
                        ab(kv + j - jj + i, jj) -= ab(kv + i, j) * t;
                    }
                }
            }
        }
    }
    return info;
}

} // namespace pspl::hostlapack

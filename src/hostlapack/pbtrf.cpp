#include "hostlapack/pbtrf.hpp"

#include "parallel/macros.hpp"

#include <cmath>

namespace pspl::hostlapack {

SymBandMatrix pack_sym_band(const View2D<double>& a, std::size_t kd,
                            std::size_t n)
{
    PSPL_EXPECT(n <= a.extent(0) && n <= a.extent(1),
                "pack_sym_band: block exceeds the matrix");
    SymBandMatrix m(n, kd);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t ihi = std::min(n - 1, j + kd);
        for (std::size_t i = j; i <= ihi; ++i) {
            m.at(i, j) = a(i, j);
        }
    }
    return m;
}

int pbtrf(SymBandMatrix& m)
{
    const std::size_t n = m.n;
    const std::size_t kd = m.kd;
    auto& ab = m.ab;

    for (std::size_t j = 0; j < n; ++j) {
        const double ajj = ab(0, j);
        if (ajj <= 0.0) {
            return static_cast<int>(j) + 1;
        }
        const double ljj = std::sqrt(ajj);
        ab(0, j) = ljj;
        const std::size_t km = std::min(kd, n - 1 - j);
        if (km > 0) {
            const double inv = 1.0 / ljj;
            for (std::size_t i = 1; i <= km; ++i) {
                ab(i, j) *= inv;
            }
            // Symmetric rank-1 update of the trailing band (lower part only).
            for (std::size_t k = 1; k <= km; ++k) {
                const double ljk = ab(k, j);
                if (ljk != 0.0) {
                    for (std::size_t i = k; i <= km; ++i) {
                        ab(i - k, j + k) -= ab(i, j) * ljk;
                    }
                }
            }
        }
    }
    return 0;
}

} // namespace pspl::hostlapack

// Unit tests for the host LAPACK subset against dense references and exact
// systems, including parameterized sweeps over sizes and bandwidths.
#include "hostlapack/dense.hpp"
#include "hostlapack/gbtrf.hpp"
#include "hostlapack/getrf.hpp"
#include "hostlapack/gttrf.hpp"
#include "hostlapack/pbtrf.hpp"
#include "hostlapack/pttrf.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/subview.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <tuple>
#include <vector>

namespace {

using namespace pspl;
namespace hl = pspl::hostlapack;

/// Deterministic random matrix with a dominant diagonal (well conditioned).
View2D<double> random_matrix(std::size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = dist(rng);
        }
        a(i, i) += static_cast<double>(n);
    }
    return a;
}

View1D<double> random_vector(std::size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View1D<double> b("b", n);
    for (std::size_t i = 0; i < n; ++i) {
        b(i) = dist(rng);
    }
    return b;
}

// ---------------------------------------------------------------------------
// Dense helpers
// ---------------------------------------------------------------------------

TEST(Dense, GemmMatchesHandComputation)
{
    View2D<double> a("a", 2, 3);
    View2D<double> b("b", 3, 2);
    View2D<double> c("c", 2, 2);
    int v = 1;
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            a(i, j) = v++;
        }
    }
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            b(i, j) = v++;
        }
    }
    hl::gemm(1.0, a, b, 0.0, c);
    // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
    EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
    // beta accumulation
    hl::gemm(1.0, a, b, 1.0, c);
    EXPECT_DOUBLE_EQ(c(0, 0), 116.0);
}

TEST(Dense, GemvAlphaBeta)
{
    View2D<double> a("a", 2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 3.0;
    a(1, 1) = 4.0;
    View1D<double> x("x", 2);
    x(0) = 1.0;
    x(1) = 1.0;
    View1D<double> y("y", 2);
    y(0) = 10.0;
    y(1) = 10.0;
    hl::gemv(2.0, a, x, 0.5, y);
    EXPECT_DOUBLE_EQ(y(0), 2.0 * 3.0 + 5.0);
    EXPECT_DOUBLE_EQ(y(1), 2.0 * 7.0 + 5.0);
}

TEST(Dense, NormsAndIdentity)
{
    auto id = hl::identity(4);
    EXPECT_DOUBLE_EQ(hl::norm_frobenius(id), 2.0);
    EXPECT_DOUBLE_EQ(hl::max_abs(id), 1.0);
    View1D<double> v("v", 3);
    v(0) = -3.0;
    v(1) = 2.0;
    EXPECT_DOUBLE_EQ(hl::max_abs_vec(v), 3.0);
}

// ---------------------------------------------------------------------------
// getrf / getrs
// ---------------------------------------------------------------------------

class GetrfSized : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GetrfSized, SolvesRandomSystem)
{
    const std::size_t n = GetParam();
    auto a = random_matrix(n, 42 + static_cast<unsigned>(n));
    auto b = random_vector(n, 7);
    auto lu = clone(a);
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hl::getrf(lu, ipiv), 0);
    auto x = clone(b);
    hl::getrs(lu, ipiv, x);
    EXPECT_LT(hl::residual_inf(a, x, b), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GetrfSized,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 33, 64, 129));

TEST(Getrf, RequiresPivoting)
{
    // Zero on the initial diagonal forces a row interchange.
    View2D<double> a("a", 2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    auto lu = clone(a);
    View1D<int> ipiv("ipiv", 2);
    ASSERT_EQ(hl::getrf(lu, ipiv), 0);
    View1D<double> b("b", 2);
    b(0) = 3.0;
    b(1) = 5.0;
    auto x = clone(b);
    hl::getrs(lu, ipiv, x);
    EXPECT_DOUBLE_EQ(x(0), 5.0);
    EXPECT_DOUBLE_EQ(x(1), 3.0);
}

TEST(Getrf, DetectsSingularMatrix)
{
    View2D<double> a("a", 3, 3);
    // Rank-1 matrix.
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            a(i, j) = static_cast<double>((i + 1) * (j + 1));
        }
    }
    View1D<int> ipiv("ipiv", 3);
    EXPECT_GT(hl::getrf(a, ipiv), 0);
}

TEST(Getrs, SolvesStridedRhs)
{
    const std::size_t n = 6;
    auto a = random_matrix(n, 3);
    auto lu = clone(a);
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hl::getrf(lu, ipiv), 0);
    View2D<double> block("block", n, 4);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            block(i, j) = std::cos(static_cast<double>(i * 4 + j));
        }
    }
    auto ref = clone(block);
    for (std::size_t j = 0; j < 4; ++j) {
        auto col = subview(block, ALL, j);
        hl::getrs(lu, ipiv, col);
        auto bcol = subview(ref, ALL, j);
        EXPECT_LT(hl::residual_inf(a, col, bcol), 1e-10) << "column " << j;
    }
}

// ---------------------------------------------------------------------------
// gbtrf / gbtrs
// ---------------------------------------------------------------------------

View2D<double> random_banded(std::size_t n, std::size_t kl, std::size_t ku,
                             unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t jlo = i > kl ? i - kl : 0;
        const std::size_t jhi = std::min(n - 1, i + ku);
        for (std::size_t j = jlo; j <= jhi; ++j) {
            a(i, j) = dist(rng);
        }
        a(i, i) += 4.0;
    }
    return a;
}

class GbtrfParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>>
{
};

TEST_P(GbtrfParam, MatchesDenseSolve)
{
    const auto [n, kl, ku] = GetParam();
    auto a = random_banded(n, kl, ku, 11 + static_cast<unsigned>(n + kl + ku));
    auto b = random_vector(n, 5);

    // Banded path.
    auto band = hl::pack_band(a, kl, ku, a.extent(0));
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hl::gbtrf(band, ipiv), 0);
    auto x = clone(b);
    hl::gbtrs(band, ipiv, x);

    EXPECT_LT(hl::residual_inf(a, x, b), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
        Shapes, GbtrfParam,
        ::testing::Values(std::make_tuple(5, 1, 1), std::make_tuple(10, 2, 1),
                          std::make_tuple(10, 1, 2), std::make_tuple(20, 3, 3),
                          std::make_tuple(50, 2, 4), std::make_tuple(64, 5, 2),
                          std::make_tuple(100, 1, 1),
                          std::make_tuple(33, 0, 2)));

TEST(Gbtrf, PivotingKicksIn)
{
    // Small diagonal forces interchanges inside the band.
    const std::size_t n = 12;
    auto a = random_banded(n, 2, 2, 19);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) -= 4.0; // remove dominance
    }
    auto b = random_vector(n, 23);
    auto band = hl::pack_band(a, 2, 2, a.extent(0));
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hl::gbtrf(band, ipiv), 0);
    auto x = clone(b);
    hl::gbtrs(band, ipiv, x);
    EXPECT_LT(hl::residual_inf(a, x, b), 1e-9);
    // At least one interchange should have occurred.
    bool swapped = false;
    for (std::size_t i = 0; i < n; ++i) {
        swapped = swapped || (ipiv(i) != static_cast<int>(i));
    }
    EXPECT_TRUE(swapped);
}

TEST(Gbtrf, DetectsSingular)
{
    View2D<double> a("a", 4, 4); // all zero
    auto band = hl::pack_band(a, 1, 1, a.extent(0));
    View1D<int> ipiv("ipiv", 4);
    EXPECT_GT(hl::gbtrf(band, ipiv), 0);
}

TEST(BandMatrix, PackRoundTrip)
{
    auto a = random_banded(9, 2, 1, 31);
    auto band = hl::pack_band(a, 2, 1, a.extent(0));
    for (std::size_t i = 0; i < 9; ++i) {
        for (std::size_t j = 0; j < 9; ++j) {
            if (band.in_band(i, j)) {
                EXPECT_DOUBLE_EQ(band.at(i, j), a(i, j));
            } else {
                EXPECT_EQ(a(i, j), 0.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// pbtrf / pbtrs
// ---------------------------------------------------------------------------

/// SPD banded matrix: diagonally dominant symmetric band.
View2D<double> spd_banded(std::size_t n, std::size_t kd, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j <= std::min(n - 1, i + kd); ++j) {
            const double v = dist(rng);
            a(i, j) = v;
            a(j, i) = v;
        }
        a(i, i) = 2.0 * static_cast<double>(kd) + 1.0;
    }
    return a;
}

class PbtrfParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{
};

TEST_P(PbtrfParam, MatchesDenseSolve)
{
    const auto [n, kd] = GetParam();
    auto a = spd_banded(n, kd, 17 + static_cast<unsigned>(n));
    auto b = random_vector(n, 29);
    auto sym = hl::pack_sym_band(a, kd, a.extent(0));
    ASSERT_EQ(hl::pbtrf(sym), 0);
    auto x = clone(b);
    hl::pbtrs(sym, x);
    EXPECT_LT(hl::residual_inf(a, x, b), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PbtrfParam,
                         ::testing::Values(std::make_tuple(5, 1),
                                           std::make_tuple(10, 2),
                                           std::make_tuple(20, 3),
                                           std::make_tuple(50, 2),
                                           std::make_tuple(100, 4),
                                           std::make_tuple(7, 0)));

TEST(Pbtrf, RejectsIndefiniteMatrix)
{
    View2D<double> a("a", 3, 3);
    a(0, 0) = 1.0;
    a(1, 1) = -1.0; // indefinite
    a(2, 2) = 1.0;
    auto sym = hl::pack_sym_band(a, 1, a.extent(0));
    EXPECT_EQ(hl::pbtrf(sym), 2);
}

TEST(Pbtrf, CholeskyFactorIsCorrect)
{
    const std::size_t n = 8;
    const std::size_t kd = 2;
    auto a = spd_banded(n, kd, 3);
    auto sym = hl::pack_sym_band(a, kd, a.extent(0));
    ASSERT_EQ(hl::pbtrf(sym), 0);
    // Reconstruct L * L^T and compare against A on the lower band.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i > kd ? i - kd : 0; j <= i; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k <= j; ++k) {
                const double lik = (i >= k && i - k <= kd) ? sym.ab(i - k, k)
                                                           : 0.0;
                const double ljk = (j >= k && j - k <= kd) ? sym.ab(j - k, k)
                                                           : 0.0;
                acc += lik * ljk;
            }
            EXPECT_NEAR(acc, a(i, j), 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// gttrf / gttrs
// ---------------------------------------------------------------------------

/// Non-symmetric tridiagonal matrix; `dominant` controls whether pivoting
/// will be required.
View2D<double> tridiag_matrix(std::size_t n, bool dominant, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) = dominant ? 4.0 + dist(rng) : 0.1 * dist(rng);
        if (i + 1 < n) {
            a(i, i + 1) = 1.0 + dist(rng);
            a(i + 1, i) = -1.0 + dist(rng);
        }
    }
    return a;
}

class GttrfParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>>
{
};

TEST_P(GttrfParam, MatchesDenseSolve)
{
    const auto [n, dominant] = GetParam();
    const auto a = tridiag_matrix(n, dominant, 41 + static_cast<unsigned>(n));
    View1D<double> dl("dl", n > 1 ? n - 1 : 1);
    View1D<double> d("d", n);
    View1D<double> du("du", n > 1 ? n - 1 : 1);
    View1D<double> du2("du2", n > 2 ? n - 2 : 1);
    View1D<int> ipiv("ipiv", n);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = a(i, i);
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
        dl(i) = a(i + 1, i);
        du(i) = a(i, i + 1);
    }
    ASSERT_EQ(hl::gttrf(dl, d, du, du2, ipiv), 0);
    const auto b = random_vector(n, 37);
    auto x = clone(b);
    hl::gttrs(dl, d, du, du2, ipiv, x);
    EXPECT_LT(hl::residual_inf(a, x, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GttrfParam,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 20,
                                                              100),
                                            ::testing::Bool()));

TEST(Gttrf, PivotingActuallyHappensOnWeakDiagonal)
{
    const std::size_t n = 40;
    const auto a = tridiag_matrix(n, false, 7);
    View1D<double> dl("dl", n - 1);
    View1D<double> d("d", n);
    View1D<double> du("du", n - 1);
    View1D<double> du2("du2", n - 2);
    View1D<int> ipiv("ipiv", n);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = a(i, i);
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
        dl(i) = a(i + 1, i);
        du(i) = a(i, i + 1);
    }
    ASSERT_EQ(hl::gttrf(dl, d, du, du2, ipiv), 0);
    bool swapped = false;
    bool fill = false;
    for (std::size_t i = 0; i < n; ++i) {
        swapped = swapped || (ipiv(i) != static_cast<int>(i));
    }
    for (std::size_t i = 0; i + 2 < n; ++i) {
        fill = fill || (du2(i) != 0.0);
    }
    EXPECT_TRUE(swapped);
    EXPECT_TRUE(fill); // pivoting produces the second superdiagonal
}

TEST(Gttrf, DetectsSingular)
{
    View1D<double> dl("dl", 2);
    View1D<double> d("d", 3); // all zero -> singular
    View1D<double> du("du", 2);
    View1D<double> du2("du2", 1);
    View1D<int> ipiv("ipiv", 3);
    EXPECT_GT(hl::gttrf(dl, d, du, du2, ipiv), 0);
}

// ---------------------------------------------------------------------------
// pttrf / pttrs
// ---------------------------------------------------------------------------

class PttrfSized : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PttrfSized, SolvesSpdTridiagonal)
{
    const std::size_t n = GetParam();
    // Classic [-1, 2, -1] Laplacian plus identity: SPD tridiagonal.
    View2D<double> a("a", n, n);
    View1D<double> d("d", n);
    View1D<double> e("e", n > 1 ? n - 1 : 1);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) = 3.0;
        d(i) = 3.0;
        if (i + 1 < n) {
            a(i, i + 1) = -1.0;
            a(i + 1, i) = -1.0;
            e(i) = -1.0;
        }
    }
    auto b = random_vector(n, 13);
    ASSERT_EQ(hl::pttrf(d, e), 0);
    auto x = clone(b);
    hl::pttrs(d, e, x);
    EXPECT_LT(hl::residual_inf(a, x, b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PttrfSized,
                         ::testing::Values(1, 2, 3, 10, 100, 1000));

TEST(Pttrf, RejectsNonPositive)
{
    View1D<double> d("d", 3);
    View1D<double> e("e", 2);
    d(0) = 1.0;
    d(1) = 0.25;
    d(2) = 1.0;
    e(0) = 1.0; // makes the second pivot 0.25 - 1 = -0.75
    e(1) = 0.0;
    EXPECT_GT(hl::pttrf(d, e), 0);
}

TEST(Pttrf, FactorizationIsLdlt)
{
    const std::size_t n = 5;
    View1D<double> d("d", n);
    View1D<double> e("e", n - 1);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = 4.0 + static_cast<double>(i);
        a(i, i) = d(i);
        if (i + 1 < n) {
            e(i) = 1.0 - 0.1 * static_cast<double>(i);
            a(i, i + 1) = e(i);
            a(i + 1, i) = e(i);
        }
    }
    ASSERT_EQ(hl::pttrf(d, e), 0);
    // Rebuild A = L D L^T from the factors.
    for (std::size_t i = 0; i < n; ++i) {
        // diagonal: d_i + l_{i-1}^2 d_{i-1}
        double diag = d(i);
        if (i > 0) {
            diag += e(i - 1) * e(i - 1) * d(i - 1);
        }
        EXPECT_NEAR(diag, a(i, i), 1e-12);
        if (i + 1 < n) {
            EXPECT_NEAR(e(i) * d(i), a(i, i + 1), 1e-12);
        }
    }
}

} // namespace

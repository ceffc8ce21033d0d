// Unit tests for the batched-serial device kernels: each solver is checked
// in-place on strided RHS columns inside a parallel region against the host
// reference, which is the exact usage pattern of the spline builder.
#include "batched/batched.hpp"
#include "hostlapack/dense.hpp"
#include "hostlapack/gbtrf.hpp"
#include "hostlapack/getrf.hpp"
#include "hostlapack/gttrf.hpp"
#include "hostlapack/pbtrf.hpp"
#include "hostlapack/pttrf.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/parallel.hpp"
#include "parallel/subview.hpp"
#include "sparse/coo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace {

using namespace pspl;
namespace hl = pspl::hostlapack;

View2D<double> random_rhs_block(std::size_t n, std::size_t batch, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> b("b", n, batch);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            b(i, j) = dist(rng);
        }
    }
    return b;
}

TEST(SerialPttrs, MatchesHostReferenceOverBatch)
{
    const std::size_t n = 64;
    const std::size_t batch = 37;
    View1D<double> d("d", n);
    View1D<double> e("e", n - 1);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = 4.0;
        a(i, i) = 4.0;
        if (i + 1 < n) {
            e(i) = -1.0;
            a(i, i + 1) = -1.0;
            a(i + 1, i) = -1.0;
        }
    }
    ASSERT_EQ(hl::pttrf(d, e), 0);

    auto b = random_rhs_block(n, batch, 101);
    auto ref = clone(b);

    parallel_for("pttrs_batch", batch, [=](std::size_t i) {
        auto col = subview(b, ALL, i);
        batched::SerialPttrs<batched::Uplo::Lower,
                             batched::Algo::Pttrs::Unblocked>::invoke(d, e,
                                                                      col);
    });

    for (std::size_t j = 0; j < batch; ++j) {
        auto x = subview(b, ALL, j);
        auto rhs = subview(ref, ALL, j);
        EXPECT_LT(hl::residual_inf(a, x, rhs), 1e-11) << "col " << j;
    }
}

TEST(SerialPttrs, UpperTagBehavesIdentically)
{
    const std::size_t n = 16;
    View1D<double> d("d", n);
    View1D<double> e("e", n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = 5.0;
        if (i + 1 < n) {
            e(i) = 1.0;
        }
    }
    ASSERT_EQ(hl::pttrf(d, e), 0);
    View1D<double> b1("b1", n);
    View1D<double> b2("b2", n);
    for (std::size_t i = 0; i < n; ++i) {
        b1(i) = b2(i) = std::sin(static_cast<double>(i));
    }
    batched::SerialPttrs<batched::Uplo::Lower>::invoke(d, e, b1);
    batched::SerialPttrs<batched::Uplo::Upper>::invoke(d, e, b2);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(b1(i), b2(i));
    }
}

TEST(SerialGttrs, MatchesHostReferenceOverBatch)
{
    const std::size_t n = 50;
    const std::size_t batch = 21;
    std::mt19937 rng(63);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    View1D<double> dl("dl", n - 1);
    View1D<double> d("d", n);
    View1D<double> du("du", n - 1);
    View1D<double> du2("du2", n - 2);
    View1D<int> ipiv("ipiv", n);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = 0.2 * dist(rng); // weak diagonal forces pivoting
        a(i, i) = d(i);
        if (i + 1 < n) {
            du(i) = 1.0 + dist(rng);
            dl(i) = -1.0 + dist(rng);
            a(i, i + 1) = du(i);
            a(i + 1, i) = dl(i);
        }
    }
    ASSERT_EQ(hl::gttrf(dl, d, du, du2, ipiv), 0);

    auto b = random_rhs_block(n, batch, 17);
    auto ref = clone(b);
    parallel_for("gttrs_batch", batch, [=](std::size_t i) {
        auto col = subview(b, ALL, i);
        batched::SerialGttrs<>::invoke(dl, d, du, du2, ipiv, col);
    });
    for (std::size_t j = 0; j < batch; ++j) {
        auto x = subview(b, ALL, j);
        auto rhs = subview(ref, ALL, j);
        EXPECT_LT(hl::residual_inf(a, x, rhs), 1e-9) << "col " << j;
    }
}

TEST(SerialGetrs, MatchesHostReferenceOverBatch)
{
    const std::size_t n = 12;
    const std::size_t batch = 25;
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = dist(rng);
        }
        a(i, i) += 5.0;
    }
    auto lu = clone(a);
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hl::getrf(lu, ipiv), 0);

    auto b = random_rhs_block(n, batch, 55);
    auto ref = clone(b);
    parallel_for("getrs_batch", batch, [=](std::size_t i) {
        auto col = subview(b, ALL, i);
        batched::SerialGetrs<batched::Trans::NoTranspose,
                             batched::Algo::Getrs::Unblocked>::invoke(lu, ipiv,
                                                                      col);
    });
    for (std::size_t j = 0; j < batch; ++j) {
        auto x = subview(b, ALL, j);
        auto rhs = subview(ref, ALL, j);
        EXPECT_LT(hl::residual_inf(a, x, rhs), 1e-10);
    }
}

TEST(SerialGbtrs, MatchesHostReferenceOverBatch)
{
    const std::size_t n = 40;
    const std::size_t kl = 2;
    const std::size_t ku = 3;
    const std::size_t batch = 15;
    std::mt19937 rng(21);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t jlo = i > kl ? i - kl : 0;
        const std::size_t jhi = std::min(n - 1, i + ku);
        for (std::size_t j = jlo; j <= jhi; ++j) {
            a(i, j) = dist(rng);
        }
        a(i, i) += 3.0;
    }
    auto band = hl::pack_band(a, kl, ku, a.extent(0));
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hl::gbtrf(band, ipiv), 0);
    const auto ab = band.ab;

    auto b = random_rhs_block(n, batch, 77);
    auto ref = clone(b);
    parallel_for("gbtrs_batch", batch, [=](std::size_t i) {
        auto col = subview(b, ALL, i);
        batched::SerialGbtrs<>::invoke(ab, static_cast<int>(kl),
                                       static_cast<int>(ku), ipiv, col);
    });
    for (std::size_t j = 0; j < batch; ++j) {
        auto x = subview(b, ALL, j);
        auto rhs = subview(ref, ALL, j);
        EXPECT_LT(hl::residual_inf(a, x, rhs), 1e-10);
    }
}

TEST(SerialPbtrs, MatchesHostReferenceOverBatch)
{
    const std::size_t n = 30;
    const std::size_t kd = 2;
    const std::size_t batch = 9;
    std::mt19937 rng(31);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j <= std::min(n - 1, i + kd); ++j) {
            const double v = dist(rng);
            a(i, j) = v;
            a(j, i) = v;
        }
        a(i, i) = 6.0;
    }
    auto sym = hl::pack_sym_band(a, kd, a.extent(0));
    ASSERT_EQ(hl::pbtrf(sym), 0);
    const auto ab = sym.ab;

    auto b = random_rhs_block(n, batch, 91);
    auto ref = clone(b);
    parallel_for("pbtrs_batch", batch, [=](std::size_t i) {
        auto col = subview(b, ALL, i);
        batched::SerialPbtrs<>::invoke(ab, col);
    });
    for (std::size_t j = 0; j < batch; ++j) {
        auto x = subview(b, ALL, j);
        auto rhs = subview(ref, ALL, j);
        EXPECT_LT(hl::residual_inf(a, x, rhs), 1e-10);
    }
}

TEST(SerialGemv, NoTransposeAndTranspose)
{
    View2D<double> a("a", 2, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    a(1, 0) = 4;
    a(1, 1) = 5;
    a(1, 2) = 6;
    View1D<double> x3("x3", 3);
    x3(0) = 1;
    x3(1) = 1;
    x3(2) = 1;
    View1D<double> y2("y2", 2);
    y2(0) = 1;
    y2(1) = 1;
    batched::SerialGemv<>::invoke(2.0, a, x3, 1.0, y2);
    EXPECT_DOUBLE_EQ(y2(0), 13.0); // 2*6 + 1
    EXPECT_DOUBLE_EQ(y2(1), 31.0); // 2*15 + 1

    View1D<double> x2("x2", 2);
    x2(0) = 1;
    x2(1) = 1;
    View1D<double> y3("y3", 3);
    batched::SerialGemv<batched::Trans::Transpose>::invoke(1.0, a, x2, 0.0,
                                                           y3);
    EXPECT_DOUBLE_EQ(y3(0), 5.0);
    EXPECT_DOUBLE_EQ(y3(1), 7.0);
    EXPECT_DOUBLE_EQ(y3(2), 9.0);
}

TEST(SerialGemv, EquivalentToGlobalGemmOverBatch)
{
    const std::size_t m = 4;
    const std::size_t k = 6;
    const std::size_t batch = 11;
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", m, k);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            a(i, j) = dist(rng);
        }
    }
    auto x = random_rhs_block(k, batch, 5);
    auto y1 = random_rhs_block(m, batch, 6);
    auto y2 = clone(y1);

    blas::gemm("gemm", -1.0, a, x, 1.0, y1);
    parallel_for("gemv_batch", batch, [=](std::size_t i) {
        auto xc = subview(x, ALL, i);
        auto yc = subview(y2, ALL, i);
        batched::SerialGemv<>::invoke(-1.0, a, xc, 1.0, yc);
    });
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            EXPECT_NEAR(y1(i, j), y2(i, j), 1e-13);
        }
    }
}

TEST(SerialSpmvCoo, MatchesDenseGemv)
{
    const std::size_t m = 8;
    const std::size_t k = 5;
    View2D<double> a("a", m, k);
    a(0, 0) = 1.5;
    a(3, 2) = -2.0;
    a(7, 4) = 0.25;
    a(2, 2) = 4.0;
    const auto coo = sparse::Coo::from_dense(a, 0.0);
    EXPECT_EQ(coo.nnz(), 4u);

    View1D<double> x("x", k);
    for (std::size_t j = 0; j < k; ++j) {
        x(j) = static_cast<double>(j + 1);
    }
    View1D<double> y_dense("yd", m);
    View1D<double> y_coo("yc", m);
    for (std::size_t i = 0; i < m; ++i) {
        y_dense(i) = y_coo(i) = 1.0;
    }
    batched::SerialGemv<>::invoke(-1.0, a, x, 1.0, y_dense);
    batched::SerialSpmvCoo::invoke(-1.0, coo, x, y_coo);
    for (std::size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(y_dense(i), y_coo(i), 1e-14);
    }
}

TEST(SerialGetrf, FactorizesPerBatchEntry)
{
    // The generic multi-matrix mode: every batch entry owns a (slightly
    // different) matrix and factorizes it in-kernel, then solves.
    const std::size_t n = 10;
    const std::size_t batch = 12;
    std::mt19937 rng(71);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View3D<double> mats("mats", batch, n, n);
    for (std::size_t e = 0; e < batch; ++e) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                mats(e, i, j) = dist(rng);
            }
            mats(e, i, i) += 5.0 + static_cast<double>(e);
        }
    }
    auto ref = pspl::View3D<double>("ref", batch, n, n);
    for (std::size_t e = 0; e < batch; ++e) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                ref(e, i, j) = mats(e, i, j);
            }
        }
    }
    View2D<int> ipivs("ipivs", batch, n);
    auto b = random_rhs_block(n, batch, 99);
    auto rhs = clone(b);

    parallel_for("getrf_getrs_batch", batch, [=](std::size_t e) {
        auto a = subview(mats, e, ALL, ALL);
        auto piv = subview(ipivs, e, ALL);
        batched::SerialGetrf<>::invoke(a, piv);
        auto col = subview(b, ALL, e);
        batched::SerialGetrs<>::invoke(a, piv, col);
    });

    for (std::size_t e = 0; e < batch; ++e) {
        auto x = subview(b, ALL, e);
        auto bb = subview(rhs, ALL, e);
        auto a = subview(ref, e, ALL, ALL);
        // residual against the entry's own original matrix
        double r = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double acc = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                acc += a(i, j) * x(j);
            }
            r = std::max(r, std::abs(acc - bb(i)));
        }
        EXPECT_LT(r, 1e-10) << "entry " << e;
    }
}

TEST(SerialGetrf, AgreesWithHostGetrf)
{
    const std::size_t n = 9;
    std::mt19937 rng(83);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a1("a1", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a1(i, j) = dist(rng);
        }
    }
    auto a2 = clone(a1);
    View1D<int> p1("p1", n);
    View1D<int> p2("p2", n);
    EXPECT_EQ(hl::getrf(a1, p1), batched::SerialGetrf<>::invoke(a2, p2));
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(p1(i), p2(i));
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_DOUBLE_EQ(a1(i, j), a2(i, j));
        }
    }
}

TEST(SerialGetrf, ReportsSingularity)
{
    View2D<double> a("a", 3, 3); // zero matrix
    View1D<int> piv("piv", 3);
    EXPECT_GT(batched::SerialGetrf<>::invoke(a, piv), 0);
}

TEST(SerialTrsv, LowerUpperUnitNonUnit)
{
    const std::size_t n = 10;
    std::mt19937 rng(13);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> lo("lo", n, n);
    View2D<double> up("up", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            lo(i, j) = dist(rng);
            up(j, i) = dist(rng);
        }
        lo(i, i) = 3.0 + dist(rng);
        up(i, i) = 3.0 + dist(rng);
    }
    const auto b = random_rhs_block(n, 1, 3);

    // Non-unit lower.
    {
        auto x = clone(b);
        auto col = subview(x, ALL, std::size_t{0});
        batched::SerialTrsv<batched::Uplo::Lower>::invoke(lo, col);
        auto rhs = subview(b, ALL, std::size_t{0});
        EXPECT_LT(hl::residual_inf(lo, col, rhs), 1e-11);
    }
    // Non-unit upper.
    {
        auto x = clone(b);
        auto col = subview(x, ALL, std::size_t{0});
        batched::SerialTrsv<batched::Uplo::Upper>::invoke(up, col);
        auto rhs = subview(b, ALL, std::size_t{0});
        EXPECT_LT(hl::residual_inf(up, col, rhs), 1e-11);
    }
    // Unit-diagonal variants ignore the stored diagonal.
    {
        auto lo_unit = clone(lo);
        for (std::size_t i = 0; i < n; ++i) {
            lo_unit(i, i) = 1.0;
        }
        auto x1 = clone(b);
        auto x2 = clone(b);
        auto c1 = subview(x1, ALL, std::size_t{0});
        auto c2 = subview(x2, ALL, std::size_t{0});
        batched::SerialTrsv<batched::Uplo::Lower,
                            batched::Diag::Unit>::invoke(lo, c1);
        batched::SerialTrsv<batched::Uplo::Lower,
                            batched::Diag::NonUnit>::invoke(lo_unit, c2);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(c1(i), c2(i), 1e-13);
        }
    }
}

TEST(SerialTrsv, ComposesIntoGetrs)
{
    // P^T L U x = b solved as: apply P, unit-lower trsv, upper trsv must
    // agree with SerialGetrs.
    const std::size_t n = 8;
    std::mt19937 rng(29);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = dist(rng);
        }
        a(i, i) += 4.0;
    }
    auto lu = clone(a);
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hl::getrf(lu, ipiv), 0);

    auto b = random_rhs_block(n, 1, 5);
    auto x1 = clone(b);
    auto x2 = clone(b);
    auto c1 = subview(x1, ALL, std::size_t{0});
    auto c2 = subview(x2, ALL, std::size_t{0});
    batched::SerialGetrs<>::invoke(lu, ipiv, c1);

    for (std::size_t k = 0; k < n; ++k) {
        const auto p = static_cast<std::size_t>(ipiv(k));
        if (p != k) {
            std::swap(c2(k), c2(p));
        }
    }
    batched::SerialTrsv<batched::Uplo::Lower, batched::Diag::Unit>::invoke(
            lu, c2);
    batched::SerialTrsv<batched::Uplo::Upper>::invoke(lu, c2);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(c1(i), c2(i));
    }
}

TEST(SerialTbsv, ComposesIntoPbtrs)
{
    // L tbsv then L^T tbsv on the Cholesky band factor == SerialPbtrs.
    const std::size_t n = 25;
    const std::size_t kd = 3;
    std::mt19937 rng(47);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j <= std::min(n - 1, i + kd); ++j) {
            const double v = dist(rng);
            a(i, j) = v;
            a(j, i) = v;
        }
        a(i, i) = 8.0;
    }
    auto sym = hl::pack_sym_band(a, kd, a.extent(0));
    ASSERT_EQ(hl::pbtrf(sym), 0);
    const auto ab = sym.ab;

    auto b = random_rhs_block(n, 2, 9);
    auto x1 = clone(b);
    auto x2 = clone(b);
    for (std::size_t j = 0; j < 2; ++j) {
        auto c1 = subview(x1, ALL, j);
        auto c2 = subview(x2, ALL, j);
        batched::SerialPbtrs<>::invoke(ab, c1);
        batched::SerialTbsv<batched::Uplo::Lower,
                            batched::Trans::NoTranspose>::invoke(ab, c2);
        batched::SerialTbsv<batched::Uplo::Lower,
                            batched::Trans::Transpose>::invoke(ab, c2);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_DOUBLE_EQ(c1(i), c2(i));
        }
    }
}

TEST(BlasGemm, ExtentMismatchAborts)
{
    View2D<double> a("a", 2, 3);
    View2D<double> b("b", 4, 2); // wrong inner extent
    View2D<double> c("c", 2, 2);
    EXPECT_DEATH(blas::gemm("bad", 1.0, a, b, 0.0, c), "extent mismatch");
}

} // namespace

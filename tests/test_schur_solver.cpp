// Tests for the Schur-complement solver (Algorithm 1): correctness against
// a dense LU reference for every spline matrix class, sparsity of the
// corner blocks, and fallback behaviour.
#include "bsplines/collocation.hpp"
#include "bsplines/knots.hpp"
#include "core/batched_solve.hpp"
#include "core/schur_solver.hpp"
#include "hostlapack/dense.hpp"
#include "hostlapack/gbtrf.hpp"
#include "hostlapack/getrf.hpp"
#include "hostlapack/gttrf.hpp"
#include "hostlapack/pbtrf.hpp"
#include "hostlapack/pttrf.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/profiling.hpp"
#include "parallel/subview.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;
using bsplines::collocation_matrix;
using bsplines::stretched_breaks;
using core::SchurSolver;
using core::SolverKind;

View1D<double> wave_rhs(std::size_t n, double phase)
{
    View1D<double> b("b", n);
    for (std::size_t i = 0; i < n; ++i) {
        b(i) = std::sin(0.1 * static_cast<double>(i) + phase)
               + 0.3 * std::cos(0.37 * static_cast<double>(i));
    }
    return b;
}

class SchurParam
    : public ::testing::TestWithParam<std::tuple<int, bool, std::size_t>>
{
protected:
    View2D<double> matrix() const
    {
        const auto [degree, uniform, n] = GetParam();
        const auto basis =
                uniform ? BSplineBasis::uniform(degree, n, 0.0, 1.0)
                        : BSplineBasis::non_uniform(
                                  degree, stretched_breaks(n, 0.0, 1.0, 0.5));
        return collocation_matrix(basis);
    }
};

TEST_P(SchurParam, MatchesDenseReference)
{
    const auto a = matrix();
    const std::size_t n = a.extent(0);
    SchurSolver solver(a);

    // Dense LU reference.
    auto lu = clone(a);
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hostlapack::getrf(lu, ipiv), 0);

    for (const double phase : {0.0, 1.0, 2.5}) {
        auto b = wave_rhs(n, phase);
        auto x_ref = clone(b);
        hostlapack::getrs(lu, ipiv, x_ref);
        auto x = clone(b);
        core::solve_one(solver.device_data(), x);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(x(i), x_ref(i), 1e-10) << "i=" << i;
        }
        EXPECT_LT(hostlapack::residual_inf(a, x, b), 1e-11);
    }
}

TEST_P(SchurParam, SelectsTableISolver)
{
    const auto [degree, uniform, n] = GetParam();
    (void)n;
    const auto a = matrix();
    SchurSolver solver(a);
    if (uniform && degree == 3) {
        EXPECT_EQ(solver.kind(), SolverKind::PTTRS);
    } else if (uniform) {
        EXPECT_EQ(solver.kind(), SolverKind::PBTRS);
    } else {
        EXPECT_EQ(solver.kind(), SolverKind::GBTRS);
    }
}

INSTANTIATE_TEST_SUITE_P(
        Splines, SchurParam,
        ::testing::Combine(::testing::Values(3, 4, 5), ::testing::Bool(),
                           ::testing::Values(std::size_t{16}, std::size_t{64},
                                             std::size_t{200})),
        [](const auto& info) {
            const int d = std::get<0>(info.param);
            const bool u = std::get<1>(info.param);
            const std::size_t n = std::get<2>(info.param);
            return std::string("deg") + std::to_string(d)
                   + (u ? "_uniform_" : "_nonuniform_") + std::to_string(n);
        });

TEST(SchurSolver, BetaIsSparseAfterThresholding)
{
    // The paper: for n=1000 uniform cubic, the (999,1) beta block keeps only
    // ~48 nonzeros because |beta_ij| decays exponentially from the corner.
    const std::size_t n = 1000;
    const auto basis = BSplineBasis::uniform(3, n, 0.0, 1.0);
    const auto a = collocation_matrix(basis);
    SchurSolver solver(a);
    const auto& data = solver.device_data();
    ASSERT_EQ(data.k, 1u);
    EXPECT_EQ(data.beta_dense.extent(0), n - 1);
    // Dense beta has n-1 entries; COO keeps a few dozen.
    EXPECT_LT(data.beta_coo.nnz(), 100u);
    EXPECT_GT(data.beta_coo.nnz(), 10u);
    // lambda row has very few entries (2 in the paper).
    EXPECT_LE(data.lambda_coo.nnz(), 4u);
    EXPECT_GE(data.lambda_coo.nnz(), 1u);
}

TEST(SchurSolver, SparsifiedSolveStillAccurate)
{
    // The COO path is only used by the FusedSpmv builder; verify directly
    // that replacing dense corners by their sparsified COO equivalents does
    // not change the solution beyond round-off.
    const std::size_t n = 500;
    const auto basis = BSplineBasis::uniform(3, n, 0.0, 1.0);
    const auto a = collocation_matrix(basis);
    SchurSolver solver(a);
    const auto& s = solver.device_data();

    auto b = wave_rhs(n, 0.3);
    auto x_dense = clone(b);
    core::solve_one(solver.device_data(), x_dense);

    // Manual Algorithm 1 with COO corners.
    auto x = clone(b);
    auto x0 = subview(x, std::pair<std::size_t, std::size_t>(0, s.n0));
    auto x1 = subview(x, std::pair<std::size_t, std::size_t>(s.n0, s.n));
    core::solve_q_serial(s, x0);
    s.lambda_coo.spmv_sub(x0, x1);
    batched::SerialGetrs<>::invoke(s.delta_lu, s.delta_ipiv, x1);
    s.beta_coo.spmv_sub(x1, x0);

    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x(i), x_dense(i), 1e-12);
    }
    EXPECT_LT(hostlapack::residual_inf(a, x, b), 1e-12);
}

TEST(SchurSolver, HandlesMatrixWithoutCorners)
{
    // Plain SPD tridiagonal (no periodic wrap): k = 0, pure Q solve.
    const std::size_t n = 50;
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) = 4.0;
        if (i + 1 < n) {
            a(i, i + 1) = -1.0;
            a(i + 1, i) = -1.0;
        }
    }
    SchurSolver solver(a);
    EXPECT_EQ(solver.device_data().k, 0u);
    EXPECT_EQ(solver.kind(), SolverKind::PTTRS);
    auto b = wave_rhs(n, 0.0);
    auto x = clone(b);
    core::solve_one(solver.device_data(), x);
    EXPECT_LT(hostlapack::residual_inf(a, x, b), 1e-12);
}

TEST(SchurSolver, FallsBackWhenNotPositiveDefinite)
{
    // Symmetric cyclic tridiagonal that is NOT positive definite:
    // diag 1, off-diag 1 -> eigenvalues 1 + 2cos(theta), some negative.
    // (n = 25 keeps both A and Q nonsingular: 1 + 2cos never hits zero.)
    const std::size_t n = 25;
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) = 1.0;
        a(i, (i + 1) % n) = 1.0;
        a((i + 1) % n, i) = 1.0;
    }
    SchurSolver solver(a);
    // Structure says PTTRS; factorization must fall back to the pivoted
    // tridiagonal solver.
    EXPECT_EQ(solver.structure().recommended, SolverKind::PTTRS);
    EXPECT_EQ(solver.kind(), SolverKind::GTTRS);
    auto b = wave_rhs(n, 0.7);
    auto x = clone(b);
    core::solve_one(solver.device_data(), x);
    EXPECT_LT(hostlapack::residual_inf(a, x, b), 1e-10);
}

// ---------------------------------------------------------------------------
// Q is factored in place from A's leading n0 x n0 block. The oracle copies Q
// into a dense array and factors it with the same hostlapack routine; every
// factor must equal it bitwise.
// ---------------------------------------------------------------------------

template <class V>
void expect_same_bits(const V& out, const V& ref, const char* what)
{
    ASSERT_EQ(out.size(), ref.size()) << what;
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          out.size() * sizeof(typename V::value_type)),
              0)
            << what;
}

void expect_factors_match_dense_oracle(const View2D<double>& a,
                                       SolverKind expected)
{
    const SchurSolver solver(a);
    const auto& s = solver.device_data();
    ASSERT_EQ(s.kind, expected);
    const std::size_t n0 = s.n0;
    View2D<double> q("q", n0, n0);
    for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n0; ++j) {
            q(i, j) = a(i, j);
        }
    }
    const std::size_t kl = solver.structure().kl;
    const std::size_t ku = solver.structure().ku;
    switch (s.kind) {
    case SolverKind::PTTRS: {
        View1D<double> d("d", n0);
        View1D<double> e("e", n0 - 1);
        for (std::size_t i = 0; i < n0; ++i) {
            d(i) = q(i, i);
        }
        for (std::size_t i = 0; i + 1 < n0; ++i) {
            e(i) = q(i + 1, i);
        }
        ASSERT_EQ(hostlapack::pttrf(d, e), 0);
        expect_same_bits(s.pt_d, d, "pt_d");
        expect_same_bits(s.pt_e, e, "pt_e");
        break;
    }
    case SolverKind::GTTRS: {
        View1D<double> dl("dl", n0 - 1);
        View1D<double> d("d", n0);
        View1D<double> du("du", n0 - 1);
        View1D<double> du2("du2", n0 - 2);
        View1D<int> ipiv("ipiv", n0);
        for (std::size_t i = 0; i < n0; ++i) {
            d(i) = q(i, i);
        }
        for (std::size_t i = 0; i + 1 < n0; ++i) {
            dl(i) = q(i + 1, i);
            du(i) = q(i, i + 1);
        }
        ASSERT_EQ(hostlapack::gttrf(dl, d, du, du2, ipiv), 0);
        expect_same_bits(s.gt_dl, dl, "gt_dl");
        expect_same_bits(s.gt_d, d, "gt_d");
        expect_same_bits(s.gt_du, du, "gt_du");
        expect_same_bits(s.gt_du2, du2, "gt_du2");
        expect_same_bits(s.gt_ipiv, ipiv, "gt_ipiv");
        break;
    }
    case SolverKind::PBTRS: {
        auto band = hostlapack::pack_sym_band(q, std::max(kl, ku), n0);
        ASSERT_EQ(hostlapack::pbtrf(band), 0);
        expect_same_bits(s.pb_ab, band.ab, "pb_ab");
        break;
    }
    case SolverKind::GBTRS: {
        auto band = hostlapack::pack_band(q, kl, ku, n0);
        View1D<int> ipiv("ipiv", n0);
        ASSERT_EQ(hostlapack::gbtrf(band, ipiv), 0);
        expect_same_bits(s.gb_ab, band.ab, "gb_ab");
        expect_same_bits(s.gb_ipiv, ipiv, "gb_ipiv");
        break;
    }
    case SolverKind::GETRS: {
        auto lu = clone(q);
        View1D<int> ipiv("ipiv", n0);
        ASSERT_EQ(hostlapack::getrf(lu, ipiv), 0);
        expect_same_bits(s.ge_lu, lu, "ge_lu");
        expect_same_bits(s.ge_ipiv, ipiv, "ge_ipiv");
        break;
    }
    }
}

TEST(SchurSolverFactors, SplineBasesMatchDenseQOracleBitwise)
{
    // Table I classes of the spline matrices: uniform cubic (PTTRS),
    // uniform quintic (PBTRS), stretched cubic and quartic (GBTRS).
    const auto stretched = [](int degree) {
        return BSplineBasis::non_uniform(degree,
                                         stretched_breaks(64, 0.0, 1.0, 0.5));
    };
    expect_factors_match_dense_oracle(
            collocation_matrix(BSplineBasis::uniform(3, 64, 0.0, 1.0)),
            SolverKind::PTTRS);
    expect_factors_match_dense_oracle(
            collocation_matrix(BSplineBasis::uniform(5, 64, 0.0, 1.0)),
            SolverKind::PBTRS);
    expect_factors_match_dense_oracle(collocation_matrix(stretched(3)),
                                      SolverKind::GBTRS);
    expect_factors_match_dense_oracle(collocation_matrix(stretched(4)),
                                      SolverKind::GBTRS);
}

TEST(SchurSolverFactors, HandBuiltMatricesMatchDenseQOracleBitwise)
{
    // Cyclic tridiagonal with unit entries: structurally PTTRS, not
    // positive definite, so the set-up falls back to GTTRS
    // (FallsBackWhenNotPositiveDefinite).
    const std::size_t nt = 25;
    View2D<double> indefinite("indefinite", nt, nt);
    for (std::size_t i = 0; i < nt; ++i) {
        indefinite(i, i) = 1.0;
        indefinite(i, (i + 1) % nt) = 1.0;
        indefinite((i + 1) % nt, i) = 1.0;
    }
    expect_factors_match_dense_oracle(indefinite, SolverKind::GTTRS);

    // Non-symmetric cyclic tridiagonal: GTTRS by structure
    // (MatrixStructure.NonSymmetricTridiagonalIsGttrs).
    const std::size_t ng = 30;
    View2D<double> tri("tri", ng, ng);
    for (std::size_t i = 0; i < ng; ++i) {
        tri(i, i) = 3.0;
        tri(i, (i + 1) % ng) = 1.0;
        tri((i + 1) % ng, i) = -0.5;
    }
    expect_factors_match_dense_oracle(tri, SolverKind::GTTRS);

    // Fully dense: GETRS (MatrixStructure.DenseMatrixFallsBackToGetrs),
    // with a diagonal shift that makes it strictly diagonally dominant so
    // Q and the Schur complement are nonsingular.
    const std::size_t nd = 10;
    View2D<double> dense("dense", nd, nd);
    for (std::size_t i = 0; i < nd; ++i) {
        for (std::size_t j = 0; j < nd; ++j) {
            dense(i, j) = 1.0 + static_cast<double>(i * nd + j);
        }
        dense(i, i) += 2000.0;
    }
    expect_factors_match_dense_oracle(dense, SolverKind::GETRS);
}

TEST(SchurSolverFactors, SetupAllocatesNoDenseCopyOfQ)
{
    // With A live, the set-up allocates only its O(n) factors and corner
    // blocks. A dense n0 x n0 copy of Q would add about one full A.
    const std::size_t n = 512;
    const auto a = collocation_matrix(BSplineBasis::uniform(3, n, 0.0, 1.0));
    const auto a_bytes = static_cast<double>(n * n * sizeof(double));
    profiling::reset_memory_peak();
    const std::uint64_t base = profiling::memory_stats().live_bytes;
    {
        const SchurSolver solver(a);
        EXPECT_EQ(solver.kind(), SolverKind::PTTRS);
    }
    const auto rise =
            static_cast<double>(profiling::memory_stats().peak_bytes - base);
    EXPECT_LT(rise, 0.25 * a_bytes)
            << "set-up peak " << rise << " B over a live A of " << a_bytes
            << " B";
}

TEST(SchurSolver, ThresholdZeroKeepsDenseCorners)
{
    const std::size_t n = 100;
    const auto basis = BSplineBasis::uniform(3, n, 0.0, 1.0);
    const auto a = collocation_matrix(basis);
    SchurSolver::Options opts;
    opts.sparsify_threshold = 0.0;
    SchurSolver solver(a, opts);
    const auto& s = solver.device_data();
    // With no thresholding beta keeps every (generically nonzero) entry.
    EXPECT_GT(s.beta_coo.nnz(), s.n0 / 2);
}

} // namespace

// Randomized (seeded, reproducible) cross-module property tests: each seed
// derives a full problem configuration and checks invariants that must hold
// for ANY valid configuration -- the property-based complement to the
// example-based unit tests.
#include "bsplines/collocation.hpp"
#include "bsplines/knots.hpp"
#include "core/batched_solve.hpp"
#include "core/schur_solver.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "hostlapack/dense.hpp"
#include "hostlapack/getrf.hpp"
#include "iterative/bicgstab.hpp"
#include "iterative/ilu0.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/subview.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;

struct Configuration {
    int degree;
    int grid_kind; // 0 uniform periodic, 1 stretched periodic, 2 clamped
    std::size_t ncells;
    std::size_t batch;
};

Configuration derive(unsigned seed)
{
    std::mt19937 rng(seed * 7919u + 13u);
    Configuration c;
    c.degree = 1 + static_cast<int>(rng() % 6); // 1..6
    c.grid_kind = static_cast<int>(rng() % 3);
    c.ncells = 8 + static_cast<std::size_t>(c.degree)
               + rng() % 90; // always > degree
    c.batch = 1 + rng() % 24;
    return c;
}

BSplineBasis make_basis(const Configuration& c)
{
    switch (c.grid_kind) {
    case 0:
        return BSplineBasis::uniform(c.degree, c.ncells, -1.0, 3.0);
    case 1:
        return BSplineBasis::non_uniform(
                c.degree, bsplines::stretched_breaks(c.ncells, -1.0, 3.0,
                                                     0.45));
    default:
        return BSplineBasis::clamped_uniform(c.degree, c.ncells, -1.0, 3.0);
    }
}

class PropertySeed : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PropertySeed, BuilderReproducesSamplesForAnyConfiguration)
{
    const auto c = derive(GetParam());
    const auto basis = make_basis(c);
    core::SplineBuilder builder(basis);
    const std::size_t n = basis.nbasis();
    View2D<double> b("b", n, c.batch);
    std::mt19937 rng(GetParam() + 1000u);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < c.batch; ++j) {
            b(i, j) = dist(rng);
        }
    }
    const auto values = clone(b);
    builder.build_inplace(b);
    core::SplineEvaluator eval(basis);
    const auto pts = basis.interpolation_points();
    for (std::size_t j = 0; j < c.batch; j += 3) {
        auto coeffs = subview(b, ALL, j);
        for (std::size_t i = 0; i < n; i += 2) {
            EXPECT_NEAR(eval(pts[i], coeffs), values(i, j), 1e-9)
                    << "seed " << GetParam() << " degree " << c.degree
                    << " grid " << c.grid_kind << " n " << n;
        }
    }
}

TEST_P(PropertySeed, SchurSolveMatchesDenseLuForAnyConfiguration)
{
    const auto c = derive(GetParam());
    const auto basis = make_basis(c);
    const auto a = bsplines::collocation_matrix(basis);
    const std::size_t n = a.extent(0);
    core::SchurSolver schur(a);
    auto lu = clone(a);
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hostlapack::getrf(lu, ipiv), 0);

    std::mt19937 rng(GetParam() + 2000u);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View1D<double> b("b", n);
    for (std::size_t i = 0; i < n; ++i) {
        b(i) = dist(rng);
    }
    auto x1 = clone(b);
    auto x2 = clone(b);
    core::solve_one(schur.device_data(), x1);
    hostlapack::getrs(lu, ipiv, x2);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x1(i), x2(i), 1e-8)
                << "seed " << GetParam() << " kind "
                << to_string(schur.kind());
    }
}

TEST_P(PropertySeed, BuildIsLinearInTheData)
{
    const auto c = derive(GetParam());
    const auto basis = make_basis(c);
    core::SplineBuilder builder(basis);
    const std::size_t n = basis.nbasis();
    std::mt19937 rng(GetParam() + 3000u);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> f("f", n, 1);
    View2D<double> g("g", n, 1);
    View2D<double> combo("combo", n, 1);
    const double alpha = dist(rng);
    const double beta = dist(rng);
    for (std::size_t i = 0; i < n; ++i) {
        f(i, 0) = dist(rng);
        g(i, 0) = dist(rng);
        combo(i, 0) = alpha * f(i, 0) + beta * g(i, 0);
    }
    builder.build_inplace(f);
    builder.build_inplace(g);
    builder.build_inplace(combo);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(combo(i, 0), alpha * f(i, 0) + beta * g(i, 0), 1e-10);
    }
}

TEST_P(PropertySeed, PeriodicShiftInvarianceOnUniformGrids)
{
    // Rolling the input values by one grid cell must roll the coefficients
    // by one (periodic uniform grids are translation invariant).
    auto c = derive(GetParam());
    c.grid_kind = 0;
    const auto basis = make_basis(c);
    core::SplineBuilder builder(basis);
    const std::size_t n = basis.nbasis();
    std::mt19937 rng(GetParam() + 4000u);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> b("b", n, 1);
    View2D<double> rolled("rolled", n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        b(i, 0) = dist(rng);
    }
    for (std::size_t i = 0; i < n; ++i) {
        rolled((i + 1) % n, 0) = b(i, 0);
    }
    builder.build_inplace(b);
    builder.build_inplace(rolled);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(rolled((i + 1) % n, 0), b(i, 0), 1e-9);
    }
}

TEST_P(PropertySeed, SparseRoundTripsAndProductsAgree)
{
    std::mt19937 rng(GetParam() + 5000u);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const std::size_t rows = 5 + rng() % 40;
    const std::size_t cols = 5 + rng() % 40;
    View2D<double> dense("d", rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            if (rng() % 4 == 0) {
                dense(i, j) = dist(rng);
            }
        }
    }
    const auto coo = sparse::Coo::from_dense(dense, 0.0);
    const auto csr = sparse::Csr::from_dense(dense, 0.0);
    EXPECT_EQ(coo.nnz(), csr.nnz());
    const auto back1 = coo.to_dense();
    const auto back2 = csr.to_dense();
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            EXPECT_DOUBLE_EQ(back1(i, j), dense(i, j));
            EXPECT_DOUBLE_EQ(back2(i, j), dense(i, j));
        }
    }
    // y_csr = A x must equal 100 - (100 - A x) via coo.spmv_sub.
    View1D<double> x("x", cols);
    for (std::size_t j = 0; j < cols; ++j) {
        x(j) = dist(rng);
    }
    View1D<double> y1("y1", rows);
    View1D<double> y2("y2", rows);
    csr.apply(x, y1);
    for (std::size_t i = 0; i < rows; ++i) {
        y2(i) = 100.0;
    }
    coo.spmv_sub(x, y2);
    for (std::size_t i = 0; i < rows; ++i) {
        EXPECT_NEAR(y2(i), 100.0 - y1(i), 1e-12);
    }
}

TEST_P(PropertySeed, IterativeWithIlu0MatchesDenseSolve)
{
    std::mt19937 rng(GetParam() + 6000u);
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    const std::size_t n = 20 + rng() % 60;
    const std::size_t band = 1 + rng() % 3;
    View2D<double> dense("d", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lo = i > band ? i - band : 0;
        const std::size_t hi = std::min(n - 1, i + band);
        for (std::size_t j = lo; j <= hi; ++j) {
            dense(i, j) = dist(rng);
        }
        dense(i, i) += 3.0;
    }
    const auto a = sparse::Csr::from_dense(dense, 0.0);
    iterative::Ilu0 precond(a);
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = dist(rng);
    }
    std::vector<double> x(n, 0.0);
    iterative::Config cfg;
    cfg.tolerance = 1e-13;
    const auto r = iterative::bicgstab_solve(a, &precond, rhs, x, cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 3u); // ILU(0) is exact on pure bands

    auto lu = clone(dense);
    View1D<int> ipiv("ipiv", n);
    ASSERT_EQ(hostlapack::getrf(lu, ipiv), 0);
    View1D<double> ref("ref", n);
    for (std::size_t i = 0; i < n; ++i) {
        ref(i) = rhs[i];
    }
    hostlapack::getrs(lu, ipiv, ref);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], ref(i), 1e-9);
    }
}

TEST_P(PropertySeed, EvaluatorIntegrateMatchesFineRiemannSum)
{
    const auto c = derive(GetParam());
    const auto basis = make_basis(c);
    core::SplineBuilder builder(basis);
    const std::size_t n = basis.nbasis();
    std::mt19937 rng(GetParam() + 7000u);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    View2D<double> b("b", n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        b(i, 0) = dist(rng);
    }
    builder.build_inplace(b);
    core::SplineEvaluator eval(basis);
    auto coeffs = subview(b, ALL, std::size_t{0});
    const double exact = eval.integrate(coeffs);
    // Fine midpoint Riemann sum of the spline itself.
    const std::size_t m = 20000;
    double sum = 0.0;
    const double h = basis.length() / static_cast<double>(m);
    for (std::size_t s = 0; s < m; ++s) {
        const double x = basis.xmin() + (static_cast<double>(s) + 0.5) * h;
        sum += eval(x, coeffs) * h;
    }
    EXPECT_NEAR(exact, sum, 1e-5 * std::max(1.0, std::abs(exact)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed, ::testing::Range(0u, 12u));

} // namespace

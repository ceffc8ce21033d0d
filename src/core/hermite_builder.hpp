// Hermite-boundary spline builder for non-periodic (clamped) odd-degree
// splines: the boundary treatment GYSELA's non-uniform spline work uses
// for non-periodic dimensions (paper ref [30], Bourne et al.).
//
// For degree p (odd) on ncells cells there are n = ncells + p unknowns.
// The interpolation conditions are:
//   - s derivative conditions at xmin, orders 1..s with s = (p-1)/2,
//   - function values at the ncells+1 break points,
//   - s derivative conditions at xmax, orders 1..s.
// The right-hand-side row layout matches that order:
//   [f'(xmin).., f(x_0), ..., f(x_ncells), f'(xmax)..].
//
// The resulting matrix is banded with no periodic corners (the derivative
// rows touch only the first/last p+1 basis functions), so the Schur
// machinery runs with corner width k = 0 and a gbtrs/getrs kernel.
#pragma once

#include "bsplines/basis.hpp"
#include "core/batched_solve.hpp"
#include "core/precision.hpp"
#include "core/refinement.hpp"
#include "core/schur_solver.hpp"
#include "parallel/profiling.hpp"
#include "parallel/view.hpp"

#include <memory>
#include <vector>

namespace pspl::core {

class HermiteSplineBuilder
{
public:
    HermiteSplineBuilder() = default;

    /// `basis` must be clamped with odd degree.
    explicit HermiteSplineBuilder(
            bsplines::BSplineBasis basis,
            BuilderVersion version = BuilderVersion::FusedSpmv);

    const bsplines::BSplineBasis& basis() const { return m_basis; }
    const SchurSolver& solver() const { return *m_solver; }

    /// Number of derivative conditions per boundary: (degree-1)/2.
    std::size_t nderivs() const
    {
        return static_cast<std::size_t>((m_basis.degree() - 1) / 2);
    }

    /// The value interpolation points (the ncells+1 break points).
    const std::vector<double>& value_points() const { return m_points; }

    /// Working precision of the batched solve (PSPL_PRECISION default);
    /// same semantics as SplineBuilder::set_precision.
    void set_precision(Precision p) { m_precision = p; }
    Precision precision() const { return m_precision; }

    /// Solve for spline coefficients in place. `b` has shape (n, batch)
    /// with the row layout documented above.
    template <class Exec = DefaultExecutionSpace, class T, class L>
    void build_inplace(const View<T, 2, L>& b) const
    {
        PSPL_EXPECT(b.extent(0) == m_basis.nbasis(),
                    "build_inplace: RHS rows must equal nbasis");
        profiling::ScopedRegion region("pspl_splines_solve_hermite");
        if (m_precision != Precision::Double) {
            const bool use_spmv = fused_chain(m_version).use_spmv;
            solve_refined_batched<Exec>(*m_solver, b, m_precision, {},
                                        TilePolicy::from_env(), use_spmv);
            return;
        }
        schur_solve_batched<Exec>(m_solver->device_data(), b, m_version);
    }

    /// Convenience: fill one RHS column from a function and its exact
    /// derivatives (host-side helper for tests and setup code).
    /// `f(x, m)` must return the m-th derivative of the target (m = 0 is
    /// the value).
    template <class F, class ColView>
    void fill_rhs(F&& f, const ColView& col) const
    {
        const std::size_t s = nderivs();
        for (std::size_t m = 1; m <= s; ++m) {
            col(m - 1) = f(m_basis.xmin(), static_cast<int>(m));
        }
        for (std::size_t c = 0; c < m_points.size(); ++c) {
            col(s + c) = f(m_points[c], 0);
        }
        for (std::size_t m = 1; m <= s; ++m) {
            col(s + m_points.size() + m - 1) =
                    f(m_basis.xmax(), static_cast<int>(m));
        }
    }

private:
    bsplines::BSplineBasis m_basis;
    BuilderVersion m_version = BuilderVersion::FusedSpmv;
    std::shared_ptr<const SchurSolver> m_solver;
    Precision m_precision = precision_from_env();
    std::vector<double> m_points; ///< break points (value rows)
};

} // namespace pspl::core

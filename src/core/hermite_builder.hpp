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
// machinery runs with corner width k = 0 and a gbtrs/getrs kernel. The
// builder is a SplineBuilder on that matrix: solves, precision, tile
// policy and rank-3 batches are SplineBuilder's.
#pragma once

#include "core/spline_builder.hpp"

#include <vector>

namespace pspl::core {

class HermiteSplineBuilder : public SplineBuilder
{
public:
    HermiteSplineBuilder() = default;

    /// `basis` must be clamped with odd degree.
    explicit HermiteSplineBuilder(
            bsplines::BSplineBasis basis,
            BuilderVersion version = default_builder_version);

    /// Number of derivative conditions per boundary: (degree-1)/2.
    std::size_t nderivs() const
    {
        return static_cast<std::size_t>((basis().degree() - 1) / 2);
    }

    /// The value interpolation points (the ncells+1 break points).
    const std::vector<double>& value_points() const { return m_points; }

    /// Convenience: fill one RHS column from a function and its exact
    /// derivatives (host-side helper for tests and setup code).
    /// `f(x, m)` must return the m-th derivative of the target (m = 0 is
    /// the value).
    template <class F, class ColView>
    void fill_rhs(F&& f, const ColView& col) const
    {
        const std::size_t s = nderivs();
        for (std::size_t m = 1; m <= s; ++m) {
            col(m - 1) = f(basis().xmin(), static_cast<int>(m));
        }
        for (std::size_t c = 0; c < m_points.size(); ++c) {
            col(s + c) = f(m_points[c], 0);
        }
        for (std::size_t m = 1; m <= s; ++m) {
            col(s + m_points.size() + m - 1) =
                    f(basis().xmax(), static_cast<int>(m));
        }
    }

private:
    std::vector<double> m_points; ///< break points (value rows)
};

} // namespace pspl::core

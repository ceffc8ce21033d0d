// Algorithm 2 reference step for the fused-advection identity tests: the
// unfused semi-Lagrangian step assembled from public building blocks --
// transpose f so the batch index is contiguous, build the spline
// coefficients in place, transpose them back, and evaluate every row at
// the feet of the backward characteristics. It runs the same builder
// version, the same evaluate_shifted entry point and the same foot
// arithmetic as the fused AdvectionPlan, so a fused step must match it to
// the last bit.
#pragma once

#include "advection/transpose.hpp"
#include "bsplines/basis.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "parallel/subview.hpp"
#include "parallel/view.hpp"

#include <cstddef>
#include <utility>

namespace pspl::test {

class Algorithm2Step
{
public:
    Algorithm2Step(const bsplines::BSplineBasis& basis,
                   core::BuilderVersion version, View1D<double> velocities,
                   double dt)
        : m_builder(basis, version)
        , m_evaluator(basis)
        , m_points("oracle_points", basis.nbasis())
        , m_velocities(std::move(velocities))
        , m_dt(dt)
    {
        const auto pts = basis.interpolation_points();
        for (std::size_t i = 0; i < m_points.extent(0); ++i) {
            m_points(i) = pts[i];
        }
    }

    /// Advance f (shape (nv, nx), x contiguous) by one step in place.
    template <class Exec = DefaultExecutionSpace>
    void step(const View2D<double>& f) const
    {
        const std::size_t nv = f.extent(0);
        const std::size_t nx = f.extent(1);
        View2D<double> ft("oracle_ft", nx, nv);
        View2D<double> eta("oracle_eta", nv, nx);
        advection::transpose<Exec>("oracle_transpose_fwd", f, ft);
        m_builder.build_inplace<Exec>(ft);
        advection::transpose<Exec>("oracle_transpose_bwd", ft, eta);
        for (std::size_t j = 0; j < nv; ++j) {
            m_evaluator.evaluate_shifted(m_points, m_velocities(j) * m_dt,
                                         subview(eta, j, ALL), &f(j, 0));
        }
    }

private:
    core::SplineBuilder m_builder;
    core::SplineEvaluator m_evaluator;
    View1D<double> m_points;
    View1D<double> m_velocities;
    double m_dt;
};

} // namespace pspl::test

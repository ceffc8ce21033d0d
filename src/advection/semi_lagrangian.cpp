#include "advection/semi_lagrangian.hpp"

namespace pspl::advection {

BatchedAdvection1D::BatchedAdvection1D(bsplines::BSplineBasis basis_x,
                                       View1D<double> velocities, double dt)
    : BatchedAdvection1D(std::move(basis_x), std::move(velocities), dt,
                         Config())
{
}

BatchedAdvection1D::BatchedAdvection1D(bsplines::BSplineBasis basis_x,
                                       View1D<double> velocities, double dt,
                                       Config config)
    : m_basis(std::move(basis_x))
    , m_velocities(std::move(velocities))
    , m_dt(dt)
    , m_config(config)
    , m_evaluator(m_basis)
{
    if (m_config.method == Method::Direct) {
        m_builder.emplace(m_basis, m_config.version);
    } else {
        m_iterative_builder.emplace(m_basis, m_config.iterative);
    }

    const std::size_t nx_ = m_basis.nbasis();
    const std::size_t nv_ = m_velocities.extent(0);
    m_points = View1D<double>("advection_points", nx_);
    const auto pts = m_basis.interpolation_points();
    for (std::size_t i = 0; i < nx_; ++i) {
        m_points(i) = pts[i];
    }

    // The fused build->evaluate pipeline drives every fusable Direct
    // configuration; everything else runs Algorithm 2.
    if (m_config.method == Method::Direct) {
        AdvectionPlan plan(*m_builder, m_evaluator, m_points, m_velocities,
                           m_dt);
        if (plan.fusable()) {
            m_plan.emplace(std::move(plan));
        }
    }

    if (!m_plan) {
        // Persistent scratch for every unfused step(): first-touched from
        // a parallel region so on NUMA systems the pages of each batch
        // slice land on the node of the thread that processes it (the
        // transposes and the batched solve all use static schedules over
        // the same index spaces). The fused pipeline never materializes
        // either array and skips the allocation entirely.
        m_ft = View2D<double>(FirstTouch, "advection_ft", nx_, nv_);
        m_eta = View2D<double>(FirstTouch, "advection_eta", nv_, nx_);
    }
}

View1D<double> uniform_velocities(std::size_t nv, double vmin, double vmax)
{
    View1D<double> v("velocities", nv);
    if (nv == 1) {
        v(0) = 0.5 * (vmin + vmax);
        return v;
    }
    const double dv = (vmax - vmin) / static_cast<double>(nv - 1);
    for (std::size_t j = 0; j < nv; ++j) {
        v(j) = vmin + dv * static_cast<double>(j);
    }
    return v;
}

} // namespace pspl::advection

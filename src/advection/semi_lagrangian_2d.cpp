#include "advection/semi_lagrangian_2d.hpp"

namespace pspl::advection {

BatchedAdvection2D::BatchedAdvection2D(bsplines::BSplineBasis basis_x,
                                       bsplines::BSplineBasis basis_y,
                                       View1D<double> vx_of_y,
                                       View1D<double> vy_of_x, double dt)
    : BatchedAdvection2D(std::move(basis_x), std::move(basis_y),
                         std::move(vx_of_y), std::move(vy_of_x), dt, Config())
{
}

BatchedAdvection2D::BatchedAdvection2D(bsplines::BSplineBasis basis_x,
                                       bsplines::BSplineBasis basis_y,
                                       View1D<double> vx_of_y,
                                       View1D<double> vy_of_x, double dt,
                                       Config config)
{
    PSPL_EXPECT(vx_of_y.extent(0) == basis_y.nbasis(),
                "BatchedAdvection2D: vx_of_y must have ny entries");
    PSPL_EXPECT(vy_of_x.extent(0) == basis_x.nbasis(),
                "BatchedAdvection2D: vy_of_x must have nx entries");
    BatchedAdvection1D::Config cfg1;
    cfg1.version = config.version;
    m_adv_x.emplace(std::move(basis_x), std::move(vx_of_y), 0.5 * dt, cfg1);
    m_adv_y.emplace(std::move(basis_y), std::move(vy_of_x), dt, cfg1);
}

} // namespace pspl::advection

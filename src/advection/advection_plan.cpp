#include "advection/advection_plan.hpp"

#include <utility>

namespace pspl::advection {

namespace {

/// Resident factor footprint of the Schur device data (bytes): what the
/// solve re-sweeps once per strip column and the tile model must keep in
/// L2 next to the strips. Summing every Q-factor flavour is safe -- only
/// the active one has non-zero extents.
std::size_t factor_footprint_bytes(const core::SchurDeviceData& s)
{
    auto vec = [](const auto& v) { return v.extent(0) * sizeof(double); };
    std::size_t bytes = vec(s.pt_d) + vec(s.pt_e) + vec(s.gt_dl) + vec(s.gt_d)
                        + vec(s.gt_du) + vec(s.gt_du2)
                        + s.gt_ipiv.extent(0) * sizeof(int)
                        + s.pb_ab.extent(0) * s.pb_ab.extent(1)
                                  * sizeof(double)
                        + s.gb_ab.extent(0) * s.gb_ab.extent(1)
                                  * sizeof(double)
                        + s.gb_ipiv.extent(0) * sizeof(int)
                        + s.ge_lu.extent(0) * s.ge_lu.extent(1)
                                  * sizeof(double)
                        + s.ge_ipiv.extent(0) * sizeof(int)
                        + s.delta_lu.extent(0) * s.delta_lu.extent(1)
                                  * sizeof(double)
                        + s.delta_ipiv.extent(0) * sizeof(int);
    // Corner blocks: the spmv chain walks the COO triplets, the gemv chain
    // the dense blocks; count the denser of the two representations.
    const std::size_t dense =
            (s.lambda_dense.extent(0) * s.lambda_dense.extent(1)
             + s.beta_dense.extent(0) * s.beta_dense.extent(1))
            * sizeof(double);
    const std::size_t coo = (s.lambda_coo.nnz() + s.beta_coo.nnz())
                            * (sizeof(double) + 2 * sizeof(int));
    bytes += dense > coo ? dense : coo;
    return bytes;
}

} // namespace

AdvectionPlan::AdvectionPlan(const core::SplineBuilder& builder,
                             core::SplineEvaluator evaluator,
                             View1D<double> points,
                             View1D<double> velocities, double dt)
    : m_builder(builder)
    , m_evaluator(std::move(evaluator))
    , m_points(std::move(points))
    , m_velocities(std::move(velocities))
    , m_dt(dt)
{
    const core::BuilderVersion v = m_builder.version();
    m_fusable = v != core::BuilderVersion::Baseline
                && m_builder.precision() == core::Precision::Double;
    if (!m_fusable) {
        return;
    }
    const core::FusedChain chain = core::fused_chain(v);
    m_use_spmv = chain.use_spmv;
    m_width = chain.pack_width;
    // Two strips per column (coefficients + evaluated output); evaluation
    // needs whole coefficient columns, so the plan stages even when Off.
    const std::size_t npts = m_points.extent(0);
    const std::size_t col_bytes =
            (m_builder.basis().nbasis() + npts) * sizeof(double);
    const std::size_t fixed =
            factor_footprint_bytes(m_builder.solver().device_data())
            + npts * sizeof(double);
    m_tile = m_builder.tile_policy().tile_cols(
            col_bytes, m_velocities.extent(0),
            static_cast<std::size_t>(m_width), fixed);
}

} // namespace pspl::advection

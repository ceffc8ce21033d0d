#include "core/spline_builder.hpp"

namespace pspl::core {

const char* to_string(BuilderVersion v)
{
    switch (v) {
    case BuilderVersion::Baseline:
        return "baseline";
    case BuilderVersion::Fused:
        return "kernel-fusion";
    case BuilderVersion::FusedSpmv:
        return "gemv->spmv";
    case BuilderVersion::FusedSimd:
        return "kernel-fusion+simd";
    case BuilderVersion::FusedSpmvSimd:
        return "gemv->spmv+simd";
    }
    return "?";
}

SplineBuilder::SplineBuilder(bsplines::BSplineBasis basis,
                             BuilderVersion version,
                             SchurSolver::Options options)
    : SplineBuilder(basis, bsplines::collocation_matrix(basis), version,
                    options)
{
}

SplineBuilder::SplineBuilder(bsplines::BSplineBasis basis,
                             const View2D<double>& matrix,
                             BuilderVersion version,
                             SchurSolver::Options options)
    : m_basis(std::move(basis))
    , m_version(version)
    , m_solver(std::make_shared<const SchurSolver>(matrix, options))
{
}

} // namespace pspl::core

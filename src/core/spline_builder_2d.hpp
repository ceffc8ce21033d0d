// 2-D tensor-product spline builder (paper §II-B): "Higher dimensional
// B-splines can be obtained by a tensor product of 1D splines. For N-D
// splines, N equations ... must be solved. Each of these equations handles
// one of the dimensions ... batched over the other dimensions."
//
// The 2-D build is therefore exactly two batched 1-D solves: along x with y
// as the batch, then (after a transpose) along y with x as the batch. Mixed
// boundary conditions (periodic x, clamped y, ...) and mixed degrees are
// supported, matching GYSELA's poloidal-plane use.
#pragma once

#include "advection/transpose.hpp"
#include "core/spline_builder.hpp"
#include "parallel/subview.hpp"
#include "parallel/view.hpp"

#include <utility>

namespace pspl::core {

class SplineBuilder2D
{
public:
    SplineBuilder2D() = default;

    SplineBuilder2D(bsplines::BSplineBasis basis_x,
                    bsplines::BSplineBasis basis_y,
                    BuilderVersion version = default_builder_version)
        : m_builder_x(std::move(basis_x), version)
        , m_builder_y(std::move(basis_y), version)
    {
    }

    const bsplines::BSplineBasis& basis_x() const
    {
        return m_builder_x.basis();
    }
    const bsplines::BSplineBasis& basis_y() const
    {
        return m_builder_y.basis();
    }
    const SplineBuilder& builder_x() const { return m_builder_x; }
    const SplineBuilder& builder_y() const { return m_builder_y; }

    /// Solve (A_x (x) A_y) coeffs = values in place. `values` has shape
    /// (nx, ny) with values(i, j) = f(x_i, y_j) at the interpolation points
    /// of both bases; on exit it holds the tensor-product coefficients.
    template <class Exec = DefaultExecutionSpace>
    void build_inplace(const View2D<double>& values) const
    {
        const std::size_t nx = basis_x().nbasis();
        const std::size_t ny = basis_y().nbasis();
        PSPL_EXPECT(values.extent(0) == nx && values.extent(1) == ny,
                    "SplineBuilder2D: values must be (nx, ny)");
        // Solve along x, batched over y (rows are already the x index).
        m_builder_x.template build_inplace<Exec>(values);
        // Solve along y, batched over x. The transpose scratch is sized
        // lazily: consumers on the fused advection path never run a full
        // 2-D plane build, so the plane-sized buffer is only paid for by
        // callers that actually use it.
        if (!m_scratch.is_allocated() || m_scratch.extent(0) != ny
            || m_scratch.extent(1) != nx) {
            m_scratch = View2D<double>("spline2d_scratch", ny, nx);
        }
        advection::transpose<Exec>("pspl::core::spline2d_transpose_fwd",
                                   values, m_scratch);
        m_builder_y.template build_inplace<Exec>(m_scratch);
        advection::transpose<Exec>("pspl::core::spline2d_transpose_bwd",
                                   m_scratch, values);
    }

    /// Batched 2-D build, GYSELA style: values has shape (nx, ny, batch)
    /// and every batch entry holds one plane sampled at the tensor-product
    /// interpolation points. Both 1-D passes stay batched over the
    /// contiguous trailing index, in place: the x pass solves ny slices
    /// (nx, batch), the y pass nx slices (ny, batch).
    template <class Exec = DefaultExecutionSpace>
    void build_inplace(const View3D<double>& values) const
    {
        const std::size_t nx = basis_x().nbasis();
        const std::size_t ny = basis_y().nbasis();
        PSPL_EXPECT(values.extent(0) == nx && values.extent(1) == ny,
                    "SplineBuilder2D: values must be (nx, ny, batch)");
        m_builder_x.template build_inplace<Exec>(values);
        for (std::size_t i = 0; i < nx; ++i) {
            m_builder_y.template build_inplace<Exec>(
                    subview(values, i, ALL, ALL));
        }
    }

private:
    SplineBuilder m_builder_x;
    SplineBuilder m_builder_y;
    mutable View2D<double> m_scratch; ///< (ny, nx), lazily sized
};

} // namespace pspl::core

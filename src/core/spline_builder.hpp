// Batched spline builder: computes spline coefficients for a block of
// right-hand sides by solving the fixed collocation matrix against every
// column (paper §III-A, §IV).
//
// Three versions reproduce the paper's optimization ladder (Table III):
//   Baseline  -- separate kernels: batched Q-solve, global GEMM with the
//                dense corner blocks, batched getrs, global GEMM
//                (Listing 2);
//   Fused     -- one kernel per batch entry doing Q-solve, serial GEMV,
//                getrs, serial GEMV (Listing 4);
//   FusedSpmv -- the fused kernel with the dense GEMVs replaced by COO
//                SpMV over the sparse corner blocks (Listing 6).
// plus the host-SIMD variants FusedSimd / FusedSpmvSimd, which run the
// fused kernels with 8 adjacent batch entries per iteration in
// simd<double, 8> packs on every ISA (core::simd_chain_width; see
// parallel/simd.hpp) -- the host analogue of the warp-level SIMT execution
// the GPU backends get from the same source. FusedSpmvSimd is the default
// (core::default_builder_version), bitwise equal to FusedSpmv.
//
// The RHS block is (n, batch) with the batch index contiguous
// (GPU-coalesced; the paper notes this layout is hostile to CPU caches and
// leaves a layout abstraction as future work -- see bench_ablation_layout).
#pragma once

#include "bsplines/basis.hpp"
#include "bsplines/collocation.hpp"
#include "core/batched_solve.hpp"
#include "core/precision.hpp"
#include "core/refinement.hpp"
#include "core/schur_solver.hpp"
#include "parallel/profiling.hpp"
#include "parallel/tiling.hpp"

#include <memory>
#include <optional>
#include <utility>

namespace pspl::core {

class SplineBuilder
{
public:
    SplineBuilder() = default;

    /// Interpolation at the basis' Greville points: assembles the
    /// collocation matrix and forwards to the matrix constructor.
    explicit SplineBuilder(bsplines::BSplineBasis basis,
                           BuilderVersion version = default_builder_version,
                           SchurSolver::Options options = {});

    /// Any other interpolation problem on `basis`: `matrix` is its
    /// assembled (nbasis x nbasis) system, factored once here.
    SplineBuilder(bsplines::BSplineBasis basis, const View2D<double>& matrix,
                  BuilderVersion version = default_builder_version,
                  SchurSolver::Options options = {});

    const bsplines::BSplineBasis& basis() const { return m_basis; }
    BuilderVersion version() const { return m_version; }
    const SchurSolver& solver() const { return *m_solver; }

    /// Override the batch tile policy for this builder; when unset (the
    /// default) every solve consults PSPL_TILE / the L2 cache model.
    void set_tile_policy(const TilePolicy& policy) { m_tile = policy; }
    TilePolicy tile_policy() const
    {
        return m_tile ? *m_tile : TilePolicy::from_env();
    }

    /// Working precision of the batched solve. Defaults to PSPL_PRECISION
    /// (unset -> Double). Double runs the FP64 ladder exactly as before --
    /// bitwise, not just to tolerance; Single / Mixed route through the
    /// reduced-precision driver in core/refinement.hpp.
    void set_precision(Precision p) { m_precision = p; }
    Precision precision() const { return m_precision; }

    /// What the most recent reduced-precision build_inplace actually did
    /// (zeroed stats when the builder runs at Precision::Double).
    const RefinementStats& last_refinement_stats() const
    {
        return m_last_refine;
    }

    /// Solve A * coeffs = values in place: on entry each column of `b`
    /// (shape (n, batch)) holds interpolation values at the basis'
    /// interpolation points; on exit it holds the spline coefficients.
    template <class Exec = DefaultExecutionSpace, class T, class L>
    void build_inplace(const View<T, 2, L>& b) const
    {
        PSPL_EXPECT(b.extent(0) == m_basis.nbasis(),
                    "build_inplace: RHS rows must equal nbasis");
        profiling::ScopedRegion region("pspl_splines_solve");
        if (m_precision != Precision::Double) {
            // Reduced-precision pipeline: FP32 fused solve (+ FP64
            // refinement for Mixed). The kernel version only decides the
            // corner-correction flavour; the chain is always fused+SIMD.
            const bool use_spmv = fused_chain(m_version).use_spmv;
            m_last_refine = solve_refined_batched<Exec>(
                    *m_solver, b, m_precision, {}, tile_policy(), use_spmv);
            return;
        }
        m_last_refine = RefinementStats{};
        schur_solve_batched<Exec>(m_solver->device_data(), b, m_version,
                                  tile_policy());
    }

    /// GYSELA-shaped batches: the distribution function keeps several
    /// batch dimensions (paper §II-B: "the number of batches can be
    /// (10^3)^4 corresponding to the total number of grid points in the
    /// remaining 4 dimensions"). A rank-3 block (n, b1, b2) is solved as
    /// b1 rank-2 slices, each batched over its contiguous b2 index.
    template <class Exec = DefaultExecutionSpace, class T, class L>
    void build_inplace(const View<T, 3, L>& b) const
    {
        PSPL_EXPECT(b.extent(0) == m_basis.nbasis(),
                    "build_inplace: RHS rows must equal nbasis");
        for (std::size_t i = 0; i < b.extent(1); ++i) {
            build_inplace<Exec>(subview(b, ALL, i, ALL));
        }
    }

private:
    bsplines::BSplineBasis m_basis;
    BuilderVersion m_version = default_builder_version;
    std::shared_ptr<const SchurSolver> m_solver;
    std::optional<TilePolicy> m_tile;
    Precision m_precision = precision_from_env();
    mutable RefinementStats m_last_refine;
};

} // namespace pspl::core

// Schur-complement spline matrix solver (paper §II-B-1, Algorithm 1).
//
// Setup (host, once): split A into
//     A = ( Q      gamma )
//         ( lambda delta )
// factorize Q with the specialized routine chosen by structure analysis,
// compute beta = Q^{-1} gamma and the Schur complement delta' = delta -
// lambda*beta, LU-factorize delta', and sparsify lambda / beta into COO
// (beta's entries decay exponentially away from the corners, so a tiny
// threshold keeps ~degree*log(1/eps) of them -- the paper's "(999,1) block
// with 48 nonzeros").
//
// Solve (per right-hand side, in a parallel region):
//     1. Q x0' = b0
//     2. delta' x1 = b1 - lambda x0'
//     3. x0 = x0' - beta x1
#pragma once

#include "core/matrix_structure.hpp"
#include "parallel/macros.hpp"
#include "parallel/view.hpp"
#include "sparse/coo.hpp"

#include "batched/serial_gbtrs.hpp"
#include "batched/serial_getrs.hpp"
#include "batched/serial_gttrs.hpp"
#include "batched/serial_pbtrs.hpp"
#include "batched/serial_pttrs.hpp"

#include <cstddef>

namespace pspl::core {

/// All device-side data needed to solve one RHS. Views are shallow-copied
/// into kernels; which Q-factor views are populated depends on `kind`.
struct SchurDeviceData {
    SolverKind kind = SolverKind::GETRS;
    std::size_t n = 0;  ///< full system size
    std::size_t n0 = 0; ///< size of Q
    std::size_t k = 0;  ///< corner (Schur border) width
    int kl = 0;         ///< Q subdiagonals (GBTRS)
    int ku = 0;         ///< Q superdiagonals (GBTRS)

    // Q factor, one of:
    View1D<double> pt_d, pt_e;              // PTTRS: LDL^T
    View1D<double> gt_dl, gt_d, gt_du, gt_du2; // GTTRS: pivoted tridiag LU
    View1D<int> gt_ipiv;                    //
    View2D<double> pb_ab;                   // PBTRS: (kd+1, n0) Cholesky band
    View2D<double> gb_ab;                   // GBTRS: (2kl+ku+1, n0) LU band
    View1D<int> gb_ipiv;                    //
    View2D<double> ge_lu;                   // GETRS: dense LU
    View1D<int> ge_ipiv;                    //

    // Schur complement factor (k x k dense LU).
    View2D<double> delta_lu;
    View1D<int> delta_ipiv;

    // Corner blocks, dense (baseline / fused-gemv versions) ...
    View2D<double> lambda_dense; // (k, n0)
    View2D<double> beta_dense;   // (n0, k)
    // ... and sparse (fused-spmv version).
    sparse::Coo lambda_coo;
    sparse::Coo beta_coo;
};

/// FP32 mirror of the factorized blocks, produced once at setup by
/// narrowing the host FP64 factors (plus precomputed reciprocal diagonals
/// for the tridiagonal kinds, so the FP32 sweeps run divide-free at FMA
/// latency). Same member names as SchurDeviceData so the value-type-generic
/// solve chain -- solve_q_serial, solve_column -- consumes either
/// struct through one template. Used by the mixed/single-precision pipeline
/// (src/core/refinement.hpp); the FP64 ladder never touches it.
struct SchurFloatFactors {
    SolverKind kind = SolverKind::GETRS;
    std::size_t n = 0;
    std::size_t n0 = 0;
    std::size_t k = 0;
    int kl = 0;
    int ku = 0;

    View1D<float> pt_d, pt_e;
    View1D<float> pt_dinv; // 1/d, the divide-free PTTRS sweep
    View1D<float> gt_dl, gt_d, gt_du, gt_du2;
    View1D<float> gt_dinv; // 1/d, the divide-free GTTRS backward sweep
    View1D<int> gt_ipiv;
    View2D<float> pb_ab;
    View2D<float> gb_ab;
    View1D<int> gb_ipiv;
    View2D<float> ge_lu;
    View1D<int> ge_ipiv;

    View2D<float> delta_lu;
    View1D<int> delta_ipiv;

    View2D<float> lambda_dense;
    View2D<float> beta_dense;
    sparse::BasicCoo<float> lambda_coo;
    sparse::BasicCoo<float> beta_coo;
};

/// Solve Q x = b in place for one RHS, dispatching on the factor kind.
/// Callable inside parallel kernels. Generic over the device-data flavour:
/// SchurDeviceData drives the FP64 ladder exactly as before, and
/// SchurFloatFactors (detected by its reciprocal-diagonal members) routes
/// the tridiagonal kinds through the divide-free reciprocal sweeps.
template <class SData, class BView>
PSPL_INLINE_FUNCTION void solve_q_serial(const SData& s, const BView& b)
{
    switch (s.kind) {
    case SolverKind::PTTRS:
        if constexpr (requires { s.pt_dinv; }) {
            batched::SerialPttrsRecip<
                    batched::Uplo::Lower,
                    batched::Algo::Pttrs::Unblocked>::invoke(s.pt_dinv,
                                                             s.pt_e, b);
        } else {
            batched::SerialPttrs<
                    batched::Uplo::Lower,
                    batched::Algo::Pttrs::Unblocked>::invoke(s.pt_d, s.pt_e,
                                                             b);
        }
        break;
    case SolverKind::GTTRS:
        if constexpr (requires { s.gt_dinv; }) {
            batched::SerialGttrsRecip<>::invoke(s.gt_dl, s.gt_dinv, s.gt_du,
                                                s.gt_du2, s.gt_ipiv, b);
        } else {
            batched::SerialGttrs<>::invoke(s.gt_dl, s.gt_d, s.gt_du,
                                           s.gt_du2, s.gt_ipiv, b);
        }
        break;
    case SolverKind::PBTRS:
        batched::SerialPbtrs<>::invoke(s.pb_ab, b);
        break;
    case SolverKind::GBTRS:
        batched::SerialGbtrs<>::invoke(s.gb_ab, s.kl, s.ku, s.gb_ipiv, b);
        break;
    case SolverKind::GETRS:
        batched::SerialGetrs<>::invoke(s.ge_lu, s.ge_ipiv, b);
        break;
    }
}

/// Host-side factory: analyzes A, factorizes the blocks, and exposes the
/// device data. A is not modified.
class SchurSolver
{
public:
    struct Options {
        /// Relative threshold (vs max|A|) below which corner entries are
        /// dropped when building the COO blocks.
        double sparsify_threshold = 1e-15;
        /// Structural-zero tolerance for the analysis.
        double structure_tol = 1e-14;
    };

    explicit SchurSolver(const View2D<double>& a);
    SchurSolver(const View2D<double>& a, Options opts);

    const MatrixStructure& structure() const { return m_structure; }
    const SchurDeviceData& device_data() const { return m_data; }
    SolverKind kind() const { return m_data.kind; }

    /// FP32 mirror of the factors (built once at setup; views are shallow,
    /// so kernels shallow-copy it like the FP64 device data).
    const SchurFloatFactors& float_factors() const { return m_float; }

    /// The full FP64 matrix A in COO form (all structural nonzeros), the
    /// operator the refinement loop applies for r = b - A x residuals.
    const sparse::Coo& matrix_coo() const { return m_a_coo; }

    /// Solve A x = b in place for a single host-side RHS (reference path,
    /// used by tests and the host beta computation).
    template <class BView>
    void solve_host(const BView& b) const
    {
        solve_one(m_data, b);
    }

    /// The full Algorithm 1 on one RHS given split views b0 (n0) / b1 (k).
    /// Usable inside kernels; this is what the fused builders call.
    template <class B0View, class B1View>
    static PSPL_INLINE_FUNCTION void
    solve_split(const SchurDeviceData& s, const B0View& b0, const B1View& b1)
    {
        solve_q_serial(s, b0);
        if (s.k > 0) {
            // b1 -= lambda * x0'
            for (std::size_t i = 0; i < s.k; ++i) {
                double acc = b1(i);
                for (std::size_t j = 0; j < s.n0; ++j) {
                    acc -= s.lambda_dense(i, j) * b0(j);
                }
                b1(i) = acc;
            }
            batched::SerialGetrs<>::invoke(s.delta_lu, s.delta_ipiv, b1);
            // x0 = x0' - beta * x1
            for (std::size_t i = 0; i < s.n0; ++i) {
                double acc = b0(i);
                for (std::size_t j = 0; j < s.k; ++j) {
                    acc -= s.beta_dense(i, j) * b1(j);
                }
                b0(i) = acc;
            }
        }
    }

    /// Convenience: Algorithm 1 on one unsplit RHS view of size n.
    template <class BView>
    static void solve_one(const SchurDeviceData& s, const BView& b);

private:
    MatrixStructure m_structure;
    SchurDeviceData m_data;
    SchurFloatFactors m_float;
    sparse::Coo m_a_coo;

    void build_float_factors();
};

namespace detail {

/// Rank-1 window into another rank-1 view: b[offset + i].
template <class BView>
struct Window {
    using value_type = double;
    static constexpr std::size_t rank = 1; ///< models pspl::ViewLike

    const BView& b;
    std::size_t offset;
    std::size_t len;
    PSPL_FORCEINLINE_FUNCTION double& operator()(std::size_t i) const
    {
        return b(offset + i);
    }
    PSPL_FORCEINLINE_FUNCTION std::size_t extent(std::size_t) const
    {
        return len;
    }
    PSPL_FORCEINLINE_FUNCTION double* data() const { return &b(offset); }
    PSPL_FORCEINLINE_FUNCTION std::size_t stride(std::size_t) const
    {
        return b.stride(0);
    }
};

} // namespace detail

template <class BView>
void SchurSolver::solve_one(const SchurDeviceData& s, const BView& b)
{
    const detail::Window<BView> b0{b, 0, s.n0};
    const detail::Window<BView> b1{b, s.n0, s.k};
    solve_split(s, b0, b1);
}

} // namespace pspl::core

#include "core/schur_solver.hpp"

#include "hostlapack/dense.hpp"
#include "hostlapack/gbtrf.hpp"
#include "hostlapack/getrf.hpp"
#include "hostlapack/gttrf.hpp"
#include "hostlapack/pbtrf.hpp"
#include "hostlapack/pttrf.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/parallel.hpp"
#include "parallel/profiling.hpp"
#include "parallel/subview.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pspl::core {

SchurSolver::SchurSolver(const View2D<double>& a, Options opts)
    : m_structure(analyze_structure(a))
{
    // Host-side setup is a one-time cost, but it still shows up in traces:
    // each phase of Algorithm 1's setup opens its own span so the snapshot
    // separates factorization from the per-RHS solve kernels.
    profiling::ScopedSpan setup_span("pspl::schur::setup");
    const std::size_t n = m_structure.n;
    const std::size_t k = m_structure.corner_width;
    const std::size_t n0 = n - k;
    PSPL_EXPECT(n0 > 0, "SchurSolver: corner block covers the whole matrix");

    m_data.n = n;
    m_data.n0 = n0;
    m_data.k = k;

    // --- Extract the corner blocks -----------------------------------------
    // Q stays in place: each factorization below reads A's leading n0 x n0
    // block. Row-parallel: besides the (one-time) speedup, the parallel
    // writes first-touch each corner block under the same static schedule
    // the solve kernels later read it with, so on a first-touch NUMA system
    // the pages land near their consumers.
    View2D<double> gamma("schur_gamma", n0, std::max<std::size_t>(k, 1));
    View2D<double> lambda("schur_lambda", std::max<std::size_t>(k, 1), n0);
    View2D<double> delta("schur_delta", std::max<std::size_t>(k, 1),
                         std::max<std::size_t>(k, 1));
    parallel_for("pspl::schur::extract_corners", n0 + 2 * k,
                 [=](std::size_t r) {
                     if (r < n0) {
                         for (std::size_t j = 0; j < k; ++j) {
                             gamma(r, j) = a(r, n0 + j);
                         }
                     } else if (r < n0 + k) {
                         const std::size_t i = r - n0;
                         for (std::size_t j = 0; j < n0; ++j) {
                             lambda(i, j) = a(n0 + i, j);
                         }
                     } else {
                         const std::size_t i = r - n0 - k;
                         for (std::size_t j = 0; j < k; ++j) {
                             delta(i, j) = a(n0 + i, n0 + j);
                         }
                     }
                 });

    // --- Factorize Q with the recommended solver, falling back on failure --
    SolverKind kind = m_structure.recommended;
    {
        profiling::ScopedSpan factor_span("pspl::schur::factor_q");
        const std::size_t kl = m_structure.kl;
        const std::size_t ku = m_structure.ku;

        if (kind == SolverKind::PTTRS) {
            View1D<double> d("schur_pt_d", n0);
            View1D<double> e("schur_pt_e", n0 > 1 ? n0 - 1 : 1);
            for (std::size_t i = 0; i < n0; ++i) {
                d(i) = a(i, i);
            }
            for (std::size_t i = 0; i + 1 < n0; ++i) {
                e(i) = a(i + 1, i);
            }
            if (hostlapack::pttrf(d, e) == 0) {
                m_data.pt_d = d;
                m_data.pt_e = e;
            } else {
                kind = SolverKind::GTTRS; // not positive definite after all
            }
        }
        if (kind == SolverKind::GTTRS) {
            View1D<double> dl("schur_gt_dl", n0 > 1 ? n0 - 1 : 1);
            View1D<double> d("schur_gt_d", n0);
            View1D<double> du("schur_gt_du", n0 > 1 ? n0 - 1 : 1);
            View1D<double> du2("schur_gt_du2", n0 > 2 ? n0 - 2 : 1);
            View1D<int> ipiv("schur_gt_ipiv", n0);
            for (std::size_t i = 0; i < n0; ++i) {
                d(i) = a(i, i);
            }
            for (std::size_t i = 0; i + 1 < n0; ++i) {
                dl(i) = a(i + 1, i);
                du(i) = a(i, i + 1);
            }
            if (hostlapack::gttrf(dl, d, du, du2, ipiv) == 0) {
                m_data.gt_dl = dl;
                m_data.gt_d = d;
                m_data.gt_du = du;
                m_data.gt_du2 = du2;
                m_data.gt_ipiv = ipiv;
            } else {
                kind = SolverKind::GBTRS;
            }
        }
        if (kind == SolverKind::PBTRS) {
            const std::size_t kd = std::max(kl, ku);
            auto sb = hostlapack::pack_sym_band(a, kd, n0);
            if (hostlapack::pbtrf(sb) == 0) {
                m_data.pb_ab = sb.ab;
            } else {
                kind = SolverKind::GBTRS;
            }
        }
        if (kind == SolverKind::GBTRS) {
            auto bm = hostlapack::pack_band(a, kl, ku, n0);
            View1D<int> ipiv("schur_gb_ipiv", n0);
            if (hostlapack::gbtrf(bm, ipiv) == 0) {
                m_data.gb_ab = bm.ab;
                m_data.gb_ipiv = ipiv;
                m_data.kl = static_cast<int>(kl);
                m_data.ku = static_cast<int>(ku);
            } else {
                kind = SolverKind::GETRS;
            }
        }
        if (kind == SolverKind::GETRS) {
            const std::pair<std::size_t, std::size_t> lead(0, n0);
            View2D<double> lu = clone(subview(a, lead, lead));
            View1D<int> ipiv("schur_ge_ipiv", n0);
            const int info = hostlapack::getrf(lu, ipiv);
            PSPL_EXPECT(info == 0, "SchurSolver: Q is singular");
            m_data.ge_lu = lu;
            m_data.ge_ipiv = ipiv;
        }
        m_data.kind = kind;
    }

    // --- beta = Q^{-1} gamma (k host solves with the fresh factor) ---------
    profiling::ScopedSpan schur_span("pspl::schur::schur_complement");
    View2D<double> beta("schur_beta", n0, std::max<std::size_t>(k, 1));
    for (std::size_t j = 0; j < k; ++j) {
        auto col_g = subview(gamma, ALL, j);
        auto col_b = subview(beta, ALL, j);
        for (std::size_t i = 0; i < n0; ++i) {
            col_b(i) = col_g(i);
        }
        solve_q_serial(m_data, col_b);
    }

    // --- delta' = delta - lambda * beta, dense LU ---------------------------
    View2D<double> delta_lu = clone(delta);
    if (k > 0) {
        hostlapack::gemm(-1.0, lambda, beta, 1.0, delta_lu);
    }
    View1D<int> delta_ipiv("schur_delta_ipiv", std::max<std::size_t>(k, 1));
    if (k > 0) {
        const int info = hostlapack::getrf(delta_lu, delta_ipiv);
        PSPL_EXPECT(info == 0, "SchurSolver: Schur complement is singular");
    }
    m_data.delta_lu = delta_lu;
    m_data.delta_ipiv = delta_ipiv;

    // --- Corner blocks: dense + thresholded COO -----------------------------
    m_data.lambda_dense = lambda;
    m_data.beta_dense = beta;
    const double amax = hostlapack::max_abs(a);
    const double thresh = opts.sparsify_threshold * std::max(amax, 1.0);
    m_data.lambda_coo = sparse::Coo::from_dense(lambda, thresh);
    m_data.beta_coo = sparse::Coo::from_dense(beta, thresh);

    // --- Mixed-precision setup: full operator + FP32 factor mirror ----------
    // The refinement loop needs the exact FP64 operator for r = b - A x
    // (every structural nonzero, no sparsification), and the FP32 solve
    // needs narrowed copies of every factor block. Both are one-time,
    // setup-side conversions -- the sanctioned place for double -> float
    // narrowing.
    {
        profiling::ScopedSpan mixed_span("pspl::schur::float_factors");
        m_a_coo = sparse::Coo::from_dense(a, 0.0);
        build_float_factors();
    }
}

namespace {

View1D<float> narrow(const char* label, const View1D<double>& v)
{
    View1D<float> out(label, v.extent(0));
    for (std::size_t i = 0; i < v.extent(0); ++i) {
        out(i) = static_cast<float>(v(i));
    }
    return out;
}

View2D<float> narrow(const char* label, const View2D<double>& v)
{
    View2D<float> out(label, v.extent(0), v.extent(1));
    for (std::size_t i = 0; i < v.extent(0); ++i) {
        for (std::size_t j = 0; j < v.extent(1); ++j) {
            out(i, j) = static_cast<float>(v(i, j));
        }
    }
    return out;
}

/// Reciprocal diagonal, computed in FP64 then narrowed (one rounding).
View1D<float> narrow_recip(const char* label, const View1D<double>& d)
{
    View1D<float> out(label, d.extent(0));
    for (std::size_t i = 0; i < d.extent(0); ++i) {
        out(i) = static_cast<float>(1.0 / d(i));
    }
    return out;
}

} // namespace

void SchurSolver::build_float_factors()
{
    const SchurDeviceData& d = m_data;
    m_float.kind = d.kind;
    m_float.n = d.n;
    m_float.n0 = d.n0;
    m_float.k = d.k;
    m_float.kl = d.kl;
    m_float.ku = d.ku;

    switch (d.kind) {
    case SolverKind::PTTRS:
        m_float.pt_d = narrow("schur_f32_pt_d", d.pt_d);
        m_float.pt_e = narrow("schur_f32_pt_e", d.pt_e);
        m_float.pt_dinv = narrow_recip("schur_f32_pt_dinv", d.pt_d);
        break;
    case SolverKind::GTTRS:
        m_float.gt_dl = narrow("schur_f32_gt_dl", d.gt_dl);
        m_float.gt_d = narrow("schur_f32_gt_d", d.gt_d);
        m_float.gt_du = narrow("schur_f32_gt_du", d.gt_du);
        m_float.gt_du2 = narrow("schur_f32_gt_du2", d.gt_du2);
        m_float.gt_dinv = narrow_recip("schur_f32_gt_dinv", d.gt_d);
        m_float.gt_ipiv = d.gt_ipiv; // shared: pivots carry no precision
        break;
    case SolverKind::PBTRS:
        m_float.pb_ab = narrow("schur_f32_pb_ab", d.pb_ab);
        break;
    case SolverKind::GBTRS:
        m_float.gb_ab = narrow("schur_f32_gb_ab", d.gb_ab);
        m_float.gb_ipiv = d.gb_ipiv;
        break;
    case SolverKind::GETRS:
        m_float.ge_lu = narrow("schur_f32_ge_lu", d.ge_lu);
        m_float.ge_ipiv = d.ge_ipiv;
        break;
    }

    m_float.delta_lu = narrow("schur_f32_delta_lu", d.delta_lu);
    m_float.delta_ipiv = d.delta_ipiv;
    m_float.lambda_dense = narrow("schur_f32_lambda", d.lambda_dense);
    m_float.beta_dense = narrow("schur_f32_beta", d.beta_dense);

    // Rebuild the COO blocks at FP32 from the same thresholded dense
    // blocks, so the sparsity pattern matches the FP64 ladder exactly.
    m_float.lambda_coo = sparse::BasicCoo<float>(
            d.lambda_coo.nrows(), d.lambda_coo.ncols(), d.lambda_coo.rows_idx(),
            d.lambda_coo.cols_idx(),
            narrow("schur_f32_lambda_coo_vals", d.lambda_coo.values()));
    m_float.beta_coo = sparse::BasicCoo<float>(
            d.beta_coo.nrows(), d.beta_coo.ncols(), d.beta_coo.rows_idx(),
            d.beta_coo.cols_idx(),
            narrow("schur_f32_beta_coo_vals", d.beta_coo.values()));
}

} // namespace pspl::core

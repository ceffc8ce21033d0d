// FP64 residual arithmetic of the mixed-precision refinement loop.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): the residual r = b - A x must round every multiply
// and subtract separately, or the refined result -- and the convergence /
// fallback decisions keyed on it -- would differ between compilers that
// contract to FMA and ones that do not.
//
// The residual passes are *fused*: one sweep over the tile reads the
// staged RHS, applies the exact COO operator row group by row group (the
// COO is row-sorted, so each tile row is accumulated while resident in
// L1), and emits the FP32-narrowed residual for the correction solve and
// the max-norm in the same pass. The inner loops run across the tile
// columns with no dependency chains, so they auto-vectorize even without
// contraction.
//
// Max-norms reduce over absolute-value *bit patterns* as unsigned
// integers: with the sign bit masked off, the IEEE-754 ordering of
// non-negative doubles matches the integer ordering, NaN payloads compare
// above infinity, and integer max has no NaN special case to block
// vectorization. Non-finite inputs surface naturally -- the winning bit
// pattern decodes back to the NaN/inf itself.

#include "core/refinement.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace pspl::core::refine_detail {

namespace {

constexpr std::uint64_t abs_mask = 0x7fffffffffffffffull;

PSPL_FORCEINLINE_FUNCTION std::uint64_t abs_bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b & abs_mask;
}

PSPL_FORCEINLINE_FUNCTION double bits_to_abs(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

/// Shared body of the two residual passes: r = b - A * (iterate), with the
/// iterate abstracted by XT (float on the first pass, double later). All
/// blocks are strips of a row-major tile: `cols` live columns per row,
/// consecutive rows `pitch` elements apart; b is the pristine staged RHS.
/// max|b| falls out of the same sweep, so strip norms cost nothing extra.
///
/// Rows whose nonzero group is exactly {r-1, r, r+1} -- every interior
/// row of the tridiagonal spline operator, i.e. almost all of them --
/// take a fused single-sweep path: one loop reads b and the three iterate
/// rows, applies the products in the same order the generic path would
/// (COO is column-sorted within a row, so the results are bitwise
/// identical), and writes the narrowed residual without bouncing the row
/// through rwork. Boundary/Schur rows fall back to the generic
/// rwork-accumulator path.
template <class BT, class XT>
double residual_rows(const sparse::Coo& a, const BT* b, const XT* x,
                     float* rf, std::size_t n, std::size_t pitch,
                     std::size_t cols, double* PSPL_RESTRICT rwork,
                     double& norm_b)
{
    const std::size_t nnz = a.nnz();
    const View1D<int>& rows = a.rows_idx();
    const View1D<int>& colv = a.cols_idx();
    const View1D<double>& vals = a.values();
    std::uint64_t m = 0;
    std::uint64_t mb = 0;
    std::size_t nz = 0;
    // Hardware prefetchers ignore the multi-KiB row stride of wide staged
    // tiles, so every line of b and rf would be a demand miss; fetch a few
    // rows ahead explicitly (rf with write intent -- it is stored to).
    constexpr std::size_t pf_rows = 6;
    constexpr std::size_t pf_line = 64 / sizeof(BT) < 1 ? 1 : 64 / sizeof(BT);
    for (std::size_t r = 0; r < n; ++r) {
        if (r + pf_rows < n) {
            const BT* bpf = b + (r + pf_rows) * pitch;
            const float* rpf = rf + (r + pf_rows) * pitch;
            for (std::size_t j = 0; j < cols; j += pf_line) {
                __builtin_prefetch(bpf + j, 0, 1);
                __builtin_prefetch(rpf + j, 1, 1);
            }
        }
        // brow/rfr are deliberately not restrict-qualified: callers may
        // alias the pristine RHS onto the residual buffer (each row is
        // fully read before it is overwritten).
        const BT* brow = b + r * pitch;
        float* rfr = rf + r * pitch;
        const bool banded =
                nz + 2 < nnz && static_cast<std::size_t>(rows(nz)) == r
                && static_cast<std::size_t>(rows(nz + 2)) == r
                && (nz + 3 == nnz
                    || static_cast<std::size_t>(rows(nz + 3)) != r)
                && r > 0 && static_cast<std::size_t>(colv(nz)) == r - 1
                && static_cast<std::size_t>(colv(nz + 1)) == r
                && static_cast<std::size_t>(colv(nz + 2)) == r + 1;
        if (banded) {
            const double v0 = vals(nz);
            const double v1 = vals(nz + 1);
            const double v2 = vals(nz + 2);
            const XT* PSPL_RESTRICT xm = x + (r - 1) * pitch;
            const XT* PSPL_RESTRICT x0 = x + r * pitch;
            const XT* PSPL_RESTRICT xp = x + (r + 1) * pitch;
            nz += 3;
            for (std::size_t j = 0; j < cols; ++j) {
                double acc = static_cast<double>(brow[j]);
                const std::uint64_t bb = abs_bits(acc);
                mb = bb > mb ? bb : mb;
                acc -= v0 * static_cast<double>(xm[j]);
                acc -= v1 * static_cast<double>(x0[j]);
                acc -= v2 * static_cast<double>(xp[j]);
                rfr[j] = static_cast<float>(acc);
                const std::uint64_t bbits = abs_bits(acc);
                m = bbits > m ? bbits : m;
            }
            continue;
        }
        for (std::size_t j = 0; j < cols; ++j) {
            rwork[j] = static_cast<double>(brow[j]);
            const std::uint64_t bb = abs_bits(rwork[j]);
            mb = bb > mb ? bb : mb;
        }
        // from_dense emits the COO row-sorted, so this row's nonzeros are
        // one contiguous run; rwork stays in L1 across the whole group.
        while (nz < nnz && static_cast<std::size_t>(rows(nz)) == r) {
            const double v = vals(nz);
            const XT* PSPL_RESTRICT xc =
                    x + static_cast<std::size_t>(colv(nz)) * pitch;
            for (std::size_t j = 0; j < cols; ++j) {
                rwork[j] -= v * static_cast<double>(xc[j]);
            }
            ++nz;
        }
        for (std::size_t j = 0; j < cols; ++j) {
            rfr[j] = static_cast<float>(rwork[j]);
            const std::uint64_t bbits = abs_bits(rwork[j]);
            m = bbits > m ? bbits : m;
        }
    }
    norm_b = bits_to_abs(mb);
    return bits_to_abs(m);
}

template <class BT>
double residual_initial_impl(const sparse::Coo& a, const BT* b,
                             const float* xf, float* rf, std::size_t n,
                             std::size_t pitch, std::size_t cols,
                             double* rwork, double& norm_b)
{
    return residual_rows(a, b, xf, rf, n, pitch, cols, rwork, norm_b);
}

template <class BT>
double residual_from_x_impl(const sparse::Coo& a, const BT* b,
                            const double* x, float* rf, std::size_t n,
                            std::size_t pitch, std::size_t cols,
                            double* rwork)
{
    double norm_b; // recomputed, identical to the initial pass; discarded
    return residual_rows(a, b, x, rf, n, pitch, cols, rwork, norm_b);
}

} // namespace

double residual_initial(const sparse::Coo& a, const double* b,
                        const float* xf, float* rf, std::size_t n,
                        std::size_t pitch, std::size_t cols, double* rwork,
                        double& norm_b)
{
    return residual_initial_impl(a, b, xf, rf, n, pitch, cols, rwork,
                                 norm_b);
}

double residual_initial(const sparse::Coo& a, const float* b,
                        const float* xf, float* rf, std::size_t n,
                        std::size_t pitch, std::size_t cols, double* rwork,
                        double& norm_b)
{
    return residual_initial_impl(a, b, xf, rf, n, pitch, cols, rwork,
                                 norm_b);
}

double residual_from_x(const sparse::Coo& a, const double* b, const double* x,
                       float* rf, std::size_t n, std::size_t pitch,
                       std::size_t cols, double* rwork)
{
    return residual_from_x_impl(a, b, x, rf, n, pitch, cols, rwork);
}

double residual_from_x(const sparse::Coo& a, const float* b, const double* x,
                       float* rf, std::size_t n, std::size_t pitch,
                       std::size_t cols, double* rwork)
{
    return residual_from_x_impl(a, b, x, rf, n, pitch, cols, rwork);
}

void tile_accumulate_widen(double* x, const float* d, std::size_t n,
                           std::size_t pitch, std::size_t cols)
{
    for (std::size_t r = 0; r < n; ++r) {
        double* PSPL_RESTRICT xr = x + r * pitch;
        const float* PSPL_RESTRICT dr = d + r * pitch;
        for (std::size_t j = 0; j < cols; ++j) {
            xr[j] += static_cast<double>(dr[j]);
        }
    }
}

} // namespace pspl::core::refine_detail

// Periodic spline evaluation from coefficient blocks.
//
// The evaluator is the second half of the paper's benchmark kernel
// (Algorithm 2 lines 6-10): after the builder turns interpolation values
// into coefficients, the evaluator reconstructs s(x) at arbitrary
// (off-grid) positions such as the feet of characteristics.
#pragma once

#include "bsplines/basis.hpp"
#include "parallel/macros.hpp"
#include "parallel/parallel.hpp"
#include "parallel/simd.hpp"
#include "parallel/simd_view.hpp"
#include "parallel/view.hpp"

#include <utility>
#include <vector>

namespace pspl::core {

enum class EvaluatorVersion {
    Scalar = 0,
    /// SIMD-across-batch: the basis functions at each point are shared by
    /// every spline in the batch, so one scalar basis evaluation feeds W
    /// pack-wide coefficient combinations.
    Simd = 1,
};

const char* to_string(EvaluatorVersion v);

/// Rank-1 accessor over one coefficient column of an arena-staged row-major
/// strip (the layout the tile-resident solve drivers leave behind): element
/// r of the column lives at ptr[r * step]. Models the coefficient-view
/// shape the evaluator entry points consume, so the fused advection driver
/// can evaluate splines straight out of the staged tile without scattering
/// the coefficients to a full-size View first.
struct StripColumn {
    using value_type = double;
    static constexpr std::size_t rank = 1;

    const double* PSPL_RESTRICT ptr = nullptr;
    std::size_t len = 0;
    std::size_t step = 1; ///< elements between consecutive rows

    PSPL_FORCEINLINE_FUNCTION double operator()(std::size_t i) const
    {
        PSPL_DEBUG_ASSERT(i < len, "StripColumn: index out of bounds");
        return ptr[i * step];
    }
    PSPL_FORCEINLINE_FUNCTION std::size_t extent(std::size_t) const
    {
        return len;
    }
    PSPL_FORCEINLINE_FUNCTION const double* data() const { return ptr; }
    PSPL_FORCEINLINE_FUNCTION std::size_t stride(std::size_t) const
    {
        return step;
    }
};

class SplineEvaluator
{
public:
    SplineEvaluator() = default;

    explicit SplineEvaluator(bsplines::BSplineBasis basis,
                             EvaluatorVersion version = EvaluatorVersion::Simd)
        : m_basis(std::move(basis)), m_version(version)
    {
    }

    const bsplines::BSplineBasis& basis() const { return m_basis; }
    EvaluatorVersion version() const { return m_version; }
    void set_version(EvaluatorVersion v) { m_version = v; }

    /// s(x) for one coefficient column (rank-1 view). Kernel-callable.
    /// Periodic bases wrap x; clamped bases clamp it to the domain.
    template <class CView>
    double operator()(double x, const CView& coeffs) const
    {
        double vals[bsplines::BSplineBasis::max_degree + 1];
        const long jmin = m_basis.eval_basis(x, vals);
        double acc = 0.0;
        for (int r = 0; r <= m_basis.degree(); ++r) {
            acc += vals[r] * coeffs(m_basis.basis_index(jmin + r));
        }
        return acc;
    }

    /// s'(x) for one coefficient column. Kernel-callable.
    template <class CView>
    double deriv(double x, const CView& coeffs) const
    {
        double dvals[bsplines::BSplineBasis::max_degree + 1];
        const long jmin = m_basis.eval_deriv(x, dvals);
        double acc = 0.0;
        for (int r = 0; r <= m_basis.degree(); ++r) {
            acc += dvals[r] * coeffs(m_basis.basis_index(jmin + r));
        }
        return acc;
    }

    /// Integral of the spline over its domain: sum of coefficients times
    /// basis integrals (exact, no quadrature).
    template <class CView>
    double integrate(const CView& coeffs) const
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < m_basis.nbasis(); ++i) {
            acc += coeffs(i) * m_basis.basis_integral(i);
        }
        return acc;
    }

    /// Host convenience: evaluate at many points for one coefficient column.
    std::vector<double> evaluate_many(const std::vector<double>& points,
                                      const View1D<double>& coeffs) const;

    /// Whether evaluate_shifted() runs the block kernel: every periodic
    /// basis, uniform or not. Clamped bases stay on the per-point loop (their
    /// repeated end knots give the scalar recursion cell-dependent
    /// branches).
    bool shifted_simd_supported() const { return m_basis.is_periodic(); }

    /// Strip evaluation (kernel-callable): out[i] = s(points(i) - shift)
    /// for i in [0, points.extent(0)), one coefficient column. `shift` is
    /// the backward-characteristic displacement v*dt of semi-Lagrangian
    /// advection; `out` is a contiguous row (an output strip row or a row
    /// of the distribution function itself). With EvaluatorVersion::Simd
    /// and shifted_simd_supported(), whole blocks of shifted_block feet go
    /// through the block kernel and the remainder through the per-point
    /// loop. Every output equals operator()(points(i) - shift, coeffs) to
    /// the bit on both paths.
    template <class CView>
    void evaluate_shifted(const View1D<double>& points, double shift,
                          const CView& coeffs,
                          double* PSPL_RESTRICT out) const
    {
        const std::size_t npts = points.extent(0);
        std::size_t i = 0;
        if (m_version == EvaluatorVersion::Simd && shifted_simd_supported()) {
            constexpr auto block = static_cast<std::size_t>(shifted_block);
            std::size_t cell = 0; // search hint: the previous foot's cell
            for (; i + block <= npts; i += block) {
                evaluate_shifted_block(points, i, shift, coeffs, out + i,
                                       cell);
            }
        }
        for (; i < npts; ++i) {
            out[i] = (*this)(points(i) - shift, coeffs);
        }
    }

    /// Batched evaluation: out(p, i) = s_i(points(p)) where column i of
    /// `coeffs` (n, batch) holds one spline. Parallel over the batch;
    /// dispatches on the configured EvaluatorVersion.
    template <class Exec = DefaultExecutionSpace, class CView, class OView>
    void evaluate_batched(const View1D<double>& points, const CView& coeffs,
                          const OView& out) const
    {
        if (m_version == EvaluatorVersion::Simd) {
            evaluate_batched_simd<simd_preferred_width<double>, Exec>(
                    points, coeffs, out);
            return;
        }
        const std::size_t batch = coeffs.extent(1);
        const std::size_t npts = points.extent(0);
        PSPL_EXPECT(out.extent(0) == npts && out.extent(1) == batch,
                    "evaluate_batched: output extents mismatch");
        const SplineEvaluator self = *this;
        parallel_for("pspl::core::evaluate_batched", RangePolicy<Exec>(batch),
                     [=](std::size_t i) {
                         for (std::size_t p = 0; p < npts; ++p) {
                             double acc = 0.0;
                             double vals[bsplines::BSplineBasis::max_degree + 1];
                             const long jmin = self.m_basis.eval_basis(
                                     points(p), vals);
                             for (int r = 0; r <= self.m_basis.degree(); ++r) {
                                 acc += vals[r]
                                        * coeffs(self.m_basis.basis_index(
                                                         jmin + r),
                                                 i);
                             }
                             out(p, i) = acc;
                         }
                     });
    }

    /// Explicit-width SIMD evaluation: W adjacent splines per pack. The
    /// basis values vals[] and the support start jmin depend only on the
    /// point, so they are computed once per point per chunk and broadcast
    /// into the lane-wise coefficient combination -- same FP operations per
    /// lane as the scalar path, in the same order.
    template <int W, class Exec = DefaultExecutionSpace, class CView,
              class OView>
    void evaluate_batched_simd(const View1D<double>& points,
                               const CView& coeffs, const OView& out) const
    {
        const std::size_t batch = coeffs.extent(1);
        const std::size_t npts = points.extent(0);
        PSPL_EXPECT(out.extent(0) == npts && out.extent(1) == batch,
                    "evaluate_batched: output extents mismatch");
        const SplineEvaluator self = *this;
        for_each_batch_simd<W>("pspl::core::evaluate_batched_simd",
                               RangePolicy<Exec>(batch),
                               [=](const BatchChunk<W>& chunk) {
            for (std::size_t p = 0; p < npts; ++p) {
                double vals[bsplines::BSplineBasis::max_degree + 1];
                const long jmin = self.m_basis.eval_basis(points(p), vals);
                simd<double, W> acc(0.0);
                for (int r = 0; r <= self.m_basis.degree(); ++r) {
                    acc += vals[r]
                           * simd_load_lanes<W>(
                                   coeffs,
                                   self.m_basis.basis_index(jmin + r),
                                   chunk.begin, chunk.lanes);
                }
                simd_store_lanes<W>(acc, out, p, chunk.begin, chunk.lanes);
            }
        });
    }

private:
    /// Feet per block of the evaluate_shifted kernel. A constant, not a
    /// knob: wide enough that the divide chains of the lane-wise Cox-de Boor
    /// triangle overlap even when the pack lowers to 2-wide SSE2 registers.
    static constexpr int shifted_block = 8;

    /// One block of evaluate_shifted on a periodic basis: feet
    /// points(i0 + l) - shift for l < shifted_block, written to out[l].
    /// Per lane it performs the floating-point operations of eval_basis
    /// followed by operator()'s tap loop, in the same order, so each output
    /// is bitwise the scalar one. The wrap and the hinted cell search are
    /// scalar per foot; the Cox-de Boor triangle runs lane-wise on packs --
    /// in cell-local units on uniform breaks (eval_basis' cell_units
    /// branch), on gathered knot differences otherwise. The (degree+1)-tap
    /// combination is lane-serial, every lane reading its own support
    /// window, with a storage index that wraps by one compare per tap.
    template <class CView>
    PSPL_FORCEINLINE_FUNCTION void
    evaluate_shifted_block(const View1D<double>& points, std::size_t i0,
                           double shift, const CView& coeffs,
                           double* PSPL_RESTRICT out, std::size_t& cell) const
    {
        constexpr int B = shifted_block;
        constexpr int max_taps = bsplines::BSplineBasis::max_degree + 1;
        using Pack = simd<double, B>;
        const bsplines::BSplineBasis& basis = m_basis;
        const int p = basis.degree();
        const auto pl = static_cast<long>(p);
        const std::size_t n = basis.nbasis();

        double xw[B];
        long icell[B];
        for (int l = 0; l < B; ++l) {
            xw[l] = basis.wrap(points(i0 + static_cast<std::size_t>(l))
                               - shift);
            cell = basis.find_cell(xw[l], cell);
            icell[l] = static_cast<long>(cell);
        }
        const Pack x = Pack::load(xw);

        // Per-lane gathers, lo[l] / hi[l], loaded as packs.
        double lo[B];
        double hi[B];
        Pack left[max_taps];
        Pack right[max_taps];
        if (basis.is_uniform()) {
            for (int l = 0; l < B; ++l) {
                const auto c = static_cast<std::size_t>(icell[l]);
                lo[l] = basis.break_point(c);
                hi[l] = basis.break_point(c + 1);
            }
            const Pack b0 = Pack::load(lo);
            const Pack u = (x - b0) / (Pack::load(hi) - b0);
            for (int j = 0; j < p; ++j) {
                left[j] = u + static_cast<double>(j);
                right[j] = (1.0 - u) + static_cast<double>(j);
            }
        } else {
            for (int j = 0; j < p; ++j) {
                for (int l = 0; l < B; ++l) {
                    lo[l] = basis.knot(icell[l] - j);
                    hi[l] = basis.knot(icell[l] + j + 1);
                }
                left[j] = x - Pack::load(lo);
                right[j] = Pack::load(hi) - x;
            }
        }

        Pack vals[max_taps];
        vals[0] = Pack(1.0);
        for (int j = 0; j < p; ++j) {
            Pack saved(0.0);
            for (int r = 0; r <= j; ++r) {
                const Pack temp = vals[r] / (right[r] + left[j - r]);
                vals[r] = saved + right[r] * temp;
                saved = left[j - r] * temp;
            }
            vals[j + 1] = saved;
        }

        for (int l = 0; l < B; ++l) {
            std::size_t idx = basis.basis_index(icell[l] - pl);
            double acc = 0.0;
            for (int r = 0; r <= p; ++r) {
                acc += vals[r][l] * coeffs(idx);
                if (++idx == n) {
                    idx = 0;
                }
            }
            out[l] = acc;
        }
    }

    bsplines::BSplineBasis m_basis;
    EvaluatorVersion m_version = EvaluatorVersion::Simd;
};

} // namespace pspl::core

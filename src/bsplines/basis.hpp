// B-spline basis of arbitrary degree on uniform or non-uniform break
// points (Cox-de Boor recursion, de Boor's BSPLVB algorithm), with two
// boundary treatments:
//
//   Periodic -- knots wrap around the domain; nbasis == ncells. This is
//               the paper's case (tokamak angles are periodic) and yields
//               the banded+corners matrices of Fig. 1.
//   Clamped  -- open knot vector (end knots repeated degree+1 times);
//               nbasis == ncells + degree. This covers GYSELA's radial /
//               velocity dimensions; collocation at the Greville points
//               yields a plain banded matrix (no corners), exercising the
//               k = 0 path of the Schur solver.
//
// The class is cheap to copy (knot storage is a shared View) so it can be
// captured by value inside parallel kernels, which the batched spline
// evaluator relies on.
#pragma once

#include "parallel/macros.hpp"
#include "parallel/view.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

namespace pspl::bsplines {

enum class Boundary {
    Periodic,
    Clamped,
};

class BSplineBasis
{
public:
    /// Maximum supported spline degree (stack scratch inside kernels).
    static constexpr int max_degree = 9;

    BSplineBasis() = default;

    /// Basis on the given break points (breaks.front() = xmin,
    /// breaks.back() = xmax).
    BSplineBasis(int degree, const std::vector<double>& breaks, bool uniform,
                 Boundary boundary);

    static BSplineBasis uniform(int degree, std::size_t ncells, double xmin,
                                double xmax);
    static BSplineBasis non_uniform(int degree,
                                    const std::vector<double>& breaks);
    static BSplineBasis clamped_uniform(int degree, std::size_t ncells,
                                        double xmin, double xmax);
    static BSplineBasis clamped_non_uniform(int degree,
                                            const std::vector<double>& breaks);

    int degree() const { return m_degree; }
    std::size_t ncells() const { return m_ncells; }
    /// Number of basis functions: ncells (periodic) or ncells + degree
    /// (clamped).
    std::size_t nbasis() const
    {
        return m_periodic ? m_ncells
                          : m_ncells + static_cast<std::size_t>(m_degree);
    }
    double xmin() const { return m_xmin; }
    double xmax() const { return m_xmax; }
    double length() const { return m_xmax - m_xmin; }
    bool is_uniform() const { return m_uniform; }
    bool is_periodic() const { return m_periodic; }
    Boundary boundary() const
    {
        return m_periodic ? Boundary::Periodic : Boundary::Clamped;
    }

    /// Knot t_i for i in [-degree, ncells+degree] (periodic extension or
    /// clamped repetition).
    double knot(long i) const
    {
        return m_knots(static_cast<std::size_t>(i + m_degree));
    }

    /// Break point c in [0, ncells].
    double break_point(std::size_t c) const
    {
        return m_knots(static_cast<std::size_t>(m_degree) + c);
    }

    /// Map x into the principal domain: periodic wrap, or clamp to
    /// [xmin, xmax] for clamped bases.
    double wrap(double x) const
    {
        if (!m_periodic) {
            if (x < m_xmin) {
                return m_xmin;
            }
            if (x > m_xmax) {
                return m_xmax;
            }
            return x;
        }
        // Inside the domain the floor formula below computes floor(q) = 0
        // (q = d / length rounds below 1 for every d <= m_wrap_dmax) and
        // returns x itself, so skip the division.
        const double d = x - m_xmin;
        if (d > 0.0 && d <= m_wrap_dmax) {
            return x;
        }
        const double length = m_xmax - m_xmin;
        double t = x - length * std::floor(d / length);
        if (t >= m_xmax) {
            t = m_xmin; // guard against floating-point round-up at the seam
        }
        return t;
    }

    /// Index of the cell containing wrap(x), in [0, ncells).
    std::size_t find_cell(double x_wrapped) const
    {
        if (m_uniform) {
            // Clamp in floating point before converting: a NaN or
            // out-of-range quotient makes the conversion undefined.
            const double q = (x_wrapped - m_xmin) * m_inv_dx;
            long c = 0;
            if (q >= static_cast<double>(m_ncells)) {
                c = static_cast<long>(m_ncells) - 1;
            } else if (q >= 0.0) {
                c = static_cast<long>(q);
            }
            // Uniform arithmetic can land one cell off at boundaries.
            while (c > 0
                   && x_wrapped < break_point(static_cast<std::size_t>(c))) {
                --c;
            }
            while (c + 1 < static_cast<long>(m_ncells)
                   && x_wrapped
                              >= break_point(static_cast<std::size_t>(c) + 1)) {
                ++c;
            }
            return static_cast<std::size_t>(c);
        }
        // Binary search over break points.
        std::size_t lo = 0;
        std::size_t hi = m_ncells; // invariant: break(lo) <= x < break(hi)
        while (hi - lo > 1) {
            const std::size_t mid = (lo + hi) / 2;
            if (x_wrapped < break_point(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        return lo;
    }

    /// find_cell(x_wrapped), trying cell `hint` (< ncells) and the one
    /// after it first -- where consecutive feet of an ordered point set
    /// land. Both searches return the one cell c with
    /// (c == 0 or x >= break(c)) and (c == ncells-1 or x < break(c+1)); no
    /// cell satisfies that for NaN, which therefore takes the full search.
    std::size_t find_cell(double x_wrapped, std::size_t hint) const
    {
        PSPL_DEBUG_ASSERT(hint < m_ncells, "find_cell: hint out of range");
        if (cell_holds(hint, x_wrapped)) {
            return hint;
        }
        if (hint + 1 < m_ncells && cell_holds(hint + 1, x_wrapped)) {
            return hint + 1;
        }
        return find_cell(x_wrapped);
    }

    /// Map a raw basis index (as returned via jmin from eval_basis) to the
    /// storage index in [0, nbasis): modulo for periodic, +degree shift for
    /// clamped.
    std::size_t basis_index(long j) const
    {
        if (m_periodic) {
            // j in [-n, 2n), every caller's range, needs at most one add
            // or subtract; the modulo covers the rest.
            const auto n = static_cast<long>(m_ncells);
            if (j >= 0 && j < n) {
                return static_cast<std::size_t>(j);
            }
            if (j < 0 && j >= -n) {
                return static_cast<std::size_t>(j + n);
            }
            if (j >= n && j < 2 * n) {
                return static_cast<std::size_t>(j - n);
            }
            return static_cast<std::size_t>(((j % n) + n) % n);
        }
        return static_cast<std::size_t>(j + m_degree);
    }

    /// Evaluate the degree+1 basis functions that are non-zero at x.
    /// vals[r] = N_{jmin+r}(x); returns the raw index jmin (feed jmin+r
    /// through basis_index() for storage indexing).
    long eval_basis(double x, double* vals) const;

    /// Same for first derivatives: dvals[r] = N'_{jmin+r}(x).
    long eval_deriv(double x, double* dvals) const;

    /// m-th derivatives of the degree+1 basis functions non-zero at x
    /// (m = 0 reduces to eval_basis). Needed for Hermite boundary
    /// conditions, which constrain derivatives up to order (degree-1)/2.
    long eval_deriv_order(double x, int m, double* dvals) const;

    /// Greville abscissa of basis function i in [0, nbasis):
    /// (t_{j+1} + ... + t_{j+degree}) / degree for the raw index j of i.
    /// These are the interpolation (collocation) points.
    double greville(std::size_t i) const;

    /// All nbasis interpolation points, in basis order.
    std::vector<double> interpolation_points() const;

    /// Integral of basis function i over the domain:
    /// (t_{j+degree+1} - t_j) / (degree + 1). Used for spline quadrature.
    double basis_integral(std::size_t i) const;

private:
    bool cell_holds(std::size_t c, double x) const
    {
        return (c == 0 || x >= break_point(c))
               && (c + 1 == m_ncells || x < break_point(c + 1));
    }

    int m_degree = 0;
    std::size_t m_ncells = 0;
    double m_xmin = 0.0;
    double m_xmax = 1.0;
    double m_inv_dx = 1.0; ///< only meaningful when uniform
    /// Largest d with fl(d / length) < 1: wrap's no-division bound.
    double m_wrap_dmax = 0.0;
    bool m_uniform = true;
    bool m_periodic = true;
    View1D<double> m_knots; ///< size ncells + 2*degree + 1; index i+degree
};

} // namespace pspl::bsplines

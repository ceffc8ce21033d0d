#include "bsplines/basis.hpp"

#include "bsplines/knots.hpp"
#include "parallel/macros.hpp"

#include <cmath>

namespace pspl::bsplines {

BSplineBasis::BSplineBasis(int degree, const std::vector<double>& breaks,
                           bool uniform, Boundary boundary)
    : m_degree(degree)
    , m_ncells(breaks.size() - 1)
    , m_xmin(breaks.front())
    , m_xmax(breaks.back())
    , m_uniform(uniform)
    , m_periodic(boundary == Boundary::Periodic)
{
    PSPL_EXPECT(degree >= 1 && degree <= max_degree,
                "BSplineBasis: unsupported degree");
    PSPL_EXPECT(breaks.size() >= 2, "BSplineBasis: need at least one cell");
    if (m_periodic) {
        PSPL_EXPECT(m_ncells > static_cast<std::size_t>(degree),
                    "BSplineBasis: periodic splines need ncells > degree");
    }
    for (std::size_t c = 0; c + 1 < breaks.size(); ++c) {
        PSPL_EXPECT(breaks[c + 1] > breaks[c],
                    "BSplineBasis: breaks must be strictly increasing");
    }
    const double length = m_xmax - m_xmin;
    m_inv_dx = static_cast<double>(m_ncells) / length;
    // fl(d / length) is non-decreasing in d and fl(length / length) = 1, so
    // stepping down from length finds the largest d that divides below 1.
    m_wrap_dmax = length;
    while (m_wrap_dmax / length >= 1.0) {
        m_wrap_dmax = std::nextafter(m_wrap_dmax, 0.0);
    }

    const std::size_t p = static_cast<std::size_t>(degree);
    m_knots = View1D<double>("bspline_knots", m_ncells + 2 * p + 1);
    // Principal knots.
    for (std::size_t c = 0; c <= m_ncells; ++c) {
        m_knots(p + c) = breaks[c];
    }
    // Padding: periodic extension, or clamped (open knot vector) repetition.
    for (std::size_t j = 1; j <= p; ++j) {
        if (m_periodic) {
            m_knots(p - j) = breaks[m_ncells - j] - length;
            m_knots(p + m_ncells + j) = breaks[j] + length;
        } else {
            m_knots(p - j) = m_xmin;
            m_knots(p + m_ncells + j) = m_xmax;
        }
    }
}

BSplineBasis BSplineBasis::uniform(int degree, std::size_t ncells, double xmin,
                                   double xmax)
{
    return BSplineBasis(degree, uniform_breaks(ncells, xmin, xmax), true,
                        Boundary::Periodic);
}

BSplineBasis BSplineBasis::non_uniform(int degree,
                                       const std::vector<double>& breaks)
{
    return BSplineBasis(degree, breaks, false, Boundary::Periodic);
}

BSplineBasis BSplineBasis::clamped_uniform(int degree, std::size_t ncells,
                                           double xmin, double xmax)
{
    return BSplineBasis(degree, uniform_breaks(ncells, xmin, xmax), true,
                        Boundary::Clamped);
}

BSplineBasis
BSplineBasis::clamped_non_uniform(int degree,
                                  const std::vector<double>& breaks)
{
    return BSplineBasis(degree, breaks, false, Boundary::Clamped);
}

long BSplineBasis::eval_basis(double x, double* vals) const
{
    const double xw = wrap(x);
    const auto icell = static_cast<long>(find_cell(xw));
    const int p = m_degree;

    // The Cox-de Boor ratios are invariant under a common scaling of the
    // knot differences. On a uniform grid we therefore work in cell-local
    // units (u in [0, 1) within the cell): this keeps the values exactly
    // identical across rows (no O(n*eps) drift), which the collocation
    // matrix structure analysis relies on. Clamped bases have repeated end
    // knots, so the shortcut only applies away from the boundary cells.
    const bool cell_units =
            m_uniform
            && (m_periodic
                || (icell >= p
                    && icell + p <= static_cast<long>(m_ncells)));
    double u = 0.0;
    if (cell_units) {
        const double h = break_point(static_cast<std::size_t>(icell) + 1)
                         - break_point(static_cast<std::size_t>(icell));
        u = (xw - break_point(static_cast<std::size_t>(icell))) / h;
    }

    double left[max_degree + 1];
    double right[max_degree + 1];
    vals[0] = 1.0;
    for (int j = 0; j < p; ++j) {
        if (cell_units) {
            left[j] = u + static_cast<double>(j);
            right[j] = (1.0 - u) + static_cast<double>(j);
        } else {
            left[j] = xw - knot(icell - j);
            right[j] = knot(icell + j + 1) - xw;
        }
        double saved = 0.0;
        for (int r = 0; r <= j; ++r) {
            const double temp = vals[r] / (right[r] + left[j - r]);
            vals[r] = saved + right[r] * temp;
            saved = left[j - r] * temp;
        }
        vals[j + 1] = saved;
    }
    return icell - p;
}

long BSplineBasis::eval_deriv(double x, double* dvals) const
{
    const double xw = wrap(x);
    const auto icell = static_cast<long>(find_cell(xw));
    const int p = m_degree;

    // Evaluate the p lower-degree (p-1) basis functions non-zero at x:
    // lower[s] = N_{icell-p+1+s, p-1}(x).
    double lower[max_degree + 1];
    double left[max_degree + 1];
    double right[max_degree + 1];
    lower[0] = 1.0;
    for (int j = 0; j < p - 1; ++j) {
        left[j] = xw - knot(icell - j);
        right[j] = knot(icell + j + 1) - xw;
        double saved = 0.0;
        for (int r = 0; r <= j; ++r) {
            const double temp = lower[r] / (right[r] + left[j - r]);
            lower[r] = saved + right[r] * temp;
            saved = left[j - r] * temp;
        }
        lower[j + 1] = saved;
    }

    // N'_{i,p} = p * ( N_{i,p-1}/(t_{i+p}-t_i) - N_{i+1,p-1}/(t_{i+p+1}-t_{i+1}) )
    // Repeated clamped knots make some denominators zero; the corresponding
    // lower-degree basis function vanishes there, so the term is dropped.
    const auto dp = static_cast<double>(p);
    for (int r = 0; r <= p; ++r) {
        const long i = icell - p + r;
        const double denom_a = knot(i + p) - knot(i);
        const double denom_b = knot(i + p + 1) - knot(i + 1);
        const double a =
                (r > 0 && denom_a > 0.0) ? lower[r - 1] / denom_a : 0.0;
        const double b = (r < p && denom_b > 0.0) ? lower[r] / denom_b : 0.0;
        dvals[r] = dp * (a - b);
    }
    return icell - p;
}

long BSplineBasis::eval_deriv_order(double x, int m, double* dvals) const
{
    PSPL_EXPECT(m >= 0 && m <= m_degree,
                "eval_deriv_order: order must be in [0, degree]");
    if (m == 0) {
        return eval_basis(x, dvals);
    }
    const double xw = wrap(x);
    const auto icell = static_cast<long>(find_cell(xw));
    const int p = m_degree;

    // Evaluate the degree (p-m) basis: work[s] = N_{icell-(p-m)+s, p-m}(x).
    double work[max_degree + 1];
    double next[max_degree + 1];
    double left[max_degree + 1];
    double right[max_degree + 1];
    work[0] = 1.0;
    for (int j = 0; j < p - m; ++j) {
        left[j] = xw - knot(icell - j);
        right[j] = knot(icell + j + 1) - xw;
        double saved = 0.0;
        for (int r = 0; r <= j; ++r) {
            const double temp = work[r] / (right[r] + left[j - r]);
            work[r] = saved + right[r] * temp;
            saved = left[j - r] * temp;
        }
        work[j + 1] = saved;
    }

    // Raise the degree one level at a time, differentiating:
    //   N^{(k)}_{i,q} = q * ( N^{(k-1)}_{i,q-1}/(t_{i+q}-t_i)
    //                       - N^{(k-1)}_{i+1,q-1}/(t_{i+q+1}-t_{i+1}) ).
    // Repeated clamped end knots give zero denominators exactly where the
    // corresponding lower-degree function vanishes; drop those terms.
    for (int q = p - m + 1; q <= p; ++q) {
        for (int r = 0; r <= q; ++r) {
            const long i = icell - q + r;
            const double denom_a = knot(i + q) - knot(i);
            const double denom_b = knot(i + q + 1) - knot(i + 1);
            const double a = (r > 0 && denom_a > 0.0)
                                     ? work[r - 1] / denom_a
                                     : 0.0;
            const double b = (r < q && denom_b > 0.0) ? work[r] / denom_b
                                                      : 0.0;
            next[r] = static_cast<double>(q) * (a - b);
        }
        for (int r = 0; r <= q; ++r) {
            work[r] = next[r];
        }
    }
    for (int r = 0; r <= p; ++r) {
        dvals[r] = work[r];
    }
    return icell - p;
}

double BSplineBasis::greville(std::size_t i) const
{
    // Raw basis index: periodic representatives are 0..ncells-1; clamped
    // bases run from -degree.
    const long j = m_periodic ? static_cast<long>(i)
                              : static_cast<long>(i) - m_degree;
    if (m_uniform && m_periodic) {
        // On a uniform periodic grid the Greville mean lands exactly on a
        // knot (odd degree) or a cell midpoint (even degree). Snap to the
        // stored break points so the collocation matrix is exactly
        // symmetric -- evaluating the averaged-and-wrapped float instead
        // would inject O(n*eps) asymmetry that confuses the structure
        // analysis.
        const double pos = static_cast<double>(i)
                           + 0.5 * static_cast<double>(m_degree + 1);
        double cells = std::fmod(pos, static_cast<double>(m_ncells));
        const double r = std::round(cells);
        if (std::abs(cells - r) < 0.25) {
            auto c = static_cast<std::size_t>(r);
            if (c >= m_ncells) {
                c = 0;
            }
            return break_point(c);
        }
        const auto c = static_cast<std::size_t>(cells);
        return 0.5 * (break_point(c) + break_point(c + 1));
    }
    double acc = 0.0;
    for (int s = 1; s <= m_degree; ++s) {
        acc += knot(j + s);
    }
    return wrap(acc / static_cast<double>(m_degree));
}

std::vector<double> BSplineBasis::interpolation_points() const
{
    std::vector<double> pts(nbasis());
    for (std::size_t i = 0; i < nbasis(); ++i) {
        pts[i] = greville(i);
    }
    return pts;
}

double BSplineBasis::basis_integral(std::size_t i) const
{
    const long j = m_periodic ? static_cast<long>(i)
                              : static_cast<long>(i) - m_degree;
    return (knot(j + m_degree + 1) - knot(j))
           / static_cast<double>(m_degree + 1);
}

} // namespace pspl::bsplines

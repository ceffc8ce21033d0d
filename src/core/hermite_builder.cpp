#include "core/hermite_builder.hpp"

#include "parallel/macros.hpp"

#include <vector>

namespace pspl::core {

namespace {

/// The Hermite collocation matrix of `basis`, rows in the RHS layout
/// documented in the header.
View2D<double> hermite_matrix(const bsplines::BSplineBasis& basis)
{
    PSPL_EXPECT(!basis.is_periodic(),
                "HermiteSplineBuilder: basis must be clamped");
    PSPL_EXPECT(basis.degree() % 2 == 1,
                "HermiteSplineBuilder: degree must be odd");
    const std::size_t n = basis.nbasis();
    const auto s = static_cast<std::size_t>((basis.degree() - 1) / 2);
    const std::size_t npts = basis.ncells() + 1;
    PSPL_EXPECT(2 * s + npts == n,
                "HermiteSplineBuilder: condition count mismatch");

    View2D<double> a("hermite_matrix", n, n);
    std::vector<double> vals(static_cast<std::size_t>(basis.degree()) + 1);
    // Derivative rows at xmin (orders 1..s).
    for (std::size_t m = 1; m <= s; ++m) {
        const long jmin = basis.eval_deriv_order(
                basis.xmin(), static_cast<int>(m), vals.data());
        for (int r = 0; r <= basis.degree(); ++r) {
            a(m - 1, basis.basis_index(jmin + r)) +=
                    vals[static_cast<std::size_t>(r)];
        }
    }
    // Value rows at the break points.
    for (std::size_t c = 0; c < npts; ++c) {
        const long jmin = basis.eval_basis(basis.break_point(c), vals.data());
        for (int r = 0; r <= basis.degree(); ++r) {
            a(s + c, basis.basis_index(jmin + r)) +=
                    vals[static_cast<std::size_t>(r)];
        }
    }
    // Derivative rows at xmax (orders 1..s).
    for (std::size_t m = 1; m <= s; ++m) {
        const long jmin = basis.eval_deriv_order(
                basis.xmax(), static_cast<int>(m), vals.data());
        for (int r = 0; r <= basis.degree(); ++r) {
            a(s + npts + m - 1, basis.basis_index(jmin + r)) +=
                    vals[static_cast<std::size_t>(r)];
        }
    }
    return a;
}

} // namespace

HermiteSplineBuilder::HermiteSplineBuilder(bsplines::BSplineBasis basis,
                                           BuilderVersion version)
    : SplineBuilder(basis, hermite_matrix(basis), version)
{
    m_points.resize(basis.ncells() + 1);
    for (std::size_t c = 0; c < m_points.size(); ++c) {
        m_points[c] = basis.break_point(c);
    }
}

} // namespace pspl::core

// Tests for the SIMD-across-batch layer: pack arithmetic, masked tail
// handling, strided load/store round-trips, the for_each_batch_simd
// dispatch, and end-to-end agreement of the SIMD builder/evaluator paths
// with the scalar ones at awkward batch sizes (1, W-1, W, W+1, large).
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "bsplines/knots.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/parallel.hpp"
#include "parallel/simd.hpp"
#include "parallel/simd_view.hpp"
#include "parallel/view.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <tuple>
#include <vector>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;
using core::BuilderVersion;
using core::SplineBuilder;
using core::SplineEvaluator;

std::uint64_t ulp_distance(double a, double b)
{
    const auto lex = [](double d) {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof(u));
        return (u >> 63) ? ~u : (u | 0x8000000000000000ull);
    };
    const std::uint64_t x = lex(a);
    const std::uint64_t y = lex(b);
    return x > y ? x - y : y - x;
}

// ---------------------------------------------------------------------------
// Pack arithmetic, over every width the dispatch can pick.
// ---------------------------------------------------------------------------

template <class Pack>
class SimdPackTyped : public ::testing::Test
{
};

using PackTypes = ::testing::Types<simd<double, 2>, simd<double, 4>,
                                   simd<double, 8>, simd<float, 4>,
                                   simd<float, 8>, simd<float, 16>>;
TYPED_TEST_SUITE(SimdPackTyped, PackTypes);

TYPED_TEST(SimdPackTyped, BroadcastAndLaneAccess)
{
    using T = typename TypeParam::value_type;
    const TypeParam x(T(3));
    for (int l = 0; l < TypeParam::width; ++l) {
        EXPECT_EQ(x[l], T(3));
    }
    TypeParam y(T(0));
    y.set(1, T(7));
    EXPECT_EQ(y[0], T(0));
    EXPECT_EQ(y[1], T(7));
}

TYPED_TEST(SimdPackTyped, ElementwiseArithmeticMatchesScalar)
{
    using T = typename TypeParam::value_type;
    constexpr int W = TypeParam::width;
    T a_in[W];
    T b_in[W];
    for (int l = 0; l < W; ++l) {
        a_in[l] = T(1) + T(l);
        b_in[l] = T(2) - T(l) / T(4);
    }
    const auto a = TypeParam::load(a_in);
    const auto b = TypeParam::load(b_in);
    const auto sum = a + b;
    const auto diff = a - b;
    const auto prod = a * b;
    const auto quot = a / b;
    const auto fma = a * T(2) + b - T(1);
    const auto neg = -a;
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ(sum[l], a_in[l] + b_in[l]);
        EXPECT_EQ(diff[l], a_in[l] - b_in[l]);
        EXPECT_EQ(prod[l], a_in[l] * b_in[l]);
        EXPECT_EQ(quot[l], a_in[l] / b_in[l]);
        EXPECT_EQ(fma[l], a_in[l] * T(2) + b_in[l] - T(1));
        EXPECT_EQ(neg[l], -a_in[l]);
    }
}

TYPED_TEST(SimdPackTyped, CompoundAssignment)
{
    using T = typename TypeParam::value_type;
    constexpr int W = TypeParam::width;
    TypeParam x(T(10));
    x += TypeParam(T(2));
    x -= T(1);
    x *= T(3);
    x /= TypeParam(T(2));
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ(x[l], ((T(10) + T(2) - T(1)) * T(3)) / T(2));
    }
}

TYPED_TEST(SimdPackTyped, ContiguousLoadStoreRoundTrip)
{
    using T = typename TypeParam::value_type;
    constexpr int W = TypeParam::width;
    // Offset by one to exercise element-aligned (not pack-aligned) access.
    std::vector<T> src(W + 1);
    for (int l = 0; l <= W; ++l) {
        src[static_cast<std::size_t>(l)] = T(l) + T(1) / T(2);
    }
    const auto x = TypeParam::load(src.data() + 1);
    std::vector<T> dst(W + 1, T(0));
    x.store(dst.data() + 1);
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ(dst[static_cast<std::size_t>(l + 1)],
                  src[static_cast<std::size_t>(l + 1)]);
    }
}

TYPED_TEST(SimdPackTyped, StridedLoadStoreRoundTrip)
{
    using T = typename TypeParam::value_type;
    constexpr int W = TypeParam::width;
    constexpr std::ptrdiff_t stride = 3;
    std::vector<T> src(static_cast<std::size_t>(W * stride), T(-1));
    for (int l = 0; l < W; ++l) {
        src[static_cast<std::size_t>(l * stride)] = T(l * l);
    }
    const auto x = TypeParam::load(src.data(), stride);
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ(x[l], T(l * l));
    }
    std::vector<T> dst(static_cast<std::size_t>(W * stride), T(-1));
    x.store(dst.data(), stride);
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ(dst[static_cast<std::size_t>(l * stride)], T(l * l));
        if (stride > 1) {
            EXPECT_EQ(dst[static_cast<std::size_t>(l * stride) + 1], T(-1))
                    << "store leaked outside its lanes";
        }
    }
}

TYPED_TEST(SimdPackTyped, PartialLoadZeroFillsAndPartialStoreMasks)
{
    using T = typename TypeParam::value_type;
    constexpr int W = TypeParam::width;
    std::vector<T> src(W);
    for (int l = 0; l < W; ++l) {
        src[static_cast<std::size_t>(l)] = T(l + 1);
    }
    for (int lanes = 0; lanes <= W; ++lanes) {
        const auto x = TypeParam::load_partial(src.data(), 1, lanes);
        for (int l = 0; l < W; ++l) {
            EXPECT_EQ(x[l], l < lanes ? src[static_cast<std::size_t>(l)] : T(0));
        }
        std::vector<T> dst(W, T(-7));
        x.store_partial(dst.data(), 1, lanes);
        for (int l = 0; l < W; ++l) {
            EXPECT_EQ(dst[static_cast<std::size_t>(l)],
                      l < lanes ? src[static_cast<std::size_t>(l)] : T(-7));
        }
    }
}

TYPED_TEST(SimdPackTyped, DeadTailLanesStayFiniteThroughDivision)
{
    using T = typename TypeParam::value_type;
    constexpr int W = TypeParam::width;
    std::vector<T> src(W, T(5));
    const auto x = TypeParam::load_partial(src.data(), 1, 1);
    const auto y = x / T(2) - x * T(3); // zero lanes: 0/2 - 0*3 = 0
    for (int l = 1; l < W; ++l) {
        EXPECT_EQ(y[l], T(0));
        EXPECT_TRUE(std::isfinite(static_cast<double>(y[l])));
    }
}

// ---------------------------------------------------------------------------
// f32 <-> f64 pack conversion (the mixed-precision staging primitives).
// ---------------------------------------------------------------------------

template <int W>
void narrow_widen_round_trip()
{
    // Lane values: exactly float-representable (must round-trip bit-exact
    // through narrow/widen) plus one that float must round (must match the
    // scalar static_cast rounding, lane for lane).
    std::vector<double> lo_v(W);
    std::vector<double> hi_v(W);
    for (int l = 0; l < W; ++l) {
        lo_v[static_cast<std::size_t>(l)] = -3.0 + 0.5 * l; // exact in float
        hi_v[static_cast<std::size_t>(l)] = 0.1 * (l + 1);  // rounds
    }
    const auto lo = simd<double, W>::load(lo_v.data());
    const auto hi = simd<double, W>::load(hi_v.data());
    const simd<float, 2 * W> f = simd_narrow(lo, hi);
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ(f[l], static_cast<float>(lo[l])) << "lane " << l;
        EXPECT_EQ(f[W + l], static_cast<float>(hi[l])) << "lane " << W + l;
    }
    const simd<double, W> back_lo = simd_widen_lo(f);
    const simd<double, W> back_hi = simd_widen_hi(f);
    for (int l = 0; l < W; ++l) {
        // Widening is exact, so the exact lanes round-trip bit-identically
        // and the rounded lanes equal the double of their float rounding.
        EXPECT_EQ(back_lo[l], lo[l]) << "lane " << l;
        EXPECT_EQ(back_hi[l],
                  static_cast<double>(static_cast<float>(hi[l])))
                << "lane " << l;
    }
}

TEST(SimdConvert, NarrowWidenRoundTripAllWidths)
{
    narrow_widen_round_trip<2>();
    narrow_widen_round_trip<4>();
    narrow_widen_round_trip<8>();
}

TEST(SimdConvert, FloatMaskedTailRoundTrip)
{
    // Partial load/store at the float pack widths the mixed pipeline uses
    // for its tail handling (W = 8 on AVX2, W = 16 on AVX-512).
    const auto tail_case = [](auto pack_tag, int live) {
        using Pack = decltype(pack_tag);
        constexpr int W = Pack::width;
        std::vector<float> src(W);
        for (int l = 0; l < W; ++l) {
            src[l] = 1.5f * static_cast<float>(l + 1);
        }
        const Pack x = Pack::load_partial(src.data(), 1, live);
        for (int l = 0; l < W; ++l) {
            EXPECT_EQ(x[l], l < live ? src[l] : 0.0f) << "lane " << l;
        }
        std::vector<float> out(W, -7.0f);
        x.store_partial(out.data(), 1, live);
        for (int l = 0; l < W; ++l) {
            EXPECT_EQ(out[l], l < live ? src[l] : -7.0f) << "lane " << l;
        }
    };
    for (int live = 1; live < 8; ++live) {
        tail_case(simd<float, 8>{}, live);
    }
    for (int live : {1, 7, 8, 9, 15}) {
        tail_case(simd<float, 16>{}, live);
    }
}

TEST(SimdMask, PrefixMaskSelectAndWhere)
{
    constexpr int W = 4;
    const auto k = simd_mask<double, W>::first(2);
    EXPECT_EQ(k.count(), 2);
    EXPECT_TRUE(k[0] && k[1]);
    EXPECT_FALSE(k[2] || k[3]);
    EXPECT_EQ((simd_mask<double, W>::all().count()), W);

    const simd<double, W> a(1.0);
    const simd<double, W> b(9.0);
    const auto sel = select(k, a, b);
    EXPECT_EQ(sel[0], 1.0);
    EXPECT_EQ(sel[1], 1.0);
    EXPECT_EQ(sel[2], 9.0);
    EXPECT_EQ(sel[3], 9.0);

    simd<double, W> x(2.0);
    where(k, x) += simd<double, W>(10.0);
    EXPECT_EQ(x[0], 12.0);
    EXPECT_EQ(x[1], 12.0);
    EXPECT_EQ(x[2], 2.0);
    EXPECT_EQ(x[3], 2.0);
    where(k, x) = simd<double, W>(-1.0);
    EXPECT_EQ(x[0], -1.0);
    EXPECT_EQ(x[3], 2.0);
}

TEST(SimdTraits, WidthAndDetection)
{
    EXPECT_TRUE((is_simd_v<simd<double, 4>>));
    EXPECT_FALSE(is_simd_v<double>);
    EXPECT_EQ((simd_width_v<simd<double, 8>>), 8);
    EXPECT_EQ(simd_width_v<double>, 1);
    EXPECT_GE(simd_preferred_width<double>, 1);
    EXPECT_GE(simd_native_bits, 64);
}

// ---------------------------------------------------------------------------
// View <-> pack glue on both layouts.
// ---------------------------------------------------------------------------

template <class Layout>
void roundtrip_lanes()
{
    constexpr int W = 4;
    View<double, 2, Layout> v("v", 3, 10);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 10; ++j) {
            v(i, j) = 100.0 * static_cast<double>(i) + static_cast<double>(j);
        }
    }
    // Full pack and tail pack, load and store back shifted by +1000.
    for (const auto& [j0, lanes] : {std::pair<std::size_t, int>{4, W},
                                    std::pair<std::size_t, int>{8, 2}}) {
        for (std::size_t i = 0; i < 3; ++i) {
            auto x = simd_load_lanes<W>(v, i, j0, lanes);
            for (int l = 0; l < lanes; ++l) {
                EXPECT_EQ(x[l], v(i, j0 + static_cast<std::size_t>(l)));
            }
            simd_store_lanes<W>(x + 1000.0, v, i, j0, lanes);
        }
    }
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 10; ++j) {
            const double base =
                    100.0 * static_cast<double>(i) + static_cast<double>(j);
            EXPECT_EQ(v(i, j), j >= 4 ? base + 1000.0 : base);
        }
    }
}

TEST(SimdView, LanesRoundTripLayoutRight)
{
    roundtrip_lanes<LayoutRight>(); // batch contiguous: vector moves
}

TEST(SimdView, LanesRoundTripLayoutLeft)
{
    roundtrip_lanes<LayoutLeft>(); // batch strided: gather/scatter
}

TEST(ForEachBatchSimd, CoversEveryIndexOnceWithCorrectTails)
{
    constexpr int W = 4;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{4}, std::size_t{5},
                                    std::size_t{17}}) {
        View1D<int> touched("touched", batch);
        for_each_batch_simd<W>("test_chunks", batch,
                               [=](const BatchChunk<W>& c) {
                                   EXPECT_EQ(c.full(), c.lanes == W);
                                   EXPECT_EQ(c.begin % W, 0u);
                                   for (int l = 0; l < c.lanes; ++l) {
                                       touched(c.begin
                                               + static_cast<std::size_t>(l))
                                               += 1;
                                   }
                               });
        for (std::size_t j = 0; j < batch; ++j) {
            EXPECT_EQ(touched(j), 1) << "batch=" << batch << " j=" << j;
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end: SIMD builder and evaluator vs the scalar paths, at the batch
// sizes that stress chunking (1, W-1, W, W+1) and a large one.
// ---------------------------------------------------------------------------

double test_function(double x)
{
    return std::sin(2.0 * std::numbers::pi * x)
           + 0.5 * std::cos(4.0 * std::numbers::pi * x + 0.3);
}

View2D<double> sample_block(const BSplineBasis& basis, std::size_t batch)
{
    const auto pts = basis.interpolation_points();
    const std::size_t n = basis.nbasis();
    View2D<double> b("b", n, batch);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            b(i, j) = test_function(pts[i] + 0.01 * static_cast<double>(j));
        }
    }
    return b;
}

class SimdSolveParam
    : public ::testing::TestWithParam<std::tuple<int, bool, std::size_t>>
{
};

TEST_P(SimdSolveParam, BuilderMatchesScalarWithin4Ulp)
{
    const auto [degree, uniform, batch] = GetParam();
    const std::size_t ncells = 40;
    const auto basis =
            uniform ? BSplineBasis::uniform(degree, ncells, 0.0, 1.0)
                    : BSplineBasis::non_uniform(
                              degree, bsplines::stretched_breaks(ncells, 0.0,
                                                                 1.0, 0.4));
    const auto values = sample_block(basis, batch);

    // Scalar references per kernel chain: the gemv and spmv chains sum the
    // corner contributions in different orders, so each SIMD variant is
    // compared against the scalar version of *its own* chain (where the
    // lane-wise operations are identical and in identical order).
    // Both references run the FP64 chain whatever PSPL_PRECISION says.
    SplineBuilder scalar_builder(basis, BuilderVersion::Fused);
    scalar_builder.set_precision(core::Precision::Double);
    auto ref_gemv = clone(values);
    scalar_builder.build_inplace(ref_gemv);
    SplineBuilder spmv_builder(basis, BuilderVersion::FusedSpmv);
    spmv_builder.set_precision(core::Precision::Double);
    auto ref_spmv = clone(values);
    spmv_builder.build_inplace(ref_spmv);

    const auto& s = scalar_builder.solver().device_data();
    for (const int w : {2, 4, 8}) {
        for (const bool use_spmv : {false, true}) {
            const auto& ref = use_spmv ? ref_spmv : ref_gemv;
            auto out = clone(values);
            switch (w) {
            case 2:
                core::schur_solve_batched_simd<2>(s, out, use_spmv);
                break;
            case 4:
                core::schur_solve_batched_simd<4>(s, out, use_spmv);
                break;
            default:
                core::schur_solve_batched_simd<8>(s, out, use_spmv);
                break;
            }
            for (std::size_t i = 0; i < basis.nbasis(); ++i) {
                for (std::size_t j = 0; j < batch; ++j) {
                    EXPECT_LE(ulp_distance(out(i, j), ref(i, j)), 4u)
                            << "W=" << w << " spmv=" << use_spmv << " i=" << i
                            << " j=" << j << " ref=" << ref(i, j)
                            << " out=" << out(i, j);
                }
            }
        }
    }
}

TEST_P(SimdSolveParam, EvaluatorMatchesScalarWithin4Ulp)
{
    const auto [degree, uniform, batch] = GetParam();
    const std::size_t ncells = 40;
    const auto basis =
            uniform ? BSplineBasis::uniform(degree, ncells, 0.0, 1.0)
                    : BSplineBasis::non_uniform(
                              degree, bsplines::stretched_breaks(ncells, 0.0,
                                                                 1.0, 0.4));
    SplineBuilder builder(basis);
    auto coeffs = sample_block(basis, batch);
    builder.build_inplace(coeffs);

    const std::size_t npts = 33;
    View1D<double> points("points", npts);
    for (std::size_t p = 0; p < npts; ++p) {
        points(p) = static_cast<double>(p) / static_cast<double>(npts) + 0.011;
    }

    SplineEvaluator scalar_eval(basis, core::EvaluatorVersion::Scalar);
    View2D<double> ref("ref", npts, batch);
    scalar_eval.evaluate_batched(points, coeffs, ref);

    SplineEvaluator simd_eval(basis, core::EvaluatorVersion::Simd);
    EXPECT_EQ(simd_eval.version(), core::EvaluatorVersion::Simd);
    View2D<double> out("out", npts, batch);
    simd_eval.evaluate_batched(points, coeffs, out);
    for (std::size_t p = 0; p < npts; ++p) {
        for (std::size_t j = 0; j < batch; ++j) {
            EXPECT_LE(ulp_distance(out(p, j), ref(p, j)), 4u)
                    << "p=" << p << " j=" << j;
        }
    }

    // The explicit-width entry points must agree too, including widths
    // wider and narrower than the native one.
    for (const int w : {2, 4, 8}) {
        View2D<double> outw("outw", npts, batch);
        switch (w) {
        case 2:
            simd_eval.evaluate_batched_simd<2>(points, coeffs, outw);
            break;
        case 4:
            simd_eval.evaluate_batched_simd<4>(points, coeffs, outw);
            break;
        default:
            simd_eval.evaluate_batched_simd<8>(points, coeffs, outw);
            break;
        }
        for (std::size_t p = 0; p < npts; ++p) {
            for (std::size_t j = 0; j < batch; ++j) {
                EXPECT_LE(ulp_distance(outw(p, j), ref(p, j)), 4u)
                        << "W=" << w << " p=" << p << " j=" << j;
            }
        }
    }
}

// Batch sizes chosen around the widest pack (W = 8): 1, W-1, W, W+1, 1000.
INSTANTIATE_TEST_SUITE_P(
        Batches, SimdSolveParam,
        ::testing::Combine(::testing::Values(3, 4, 5), ::testing::Bool(),
                           ::testing::Values(std::size_t{1}, std::size_t{7},
                                             std::size_t{8}, std::size_t{9},
                                             std::size_t{1000})),
        [](const auto& info) {
            const int d = std::get<0>(info.param);
            const bool u = std::get<1>(info.param);
            const std::size_t b = std::get<2>(info.param);
            return "deg" + std::to_string(d)
                   + (u ? "_uniform_batch" : "_nonuniform_batch")
                   + std::to_string(b);
        });

} // namespace

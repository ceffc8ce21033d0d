// Tests for the mixed-precision refinement driver (core/refinement.hpp):
// accuracy of the Mixed pipeline against the FP64 ladder, the Single
// fast path, the refinement-stall -> FP64 fallback (exercised by poisoning
// the FP32 factors), precision policy parsing, and tile-width behaviour.
#include "bsplines/basis.hpp"
#include "core/batched_solve.hpp"
#include "core/precision.hpp"
#include "core/refinement.hpp"
#include "core/spline_builder.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/subview.hpp"
#include "parallel/tiling.hpp"
#include "parallel/view.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace {

using namespace pspl;
using core::Precision;
using core::RefinementOptions;
using core::RefinementStats;
using core::SplineBuilder;

constexpr std::size_t kCells = 64;
// Not a multiple of the 64-column strip width: exercises partial strips
// and masked pack tails alongside full super-pack strips.
constexpr std::size_t kBatch = 300;

struct Problem {
    bsplines::BSplineBasis basis;
    SplineBuilder builder;
    View2D<double> b;
    View2D<double> oracle;

    Problem()
        : basis(bsplines::BSplineBasis::uniform(3, kCells, 0.0, 1.0)),
          builder(basis, core::BuilderVersion::FusedSpmvSimd),
          b("b", basis.nbasis(), kBatch),
          oracle("oracle", basis.nbasis(), kBatch)
    {
        for (std::size_t i = 0; i < b.extent(0); ++i) {
            for (std::size_t j = 0; j < kBatch; ++j) {
                const double s = static_cast<double>(i)
                                 / static_cast<double>(b.extent(0));
                b(i, j) = std::sin(6.28318530717958648 * s * (1.0 + 0.01 * j))
                          + 1e-3 * static_cast<double>(j);
            }
        }
        for (std::size_t i = 0; i < b.extent(0); ++i) {
            for (std::size_t j = 0; j < kBatch; ++j) {
                oracle(i, j) = b(i, j);
            }
        }
        constexpr int w = simd_preferred_width<double>;
        core::schur_solve_batched_simd<w>(builder.solver().device_data(),
                                          oracle, /*use_spmv=*/true,
                                          TilePolicy::automatic());
    }

    double rel_err(const View2D<double>& x) const
    {
        double num = 0.0;
        double den = 0.0;
        for (std::size_t i = 0; i < x.extent(0); ++i) {
            for (std::size_t j = 0; j < x.extent(1); ++j) {
                num = std::max(num, std::fabs(x(i, j) - oracle(i, j)));
                den = std::max(den, std::fabs(oracle(i, j)));
            }
        }
        return den > 0.0 ? num / den : num;
    }
};

TEST(Refinement, MixedRestoresFp64Accuracy)
{
    Problem p;
    View2D<double> x("x", p.b.extent(0), kBatch);
    const RefinementStats stats = core::solve_refined_batched(
            p.builder.solver(), p.b, x, Precision::Mixed);
    EXPECT_LE(p.rel_err(x), 1e-11);
    EXPECT_LE(stats.refine_iters, 3);
    EXPECT_EQ(stats.fallback_tiles, 0u);
    EXPECT_GT(stats.tiles, 0u);
}

TEST(Refinement, MixedFromFloatSourceRestoresItsOwnOracle)
{
    // FP32 input: the refined solution must match the FP64 solve of the
    // *narrowed* RHS (that is the system actually posed).
    Problem p;
    View2D<float> b32("b32", p.b.extent(0), kBatch);
    View2D<double> widened("widened", p.b.extent(0), kBatch);
    for (std::size_t i = 0; i < p.b.extent(0); ++i) {
        for (std::size_t j = 0; j < kBatch; ++j) {
            b32(i, j) = static_cast<float>(p.b(i, j));
            widened(i, j) = static_cast<double>(b32(i, j));
        }
    }
    constexpr int w = simd_preferred_width<double>;
    core::schur_solve_batched_simd<w>(p.builder.solver().device_data(),
                                      widened, true,
                                      TilePolicy::automatic());
    View2D<double> x("x", p.b.extent(0), kBatch);
    const RefinementStats stats = core::solve_refined_batched(
            p.builder.solver(), b32, x, Precision::Mixed);
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < x.extent(0); ++i) {
        for (std::size_t j = 0; j < kBatch; ++j) {
            num = std::max(num, std::fabs(x(i, j) - widened(i, j)));
            den = std::max(den, std::fabs(widened(i, j)));
        }
    }
    EXPECT_LE(num / den, 1e-11);
    EXPECT_LE(stats.refine_iters, 3);
}

TEST(Refinement, SinglePathIsFp32Accurate)
{
    Problem p;
    View2D<double> x("x", p.b.extent(0), kBatch);
    const RefinementStats stats = core::solve_refined_batched(
            p.builder.solver(), p.b, x, Precision::Single);
    const double err = p.rel_err(x);
    EXPECT_LE(err, 1e-4);  // FP32 working accuracy
    EXPECT_GT(err, 1e-13); // and genuinely not the FP64 path
    EXPECT_EQ(stats.refine_iters, 0);
}

TEST(Refinement, PoisonedFloatFactorsFallBackToFp64)
{
    // Corrupt the FP32 factors so the FP32 solve is garbage: refinement
    // cannot contract, the stall detector must trip, and every tile must
    // re-solve on the FP64 ladder. The fallback strips run the same column
    // chain as the FP64 ladder, so the output is the ladder's, bit for
    // bit, at every tile width (full, partial and tail strips).
    Problem p;
    const core::SchurFloatFactors& sf = p.builder.solver().float_factors();
    ASSERT_GT(sf.pt_dinv.size(), 0u); // periodic cubic -> PTTRS factors
    for (std::size_t i = 0; i < sf.pt_dinv.size(); ++i) {
        sf.pt_dinv(i) = sf.pt_dinv(i) * 32.0f + 7.0f;
    }
    for (const TilePolicy& policy :
         {TilePolicy::from_env(), TilePolicy::explicit_width(64),
          TilePolicy::explicit_width(96), TilePolicy::explicit_width(40)}) {
        View2D<double> x("x", p.b.extent(0), kBatch);
        const RefinementStats stats = core::solve_refined_batched(
                p.builder.solver(), p.b, x, Precision::Mixed, {}, policy);
        EXPECT_GT(stats.tiles, 0u) << policy.describe();
        EXPECT_EQ(stats.fallback_tiles, stats.tiles) << policy.describe();
        for (std::size_t i = 0; i < x.extent(0); ++i) {
            for (std::size_t j = 0; j < kBatch; ++j) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(x(i, j)),
                          std::bit_cast<std::uint64_t>(p.oracle(i, j)))
                        << "tile " << policy.describe() << " i=" << i
                        << " j=" << j;
            }
        }
    }
}

TEST(Refinement, ExplicitTileWidthsAgree)
{
    // One strip, a partial strip, and wider-than-batch: every explicit
    // width must produce the same FP64-accurate answer, with the expected
    // tile count.
    Problem p;
    for (const std::size_t tc : {std::size_t{64}, std::size_t{96},
                                 std::size_t{512}}) {
        View2D<double> x("x", p.b.extent(0), kBatch);
        const RefinementStats stats = core::solve_refined_batched(
                p.builder.solver(), p.b, x, Precision::Mixed, {},
                TilePolicy::explicit_width(tc));
        EXPECT_LE(p.rel_err(x), 1e-11) << "tile " << tc;
        EXPECT_EQ(stats.tiles, (kBatch + tc - 1) / tc) << "tile " << tc;
    }
}

TEST(Refinement, SingleOffTilePolicyKeepsTheL2Width)
{
    // Off means "untiled" only for the FP64 builder: the FP32 pipeline
    // must stage, so it keeps the L2 width instead of one-pack tiles.
    Problem p;
    SplineBuilder builder(p.basis, core::BuilderVersion::FusedSpmvSimd);
    builder.set_precision(Precision::Single);
    std::size_t tiles[2] = {0, 0};
    const TilePolicy policies[2] = {TilePolicy::automatic(),
                                    TilePolicy::off()};
    for (int i = 0; i < 2; ++i) {
        View2D<double> x("x", p.b.extent(0), kBatch);
        deep_copy(x, p.b);
        builder.set_tile_policy(policies[i]);
        builder.build_inplace(x);
        tiles[i] = builder.last_refinement_stats().tiles;
    }
    // The FP32 pipeline's pack is 2W columns; one-pack tiles would need
    // this many tiles.
    constexpr std::size_t pack = 2 * simd_preferred_width<double>;
    EXPECT_LT(tiles[0], (kBatch + pack - 1) / pack);
    EXPECT_EQ(tiles[1], tiles[0]);
}

TEST(Refinement, TightTargetStaysWithinIterationBudget)
{
    Problem p;
    RefinementOptions opt;
    opt.rel_residual_target = 1e-14;
    opt.max_iters = 3;
    View2D<double> x("x", p.b.extent(0), kBatch);
    const RefinementStats stats = core::solve_refined_batched(
            p.builder.solver(), p.b, x, Precision::Mixed, opt);
    EXPECT_LE(stats.refine_iters, 3);
    EXPECT_LE(p.rel_err(x), 1e-11);
}

// The reduced-precision scatter writes whole rows with streaming stores
// only into a row-contiguous block; a batch-strided block (LayoutLeft, or a
// transposed view of row-major storage) must receive the same coefficients
// as the LayoutRight build, bitwise. Batch 37 leaves a partial pack tail.
TEST(Refinement, BatchStridedBlocksMatchLayoutRightBitwise)
{
    constexpr std::size_t batch = 37;
    for (const Precision prec : {Precision::Single, Precision::Mixed}) {
        for (const int degree : {3, 5}) {
            const auto basis =
                    bsplines::BSplineBasis::uniform(degree, 64, 0.0, 1.0);
            const std::size_t n = basis.nbasis();
            SplineBuilder builder(basis);
            builder.set_precision(prec);
            View2D<double> right("right", n, batch);
            View<double, 2, LayoutLeft> left("left", n, batch);
            View2D<double> storage("storage", batch, n);
            const auto transposed = transposed_view(storage);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < batch; ++j) {
                    const double v =
                            std::sin(0.2 * static_cast<double>(i)
                                     + 0.05 * static_cast<double>(j));
                    right(i, j) = v;
                    left(i, j) = v;
                    transposed(i, j) = v;
                }
            }
            builder.build_inplace(right);
            builder.build_inplace(left);
            builder.build_inplace(transposed);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < batch; ++j) {
                    ASSERT_EQ(left(i, j), right(i, j))
                            << core::to_string(prec) << " deg" << degree
                            << " LayoutLeft (" << i << ", " << j << ")";
                    ASSERT_EQ(transposed(i, j), right(i, j))
                            << core::to_string(prec) << " deg" << degree
                            << " transposed view (" << i << ", " << j << ")";
                }
            }
        }
    }
}

TEST(Precision, ParseSpellings)
{
    using core::parse_precision;
    EXPECT_EQ(parse_precision("double"), Precision::Double);
    EXPECT_EQ(parse_precision("Double"), Precision::Double);
    EXPECT_EQ(parse_precision("single"), Precision::Single);
    EXPECT_EQ(parse_precision("FLOAT"), Precision::Single);
    EXPECT_EQ(parse_precision("fp32"), Precision::Single);
    EXPECT_EQ(parse_precision("mixed"), Precision::Mixed);
    EXPECT_EQ(parse_precision("MiXeD"), Precision::Mixed);
    // Unrecognized input must never silently degrade accuracy.
    EXPECT_EQ(parse_precision(""), Precision::Double);
    EXPECT_EQ(parse_precision("half"), Precision::Double);
    EXPECT_EQ(core::to_string(Precision::Mixed), std::string("mixed"));
}

TEST(Precision, BuilderPlumbing)
{
    Problem p;
    EXPECT_EQ(p.builder.precision(), core::precision_from_env());
    p.builder.set_precision(Precision::Mixed);
    EXPECT_EQ(p.builder.precision(), Precision::Mixed);
    p.builder.set_precision(Precision::Double);
    EXPECT_EQ(p.builder.precision(), Precision::Double);
}

} // namespace

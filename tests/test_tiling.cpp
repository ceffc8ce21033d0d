// Tile-resident batch pipeline tests: the TilePolicy cache model and its
// PSPL_TILE override, exact index coverage of the tile scheduler (tail
// tiles, tile >= batch, batch = 1), bitwise identity of the tiled solve
// against the untiled dispatch across degrees / grids / tile and pack
// widths, thread-count independence of the results, workspace-arena reuse
// semantics and -- under PSPL_CHECK -- the stale-slot-pointer death test.
#include "scoped_env.hpp"

#include "core/spline_builder.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel.hpp"
#include "parallel/tiling.hpp"
#include "parallel/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <vector>

#if defined(PSPL_ENABLE_OPENMP)
#include <omp.h>
#endif

namespace {

using pspl::BatchTile;
using pspl::TilePolicy;
using pspl::View2D;
using pspl::WorkspaceArena;
using pspl::core::BuilderVersion;
using pspl::core::SplineBuilder;
using pspl::test::ScopedEnv;

// ---------------------------------------------------------------------------
// TilePolicy: cache model and environment override
// ---------------------------------------------------------------------------

TEST(TilePolicy, EnvUnsetOrAutoSelectsCacheModel)
{
    {
        ScopedEnv env("PSPL_TILE", nullptr);
        EXPECT_EQ(TilePolicy::from_env().mode, TilePolicy::Mode::Auto);
    }
    {
        ScopedEnv env("PSPL_TILE", "auto");
        EXPECT_EQ(TilePolicy::from_env().mode, TilePolicy::Mode::Auto);
    }
    {
        ScopedEnv env("PSPL_TILE", "");
        EXPECT_EQ(TilePolicy::from_env().mode, TilePolicy::Mode::Auto);
    }
}

TEST(TilePolicy, EnvOffOrZeroDisablesTiling)
{
    for (const char* v : {"off", "0"}) {
        ScopedEnv env("PSPL_TILE", v);
        const TilePolicy p = TilePolicy::from_env();
        EXPECT_EQ(p.mode, TilePolicy::Mode::Off) << v;
        EXPECT_TRUE(p.streams(1000 * sizeof(double), 4096)) << v;
    }
}

TEST(TilePolicy, EnvPositiveIntegerIsExplicitWidth)
{
    {
        ScopedEnv env("PSPL_TILE", "96");
        const TilePolicy p = TilePolicy::from_env();
        EXPECT_EQ(p.mode, TilePolicy::Mode::Explicit);
        EXPECT_EQ(p.tile, 96u);
        EXPECT_EQ(p.describe(), "96");
    }
    {
        // Out of range: the width is clamped to the cap before rounding.
        ScopedEnv env("PSPL_TILE", "99999999999999999999999");
        const TilePolicy p = TilePolicy::from_env();
        EXPECT_EQ(p.mode, TilePolicy::Mode::Explicit);
        EXPECT_EQ(p.tile_cols(8000, 100000, 8, 0), 4096u);
    }
}

TEST(TilePolicy, EnvGarbageFallsBackToAuto)
{
    for (const char* v : {"banana", "1e3", "128k", "12abc", "-5"}) {
        ScopedEnv env("PSPL_TILE", v);
        EXPECT_EQ(TilePolicy::from_env().mode, TilePolicy::Mode::Auto) << v;
    }
}

TEST(TilePolicy, ExplicitWidthRoundsUpToPackMultiple)
{
    const TilePolicy p = TilePolicy::explicit_width(13);
    const std::size_t col_bytes = 1000 * sizeof(double); // builder: n doubles
    EXPECT_EQ(p.tile_cols(col_bytes, 4096, 8, 0), 16u);
    EXPECT_EQ(p.tile_cols(col_bytes, 4096, 4, 0), 16u);
    EXPECT_EQ(p.tile_cols(col_bytes, 4096, 1, 0), 13u);
    // Requests below one pack are raised to a full pack.
    EXPECT_EQ(TilePolicy::explicit_width(1).tile_cols(8000, 4096, 8, 0), 8u);
    // The 4096-column cap holds however large the request.
    EXPECT_EQ(TilePolicy::explicit_width(SIZE_MAX).tile_cols(8000, 100000,
                                                             8, 0),
              4096u);
}

TEST(TilePolicy, AutoModelIsPackMultipleAndShrinksWithRowCount)
{
    const TilePolicy p = TilePolicy::automatic();
    std::size_t prev = 0;
    for (const std::size_t rows : {16384u, 4096u, 1024u, 256u}) {
        const std::size_t w = p.tile_cols(rows * sizeof(double), 256, 8, 0);
        EXPECT_GE(w, 8u) << rows;
        EXPECT_EQ(w % 8, 0u) << rows;
        // Fewer rows per column -> more columns fit in L2.
        EXPECT_GE(w, prev) << rows;
        prev = w;
    }
    // The model stages about half of L2.
    const std::size_t rows = 1000;
    const std::size_t w = p.tile_cols(rows * sizeof(double), 256, 8, 0);
    EXPECT_LE(w * rows * sizeof(double), pspl::l2_cache_bytes());
}

TEST(TilePolicy, AutoStreamingGuardFallsBackToUntiledBeyondL3)
{
    const TilePolicy p = TilePolicy::automatic();
    const std::size_t col_bytes = 1000 * sizeof(double);
    // Largest batch whose whole (rows, batch) block still fits in L3.
    const std::size_t fit = pspl::l3_cache_bytes() / col_bytes;
    EXPECT_FALSE(p.streams(col_bytes, fit));
    // One column past the last-level cache: the fused chain streams from
    // DRAM either way, so auto runs untiled instead of paying the staging
    // copies.
    EXPECT_TRUE(p.streams(col_bytes, fit + 1));
    // Explicit requests are always honored (ablations need to measure the
    // streaming regime too).
    const TilePolicy e = TilePolicy::explicit_width(128);
    EXPECT_FALSE(e.streams(col_bytes, 2 * fit));
    EXPECT_EQ(e.tile_cols(col_bytes, 2 * fit, 8, 0), 128u);
}

TEST(TilePolicy, AutoModelCarvesOutFixedSet)
{
    const TilePolicy p = TilePolicy::automatic();
    const std::size_t rows = 1000;
    const std::size_t npts = 1000;
    const std::size_t col_bytes = (rows + npts) * sizeof(double);
    const std::size_t l2 = pspl::l2_cache_bytes();

    // Pack multiple, at least one pack, and the two strips of the
    // advection plan (rows + npts doubles per column) fit half of L2.
    const std::size_t w = p.tile_cols(col_bytes, 100000, 8, 0);
    EXPECT_GE(w, 8u);
    EXPECT_EQ(w % 8, 0u);
    EXPECT_LE(w * col_bytes, l2 / 2);

    // A larger fixed working set (Schur factors + points) can only shrink
    // the strip tile, and the quarter-L2 carve cap keeps even absurd
    // factor footprints from starving it below one pack.
    const std::size_t w_fixed = p.tile_cols(col_bytes, 100000, 8, l2 / 8);
    EXPECT_LE(w_fixed, w);
    EXPECT_GE(p.tile_cols(col_bytes, 100000, 8, 16 * l2), 8u);
    // Exactly: the carve-out is half the fixed set, the set capped at L2/4.
    const auto model = [&](std::size_t carve) {
        return std::max<std::size_t>(
                8, (l2 / 2 - carve / 2) / col_bytes / 8 * 8);
    };
    EXPECT_EQ(w_fixed, model(l2 / 8));
    EXPECT_EQ(p.tile_cols(col_bytes, 100000, 8, 16 * l2), model(l2 / 4));

    // The rule has no streaming guard: batches way past L3 still get a
    // nonzero width (a pipeline that must stage never asks streams()).
    EXPECT_GT(p.tile_cols(col_bytes, 1u << 24, 8, 0), 0u);
}

TEST(TilePolicy, FusedAdvectModelRoundsAndClamps)
{
    // The advection plan stages n + npts doubles per column.
    const std::size_t col_bytes = (1000 + 1000) * sizeof(double);
    // Explicit requests round up to a pack multiple.
    EXPECT_EQ(TilePolicy::explicit_width(13).tile_cols(col_bytes, 100000, 8,
                                                       0),
              16u);
    EXPECT_EQ(TilePolicy::explicit_width(13).tile_cols(col_bytes, 100000, 1,
                                                       0),
              13u);
    // The tile never exceeds the batch rounded up to a whole pack...
    EXPECT_EQ(TilePolicy::explicit_width(4096).tile_cols(col_bytes, 37, 8, 0),
              40u);
    // ...and tiny strips are still bounded by the staging cap.
    const std::size_t cap_w = TilePolicy::automatic().tile_cols(
            (1 + 1) * sizeof(double), 1u << 24, 8, 0);
    EXPECT_LE(cap_w, 4096u);
    EXPECT_EQ(cap_w % 8, 0u);
}

// ---------------------------------------------------------------------------
// for_each_batch_tile: exact index coverage
// ---------------------------------------------------------------------------

/// Runs the scheduler serially and asserts every batch index is visited
/// exactly once, tiles are ordered, and widths match the request.
void expect_exact_coverage(std::size_t batch, std::size_t tile)
{
    std::vector<int> hits(batch, 0);
    std::vector<BatchTile> tiles;
    pspl::for_each_batch_tile(
            "test_tile_coverage", pspl::RangePolicy<pspl::Serial>(batch),
            tile, [&](const BatchTile& t) {
                tiles.push_back(t);
                for (std::size_t j = t.begin; j < t.end; ++j) {
                    hits[j] += 1;
                }
            });
    for (std::size_t j = 0; j < batch; ++j) {
        ASSERT_EQ(hits[j], 1) << "batch index " << j << " (batch=" << batch
                              << ", tile=" << tile << ")";
    }
    ASSERT_EQ(tiles.size(), (batch + tile - 1) / tile);
    for (const BatchTile& t : tiles) {
        EXPECT_EQ(t.begin, t.index * tile);
        const bool last = t.index + 1 == tiles.size();
        EXPECT_EQ(t.cols(), last ? batch - t.begin : tile);
    }
}

TEST(BatchTileScheduler, CoversEveryIndexOnce)
{
    expect_exact_coverage(/*batch=*/4096, /*tile=*/128);
    expect_exact_coverage(/*batch=*/1000, /*tile=*/96); // ragged tail
}

TEST(BatchTileScheduler, TailTileNarrowerThanPackWidth)
{
    // 37 = 4 * 8 + 5: the last tile has 5 columns, narrower than a W=8
    // pack -- the masked-lane path in the staged gather/scatter.
    expect_exact_coverage(/*batch=*/37, /*tile=*/8);
}

TEST(BatchTileScheduler, TileAtLeastBatchYieldsSingleTile)
{
    expect_exact_coverage(/*batch=*/64, /*tile=*/64);
    expect_exact_coverage(/*batch=*/64, /*tile=*/4096);
}

TEST(BatchTileScheduler, SingleColumnBatch)
{
    expect_exact_coverage(/*batch=*/1, /*tile=*/128);
    expect_exact_coverage(/*batch=*/1, /*tile=*/1);
}

// ---------------------------------------------------------------------------
// Bitwise identity: tiled solve == untiled solve
// ---------------------------------------------------------------------------

pspl::bsplines::BSplineBasis make_basis(int degree, bool uniform,
                                        std::size_t ncells)
{
    if (uniform) {
        return pspl::bsplines::BSplineBasis::uniform(degree, ncells, 0.0,
                                                     1.0);
    }
    std::vector<double> breaks(ncells + 1);
    for (std::size_t i = 0; i <= ncells; ++i) {
        const double u = static_cast<double>(i) / static_cast<double>(ncells);
        breaks[i] = u * u * (3.0 - 2.0 * u); // smoothstep stretching
    }
    return pspl::bsplines::BSplineBasis::non_uniform(degree, breaks);
}

void fill(const pspl::bsplines::BSplineBasis& basis, const View2D<double>& b)
{
    const auto pts = basis.interpolation_points();
    for (std::size_t i = 0; i < b.extent(0); ++i) {
        for (std::size_t j = 0; j < b.extent(1); ++j) {
            b(i, j) = std::sin(6.2831853071795865 * pts[i])
                      + 0.3 * std::cos(23.0 * pts[i] + 0.7)
                      + 1e-3 * static_cast<double>((i * 131 + j * 17) % 101);
        }
    }
}

/// Bitwise comparison (memcmp of the doubles): the tiled pipeline promises
/// identity, not closeness.
void expect_bitwise_equal(const View2D<double>& a, const View2D<double>& b)
{
    ASSERT_EQ(a.extent(0), b.extent(0));
    ASSERT_EQ(a.extent(1), b.extent(1));
    for (std::size_t i = 0; i < a.extent(0); ++i) {
        ASSERT_EQ(0, std::memcmp(&a(i, 0), &b(i, 0),
                                 a.extent(1) * sizeof(double)))
                << "row " << i << " differs bitwise";
    }
}

void run_identity_case(int degree, bool uniform, std::size_t ncells,
                       std::size_t batch, BuilderVersion version,
                       const TilePolicy& policy)
{
    const auto basis = make_basis(degree, uniform, ncells);
    SplineBuilder builder(basis, version);
    const std::size_t n = basis.nbasis();

    View2D<double> untiled("untiled", n, batch);
    fill(basis, untiled);
    pspl::core::schur_solve_batched(builder.solver().device_data(), untiled,
                                    version, TilePolicy::off());

    View2D<double> tiled("tiled", n, batch);
    fill(basis, tiled);
    pspl::core::schur_solve_batched(builder.solver().device_data(), tiled,
                                    version, policy);

    expect_bitwise_equal(untiled, tiled);
}

TEST(TiledSolveIdentity, SimdAcrossTileWidthsAndDegrees)
{
    for (const int degree : {2, 3, 5}) {
        for (const std::size_t tile : {8u, 16u, 56u, 4096u}) {
            run_identity_case(degree, /*uniform=*/true, /*ncells=*/173,
                              /*batch=*/389, BuilderVersion::FusedSpmvSimd,
                              TilePolicy::explicit_width(tile));
        }
    }
}

TEST(TiledSolveIdentity, NonUniformGridAndGemvChain)
{
    run_identity_case(/*degree=*/3, /*uniform=*/false, /*ncells=*/97,
                      /*batch=*/211, BuilderVersion::FusedSimd,
                      TilePolicy::explicit_width(32));
    run_identity_case(/*degree=*/4, /*uniform=*/false, /*ncells=*/64,
                      /*batch=*/130, BuilderVersion::FusedSpmvSimd,
                      TilePolicy::automatic());
}

TEST(TiledSolveIdentity, ScalarChainsAreTiledIdentically)
{
    for (const auto version :
         {BuilderVersion::Fused, BuilderVersion::FusedSpmv}) {
        run_identity_case(/*degree=*/3, /*uniform=*/true, /*ncells=*/120,
                          /*batch=*/77, version,
                          TilePolicy::explicit_width(16));
    }
}

TEST(TiledSolveIdentity, BatchOfOneAndBatchBelowPackWidth)
{
    for (const std::size_t batch : {1u, 5u}) {
        run_identity_case(/*degree=*/3, /*uniform=*/true, /*ncells=*/50,
                          batch, BuilderVersion::FusedSpmvSimd,
                          TilePolicy::explicit_width(128));
    }
}

TEST(TiledSolveIdentity, BuilderHonorsTilePolicyOverride)
{
    const auto basis = make_basis(3, true, 150);
    const std::size_t n = basis.nbasis();
    constexpr std::size_t batch = 333;

    SplineBuilder untiled_builder(basis, BuilderVersion::FusedSpmvSimd);
    untiled_builder.set_tile_policy(TilePolicy::off());
    View2D<double> a("a", n, batch);
    fill(basis, a);
    untiled_builder.build_inplace(a);

    SplineBuilder tiled_builder(basis, BuilderVersion::FusedSpmvSimd);
    tiled_builder.set_tile_policy(TilePolicy::explicit_width(64));
    View2D<double> b("b", n, batch);
    fill(basis, b);
    tiled_builder.build_inplace(b);

    expect_bitwise_equal(a, b);
}

#if defined(PSPL_ENABLE_OPENMP)
TEST(TiledSolveIdentity, ThreadCountDoesNotChangeBits)
{
    const auto basis = make_basis(3, true, 200);
    SplineBuilder builder(basis, BuilderVersion::FusedSpmvSimd);
    const std::size_t n = basis.nbasis();
    constexpr std::size_t batch = 1031; // prime: ragged tiles and tails

    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    View2D<double> one("one_thread", n, batch);
    fill(basis, one);
    pspl::core::schur_solve_batched_simd<8>(builder.solver().device_data(),
                                            one, /*use_spmv=*/true,
                                            TilePolicy::explicit_width(64));

    omp_set_num_threads(8);
    View2D<double> eight("eight_threads", n, batch);
    fill(basis, eight);
    pspl::core::schur_solve_batched_simd<8>(builder.solver().device_data(),
                                            eight, /*use_spmv=*/true,
                                            TilePolicy::explicit_width(64));
    omp_set_num_threads(saved);

    expect_bitwise_equal(one, eight);
}
#endif

// ---------------------------------------------------------------------------
// WorkspaceArena: reuse, growth, generations
// ---------------------------------------------------------------------------

TEST(WorkspaceArenaTest, ReserveIsGrowOnlyAndReuseKeepsGeneration)
{
    WorkspaceArena arena;
    EXPECT_EQ(arena.size_bytes(), 0u);

    arena.reserve(/*slots=*/4, /*bytes_per_slot=*/1000);
    const std::uint64_t gen = arena.generation();
    std::byte* base = arena.data();
    EXPECT_GE(arena.slot_stride_bytes(), 1000u);
    EXPECT_EQ(arena.slot_stride_bytes() % 128, 0u); // slot alignment
    EXPECT_EQ(arena.slots(), 4u);

    // Equal and smaller requests must not reallocate.
    arena.reserve(4, 1000);
    arena.reserve(2, 64);
    EXPECT_EQ(arena.generation(), gen);
    EXPECT_EQ(arena.data(), base);

    // Mixed-shape callers keep the maxima of both dimensions.
    arena.reserve(2, 5000);
    EXPECT_GE(arena.slot_stride_bytes(), 5000u);
    EXPECT_EQ(arena.slots(), 4u);
    EXPECT_GT(arena.generation(), gen);
}

TEST(WorkspaceArenaTest, SlotsAreDisjointAndWritable)
{
    WorkspaceArena arena;
    arena.reserve(3, 256 * sizeof(double));
    for (int rank = 0; rank < 3; ++rank) {
        double* s = arena.slot<double>(rank);
        for (int i = 0; i < 256; ++i) {
            s[i] = rank * 1000.0 + i;
        }
    }
    for (int rank = 0; rank < 3; ++rank) {
        const double* s = arena.slot<double>(rank);
        EXPECT_EQ(s[0], rank * 1000.0);
        EXPECT_EQ(s[255], rank * 1000.0 + 255);
    }
}

TEST(WorkspaceArenaTest, HostArenaIsPersistentAcrossCalls)
{
    WorkspaceArena& arena = pspl::host_workspace_arena();
    arena.reserve(1, 4096);
    const std::uint64_t gen = arena.generation();
    std::byte* base = arena.data();
    // A second solve-sized request of the same shape is free: same memory,
    // same generation, no allocation churn in steady state.
    for (int i = 0; i < 16; ++i) {
        pspl::host_workspace_arena().reserve(1, 4096);
    }
    EXPECT_EQ(pspl::host_workspace_arena().generation(), gen);
    EXPECT_EQ(pspl::host_workspace_arena().data(), base);
}

// ---------------------------------------------------------------------------
// NUMA first-touch Views
// ---------------------------------------------------------------------------

TEST(FirstTouchView, IsZeroInitializedLikeTheSerialPath)
{
    pspl::View1D<double> ft(pspl::FirstTouch, "ft_probe", 10000);
    for (std::size_t i = 0; i < ft.extent(0); ++i) {
        ASSERT_EQ(ft(i), 0.0) << i;
    }
    pspl::View2D<float> ft2(pspl::FirstTouch, "ft_probe2", 33, 97);
    for (std::size_t i = 0; i < 33; ++i) {
        for (std::size_t j = 0; j < 97; ++j) {
            ASSERT_EQ(ft2(i, j), 0.0f);
        }
    }
}

// ---------------------------------------------------------------------------
// PSPL_CHECK: stale slot pointers are use-after-free with provenance
// ---------------------------------------------------------------------------

#if defined(PSPL_CHECK)

void seeded_stale_slot_access()
{
    WorkspaceArena arena;
    arena.reserve(1, 512);
    double* stale = arena.slot<double>(0);
    stale[0] = 1.0; // valid while the generation holds
    arena.reserve(1, 1 << 20); // growth reallocates, tombstones the old block
    // The cached pointer now targets the freed backing View; the registry
    // must abort this write with the arena's label.
    pspl::View<double, 1, pspl::LayoutRight> dangle(stale, {4});
    dangle(0) = 2.0;
}

TEST(WorkspaceArenaDeathTest, StaleSlotPointerAbortsUnderCheck)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(seeded_stale_slot_access(),
                 "use-after-free.*pspl::workspace_arena");
}

#else

TEST(WorkspaceArenaDeathTest, InstrumentationCompiledOut)
{
    GTEST_SKIP() << "PSPL_CHECK=OFF: arena lifetime checks not compiled in";
}

#endif

} // namespace

// Fused advection in a translation unit that targets a wider ISA than the
// library. This TU is compiled with -mavx2, the library objects for the
// baseline target. The SIMD column chain has one fixed width,
// core::simd_chain_width = 8, so the plan the library resolves and the
// strip loop this TU instantiates agree on 8-column packs: the default
// plan reports pack_width() 8 here, as in a default-target TU. With
// PSPL_TILE=6 the tile rounds up to one 8-column pack and the 29-row
// batch ends in a 5-row tail; the fused step must still match the
// Algorithm 2 oracle to the bit. Each step test runs its fused step before
// anything else touches the grow-only workspace arena, so the arena is
// sized by that step alone and, under AddressSanitizer, an undersized
// strip would be reported as a heap-buffer-overflow in the gather.
#include "algorithm2_oracle.hpp"

#include "advection/semi_lagrangian.hpp"
#include "parallel/deep_copy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <numbers>

namespace {

using namespace pspl;
using advection::BatchedAdvection1D;
using bsplines::BSplineBasis;
using core::BuilderVersion;

template <class Exec>
void expect_tail_tiles_match_algorithm2()
{
    ::setenv("PSPL_PRECISION", "double", 1);
    ::setenv("PSPL_TILE", "6", 1);
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    const auto v = advection::uniform_velocities(29, -1.5, 2.0);
    const double dt = 0.013;
    BatchedAdvection1D::Config cfg;
    cfg.version = BuilderVersion::FusedSpmvSimd;
    BatchedAdvection1D adv(basis, v, dt, cfg);
    ASSERT_TRUE(adv.fused_active());

    View2D<double> f("f", adv.nv(), adv.nx());
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            const double x = adv.points()(i);
            f(j, i) = 1.0 + 0.5 * std::sin(2.0 * std::numbers::pi * x)
                      + 0.01 * static_cast<double>(j);
        }
    }
    auto ref = clone(f);
    adv.template step<Exec>(f);
    test::Algorithm2Step(basis, BuilderVersion::FusedSpmvSimd, v, dt)
            .step<Serial>(ref);
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            ASSERT_EQ(f(j, i), ref(j, i)) << "j=" << j << " i=" << i;
        }
    }
}

TEST(FusedAdvectionAvx2, DefaultPlanPacksEightColumns)
{
    if (!__builtin_cpu_supports("avx2")) {
        GTEST_SKIP() << "host CPU lacks AVX2";
    }
    ::setenv("PSPL_PRECISION", "double", 1);
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    const BatchedAdvection1D adv(
            basis, advection::uniform_velocities(29, -1.5, 2.0), 0.013);
    ASSERT_TRUE(adv.fused_active());
    EXPECT_EQ(adv.plan()->pack_width(), 8);
    EXPECT_EQ(adv.plan()->tile_cols() % 8, 0u);
}

TEST(FusedAdvectionAvx2, TailTilesMatchAlgorithm2Serial)
{
    if (!__builtin_cpu_supports("avx2")) {
        GTEST_SKIP() << "host CPU lacks AVX2";
    }
    expect_tail_tiles_match_algorithm2<Serial>();
}

TEST(FusedAdvectionAvx2, TailTilesMatchAlgorithm2Threads)
{
    if (!__builtin_cpu_supports("avx2")) {
        GTEST_SKIP() << "host CPU lacks AVX2";
    }
    expect_tail_tiles_match_algorithm2<Threads>();
}

} // namespace

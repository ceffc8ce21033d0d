// Fused advection when the calling translation unit packs wider than the
// library. This TU is compiled with -mavx2 (4-wide double packs), while
// AdvectionPlan resolves its tile width in the baseline-ISA library
// (2-wide packs): PSPL_TILE=6 then gives tiles that are not a multiple of
// the packs this TU stages. The fused step must size each arena strip for
// the ceil(6 / 4) = 2 packs a tile stages -- AddressSanitizer reports a
// heap-buffer-overflow in the strip gather otherwise -- and still match
// the Algorithm 2 oracle to the bit. Each test runs its fused step before
// anything else touches the grow-only workspace arena, so the arena is
// sized by that step alone and an undersized strip runs off its end.
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

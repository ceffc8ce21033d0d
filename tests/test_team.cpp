// Tests for the hierarchical TeamPolicy layer: league/team coverage, nested
// ranges, reductions, and a team-tiled batched spline solve that must agree
// with the flat RangePolicy path.
#include "core/spline_builder.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/subview.hpp"
#include "parallel/team.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace {

using namespace pspl;

template <class Exec>
class TeamTyped : public ::testing::Test
{
};

#if defined(PSPL_ENABLE_OPENMP)
using ExecSpaces = ::testing::Types<pspl::Serial, pspl::OpenMP, pspl::Threads>;
#else
using ExecSpaces = ::testing::Types<pspl::Serial, pspl::Threads>;
#endif
TYPED_TEST_SUITE(TeamTyped, ExecSpaces);

TYPED_TEST(TeamTyped, EveryLeagueMemberPairRunsOnce)
{
    const std::size_t league = 13;
    const int team = 4;
    View2D<int> hits("hits", league, static_cast<std::size_t>(team));
    parallel_for("team_cover", TeamPolicy<TypeParam>(league, team),
                 [=](const TeamMember& m) {
                     hits(m.league_rank(),
                          static_cast<std::size_t>(m.team_rank())) += 1;
                 });
    for (std::size_t l = 0; l < league; ++l) {
        for (int t = 0; t < team; ++t) {
            EXPECT_EQ(hits(l, static_cast<std::size_t>(t)), 1);
        }
    }
}

TYPED_TEST(TeamTyped, MemberMetadataIsConsistent)
{
    const std::size_t league = 5;
    const int team = 3;
    View1D<int> ok("ok", league);
    parallel_for("team_meta", TeamPolicy<TypeParam>(league, team),
                 [=](const TeamMember& m) {
                     const bool good = m.team_size() == team
                                       && m.league_size() == league
                                       && m.team_rank() >= 0
                                       && m.team_rank() < team
                                       && m.league_rank() < league;
                     if (good) {
                         ok(m.league_rank()) += 1;
                     }
                 });
    for (std::size_t l = 0; l < league; ++l) {
        EXPECT_EQ(ok(l), team);
    }
}

TYPED_TEST(TeamTyped, TeamThreadRangePartitionsExactly)
{
    // Across the whole team, [0, n) is covered exactly once.
    const std::size_t league = 3;
    const int team = 4;
    const std::size_t n = 26; // not divisible by team size
    View2D<int> hits("hits", league, n);
    parallel_for("ttr", TeamPolicy<TypeParam>(league, team),
                 [=](const TeamMember& m) {
                     team_thread_range(m, n, [&](std::size_t i) {
                         hits(m.league_rank(), i) += 1;
                     });
                 });
    for (std::size_t l = 0; l < league; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(hits(l, i), 1) << l << " " << i;
        }
    }
}

TYPED_TEST(TeamTyped, ThreadVectorRangeRunsFullyPerMember)
{
    const std::size_t league = 2;
    const int team = 2;
    const std::size_t n = 9;
    View2D<int> hits("hits", league, n);
    parallel_for("tvr", TeamPolicy<TypeParam>(league, team),
                 [=](const TeamMember& m) {
                     if (m.team_rank() == 0) { // one member per team writes
                         thread_vector_range(m, n, [&](std::size_t i) {
                             hits(m.league_rank(), i) += 1;
                         });
                     }
                 });
    for (std::size_t l = 0; l < league; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(hits(l, i), 1);
        }
    }
}

TYPED_TEST(TeamTyped, TeamReduceGivesTeamWideTotalToEveryMember)
{
    const std::size_t league = 4;
    const int team = 3;
    const std::size_t n = 100;
    View2D<double> sums("sums", league, static_cast<std::size_t>(team));
    parallel_for("treduce", TeamPolicy<TypeParam>(league, team),
                 [=](const TeamMember& m) {
                     const double s = team_thread_reduce_sum(
                             m, n,
                             [&](std::size_t i) {
                                 return static_cast<double>(i);
                             });
                     sums(m.league_rank(),
                          static_cast<std::size_t>(m.team_rank())) = s;
                 });
    const double expect = static_cast<double>(n) * (n - 1) / 2.0;
    for (std::size_t l = 0; l < league; ++l) {
        for (int t = 0; t < team; ++t) {
            EXPECT_DOUBLE_EQ(sums(l, static_cast<std::size_t>(t)), expect);
        }
    }
}

TEST(TeamPolicy, RejectsZeroTeamSize)
{
    EXPECT_DEATH(TeamPolicy<Serial>(4, 0), "team_size");
}

TEST(TeamPolicy, TeamTiledSplineSolveMatchesFlatPath)
{
    // Tile the batch across a league of teams: each team owns a tile of
    // columns, members split the tile. core::solve_one runs the builder's
    // own FP64 chain on each column, so the result must be bit-identical
    // to the flat RangePolicy builder.
    const auto basis = bsplines::BSplineBasis::uniform(3, 48, 0.0, 1.0);
    core::SplineBuilder builder(basis);
    builder.set_precision(core::Precision::Double);
    const std::size_t batch = 37;
    View2D<double> b_flat("bf", 48, batch);
    const auto pts = basis.interpolation_points();
    for (std::size_t i = 0; i < 48; ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            b_flat(i, j) = std::sin(2.0 * std::numbers::pi * pts[i]
                                    + 0.1 * static_cast<double>(j));
        }
    }
    auto b_team = clone(b_flat);
    builder.build_inplace(b_flat);

    const auto s = builder.solver().device_data();
    const std::size_t tile = 8;
    const std::size_t league = (batch + tile - 1) / tile;
    parallel_for("team_solve", TeamPolicy<DefaultExecutionSpace>(league, 2),
                 [=](const TeamMember& m) {
                     const std::size_t begin = m.league_rank() * tile;
                     const std::size_t end = std::min(begin + tile, batch);
                     team_thread_range(m, end - begin, [&](std::size_t t) {
                         const std::size_t col = begin + t;
                         auto full = subview(b_team, ALL, col);
                         core::solve_one(s, full);
                     });
                 });
    for (std::size_t i = 0; i < 48; ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            EXPECT_EQ(b_flat(i, j), b_team(i, j));
        }
    }
}

} // namespace

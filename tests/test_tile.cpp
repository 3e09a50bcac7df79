// Site-fused xy-tile layout (paper Fig. 2): lane maps, permutes, masks,
// and the SIMD-efficiency fractions the paper quotes.
#include <gtest/gtest.h>

#include <array>

#include "lqcd/tile/xy_tile.h"

namespace lqcd {
namespace {

TEST(XyTile, RequiresThirtyTwoSiteCrossSection) {
  EXPECT_NO_THROW(XyTileLayout(8, 4));
  EXPECT_NO_THROW(XyTileLayout(4, 8));
  EXPECT_THROW(XyTileLayout(4, 4), Error);
  EXPECT_THROW(XyTileLayout(8, 3), Error);
}

TEST(XyTile, LanesCoverEachTileExactlyOnce) {
  const XyTileLayout layout(8, 4);
  for (int tile = 0; tile < 2; ++tile) {
    std::array<int, kTileLanes> count{};
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 8; ++x) {
        if (XyTileLayout::tile_of(x, y) != tile) continue;
        const int lane = layout.lane_of(x, y);
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, kTileLanes);
        ++count[static_cast<std::size_t>(lane)];
      }
    for (const int c : count) EXPECT_EQ(c, 1);
  }
}

TEST(XyTile, MaskedFractionsMatchPaper) {
  // Paper Sec. III-A: "only 14/16 and 12/16, respectively, of the
  // floating-point unit is used, i.e., 12.5% and 25% of the SIMD vectors
  // are wasted" for the x and y directions.
  const XyTileLayout layout(8, 4);
  for (int tile = 0; tile < 2; ++tile)
    for (Dir dir : {Dir::kForward, Dir::kBackward}) {
      EXPECT_NEAR(layout.shift(tile, 0, dir).masked_fraction(), 2.0 / 16,
                  1e-12)
          << "x tile=" << tile;
      EXPECT_NEAR(layout.shift(tile, 1, dir).masked_fraction(), 4.0 / 16,
                  1e-12)
          << "y tile=" << tile;
    }
}

TEST(XyTile, ShiftsMapToGeometricNeighbors) {
  const XyTileLayout layout(8, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 8; ++x) {
      const int tile = XyTileLayout::tile_of(x, y);
      const int lane = layout.lane_of(x, y);
      struct Hop {
        int mu;
        Dir dir;
        int nx, ny;
      };
      const Hop hops[] = {{0, Dir::kForward, x + 1, y},
                          {0, Dir::kBackward, x - 1, y},
                          {1, Dir::kForward, x, y + 1},
                          {1, Dir::kBackward, x, y - 1}};
      for (const auto& h : hops) {
        const int src =
            layout.shift(tile, h.mu, h.dir)
                .source[static_cast<std::size_t>(lane)];
        if (h.nx < 0 || h.nx >= 8 || h.ny < 0 || h.ny >= 4) {
          EXPECT_EQ(src, -1);  // boundary: masked
        } else {
          ASSERT_GE(src, 0);
          EXPECT_EQ(src, layout.lane_of(h.nx, h.ny));
          EXPECT_EQ(XyTileLayout::tile_of(h.nx, h.ny), 1 - tile);
        }
      }
    }
}

}  // namespace
}  // namespace lqcd

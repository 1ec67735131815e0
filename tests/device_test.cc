/**
 * @file
 * Tests for the simulated device substrate: texture geometry, device
 * presets.
 */
#include <gtest/gtest.h>

#include "device/device_profile.h"
#include "device/texture.h"
#include "support/error.h"

namespace smartmem::device {
namespace {

TEST(Texture, PackedXAxisUsesTexels)
{
    // [B=2, N=8, C=32], C on X packed: width = 32/4 = 8 texels,
    // height = 2*8 = 16.
    ir::Shape s({2, 8, 32});
    ir::Layout l = ir::Layout::texture(3, 1, 2, 2);
    TextureExtent e = textureExtent(s, l);
    EXPECT_EQ(e.widthTexels, 8);
    EXPECT_EQ(e.heightTexels, 16);
    EXPECT_EQ(e.bytes(2), 8 * 16 * 4 * 2);
}

TEST(Texture, UnevenPackRoundsUp)
{
    ir::Shape s({1, 5, 6});
    ir::Layout l = ir::Layout::texture(3, 1, 2, 2);
    TextureExtent e = textureExtent(s, l);
    EXPECT_EQ(e.widthTexels, 2); // ceil(6/4)
    EXPECT_EQ(e.heightTexels, 5);
}

TEST(Texture, FitsRespectsMaxExtent)
{
    ir::Shape s({1, 20000, 8});
    ir::Layout l = ir::Layout::texture(3, 1, 2, 2);
    EXPECT_FALSE(fitsTexture(s, l, 16384));
    EXPECT_TRUE(fitsTexture(s, l, 32768));
}

TEST(Texture, RejectsBufferLayout)
{
    EXPECT_THROW(textureExtent(ir::Shape({2, 2}),
                               ir::Layout::rowMajor(2)),
                 smartmem::FatalError);
}

TEST(Profiles, RooflineConstantsMatchFigure12)
{
    DeviceProfile p = adreno740();
    EXPECT_DOUBLE_EQ(p.peakMacsPerSec, 2.0e12);
    EXPECT_DOUBLE_EQ(p.globalBwBytesPerSec, 55e9);
    EXPECT_DOUBLE_EQ(p.textureBwBytesPerSec, 511e9);
    EXPECT_TRUE(p.hasTexture);
}

TEST(Profiles, PortabilityDevicesAreSmaller)
{
    DeviceProfile gen2 = adreno740();
    DeviceProfile old = adreno540();
    DeviceProfile mali = maliG57();
    EXPECT_LT(old.peakMacsPerSec, gen2.peakMacsPerSec);
    EXPECT_LT(mali.memoryCapacityBytes, old.memoryCapacityBytes);
    EXPECT_EQ(mali.memoryCapacityBytes, 4LL << 30);
}

TEST(Profiles, DesktopHasNoTexturePath)
{
    DeviceProfile v100 = teslaV100();
    EXPECT_FALSE(v100.hasTexture);
    EXPECT_GT(v100.peakMacsPerSec, adreno740().peakMacsPerSec);
}

TEST(Profiles, ExtrapolatedTiersAreOrdered)
{
    // The non-paper tiers must slot plausibly into the catalog: the
    // desktop/server parts outrun V100, the Apple GPU sits in the
    // mobile-to-desktop gap with a texture path, and the NPU pairs a
    // big MAC array with a narrow bus and no texture units.
    EXPECT_GT(rtx4090().peakMacsPerSec, teslaV100().peakMacsPerSec);
    EXPECT_GT(a100().globalBwBytesPerSec,
              teslaV100().globalBwBytesPerSec);
    EXPECT_FALSE(rtx4090().hasTexture);
    EXPECT_FALSE(a100().hasTexture);

    EXPECT_TRUE(appleM2().hasTexture);
    EXPECT_GT(appleM2().peakMacsPerSec, maliG57().peakMacsPerSec);
    EXPECT_LT(appleM2().peakMacsPerSec, teslaV100().peakMacsPerSec);
}

TEST(Profiles, EdgeNpuStressesRelayoutElimination)
{
    DeviceProfile npu = edgeNpu();
    EXPECT_FALSE(npu.hasTexture);
    EXPECT_EQ(npu.textureBwBytesPerSec, 0);
    // High compute roof behind a narrow bus and very slow relayout:
    // the profile where eliminating transformations matters most.
    EXPECT_GT(npu.peakMacsPerSec, adreno740().peakMacsPerSec);
    EXPECT_LT(npu.globalBwBytesPerSec,
              adreno740().globalBwBytesPerSec * 0.7);
    EXPECT_LT(npu.relayoutElemsPerSec,
              adreno740().relayoutElemsPerSec);
}

} // namespace
} // namespace smartmem::device

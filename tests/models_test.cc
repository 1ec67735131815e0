/**
 * @file
 * Tests for the model zoo: every model builds and verifies, operator
 * and MAC counts sit in the ballpark of the paper's Table 7, and the
 * structural signatures (transform-heavy transformers, transform-free
 * ConvNets) hold.
 */
#include <gtest/gtest.h>

#include "ir/macs.h"
#include "models/models.h"
#include "support/error.h"

namespace smartmem::models {
namespace {

class ModelBuild : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ModelBuild, BuildsAndVerifies)
{
    auto g = buildModel(GetParam(), 1);
    EXPECT_NO_THROW(g.verify());
    EXPECT_GT(g.operatorCount(), 10);
    EXPECT_FALSE(g.outputIds().empty());
}

TEST_P(ModelBuild, TinyVariantBuildsAndIsSmall)
{
    auto tiny = buildTinyVariant(GetParam(), 1);
    EXPECT_NO_THROW(tiny.verify());
    EXPECT_LT(ir::graphMacs(tiny), 100e6); // small enough to execute
}

TEST_P(ModelBuild, BatchScalesInputs)
{
    auto g1 = buildModel(GetParam(), 1);
    auto info = modelInfo(GetParam());
    if (info.input != "Image")
        GTEST_SKIP() << "sequence models run batch 1";
    auto g2 = buildModel(GetParam(), 2);
    EXPECT_EQ(g2.value(g2.inputIds()[0]).shape.dim(0), 2);
    EXPECT_GE(ir::graphMacs(g2), 2 * ir::graphMacs(g1) * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelBuild, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

/** Expected MACs (G) from Table 7 / Table 1, with tolerance. */
struct MacsExpectation
{
    const char *name;
    double paperGmacs;
    double tolerance; // relative
};

/** Print the fields rather than gtest's byte dump, whose `name` pointer
 *  changes with the load address and so would change the test's name. */
void PrintTo(const MacsExpectation &e, std::ostream *os)
{
    *os << "(\"" << e.name << "\", " << e.paperGmacs << ", " << e.tolerance
        << ")";
}

class ModelMacs : public ::testing::TestWithParam<MacsExpectation>
{
};

TEST_P(ModelMacs, WithinBallparkOfPaper)
{
    const auto &e = GetParam();
    double gmacs =
        static_cast<double>(ir::graphMacs(buildModel(e.name, 1))) / 1e9;
    EXPECT_GT(gmacs, e.paperGmacs * (1.0 - e.tolerance))
        << e.name << " got " << gmacs;
    EXPECT_LT(gmacs, e.paperGmacs * (1.0 + e.tolerance))
        << e.name << " got " << gmacs;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelMacs,
    ::testing::Values(
        MacsExpectation{"AutoFormer", 4.7, 0.35},
        MacsExpectation{"BiFormer", 4.5, 0.35},
        MacsExpectation{"CrossFormer", 5.0, 0.35},
        MacsExpectation{"CSwin", 6.9, 0.40},
        MacsExpectation{"EfficientViT", 5.2, 0.35},
        MacsExpectation{"FlattenFormer", 7.2, 0.35},
        MacsExpectation{"SMTFormer", 4.9, 0.35},
        MacsExpectation{"Swin", 4.6, 0.30},
        MacsExpectation{"ViT", 21.0, 0.35},
        MacsExpectation{"Conformer", 12.0, 0.35},
        MacsExpectation{"SD-TextEncoder", 6.7, 0.30},
        MacsExpectation{"SD-UNet", 90.0, 0.55},
        MacsExpectation{"SD-VAEDecoder", 312.0, 0.40},
        MacsExpectation{"Pythia", 119.0, 0.30},
        MacsExpectation{"ConvNext", 4.5, 0.30},
        MacsExpectation{"RegNet", 3.2, 0.30},
        MacsExpectation{"ResNext", 4.3, 0.30},
        MacsExpectation{"Yolo-V8", 4.4, 0.40},
        MacsExpectation{"ResNet50", 4.1, 0.30},
        MacsExpectation{"FST", 162.0, 0.30}),
    [](const auto &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(ModelStructure, TransformersCarryManyLayoutTransforms)
{
    // The premise of Table 1: local-attention transformers have
    // hundreds of Reshape/Transpose ops; classic ConvNets almost none.
    for (const char *name : {"Swin", "CSwin", "AutoFormer"}) {
        auto g = buildModel(name, 1);
        EXPECT_GT(g.layoutTransformCount(), 100) << name;
    }
    for (const char *name : {"ResNet50", "ResNext", "RegNet"}) {
        auto g = buildModel(name, 1);
        EXPECT_LT(g.layoutTransformCount(), 10) << name;
    }
}

TEST(ModelStructure, CSwinHasMostTransforms)
{
    // Table 1: CSwin has ~3x Swin's transform count.
    auto cswin = buildModel("CSwin", 1);
    auto swin = buildModel("Swin", 1);
    EXPECT_GT(cswin.layoutTransformCount(),
              2 * swin.layoutTransformCount());
}

TEST(ModelStructure, BiFormerUsesGathersForRouting)
{
    auto g = buildModel("BiFormer", 1);
    EXPECT_GT(g.countKind(ir::OpKind::Gather), 10);
}

TEST(ModelStructure, YoloUsesSlicesAndConcats)
{
    auto g = buildModel("Yolo-V8", 1);
    EXPECT_GT(g.countKind(ir::OpKind::Slice), 5);
    EXPECT_GT(g.countKind(ir::OpKind::Concat), 5);
}

TEST(ModelStructure, VaeDecoderUsesDepthToSpaceUpsampling)
{
    auto g = buildModel("SD-VAEDecoder", 1);
    EXPECT_GE(g.countKind(ir::OpKind::DepthToSpace), 3);
}

TEST(ModelInfoTest, TypesMatchTable7)
{
    EXPECT_EQ(modelInfo("Swin").type, "Transformer");
    EXPECT_EQ(modelInfo("CSwin").type, "Hybrid");
    EXPECT_EQ(modelInfo("ResNext").type, "ConvNet");
    EXPECT_EQ(modelInfo("Pythia").attention, "Decoder");
    EXPECT_EQ(modelInfo("ViT").attention, "Global");
    EXPECT_EQ(modelInfo("Conformer").input, "Audio");
}

TEST(ModelInfoTest, EvaluationListHas18Models)
{
    EXPECT_EQ(evaluationModels().size(), 18u);
    EXPECT_EQ(allModels().size(), 20u);
}

TEST(ModelInfoTest, UnknownModelIsFatal)
{
    EXPECT_THROW(buildModel("NotAModel", 1), smartmem::FatalError);
    EXPECT_THROW(modelInfo("NotAModel"), smartmem::FatalError);
}

} // namespace
} // namespace smartmem::models

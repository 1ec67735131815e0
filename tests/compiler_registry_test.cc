/**
 * @file
 * Tests for the compiler registry façade: every compiler under
 * comparison resolves by name, the smartmem family reproduces
 * compileSmartMem/compileStage bit for bit through the session, the
 * baseline proxies match their Framework counterparts (including
 * unsupported-model reporting), and unknown names fail listing the
 * catalog.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "baselines/baselines.h"
#include "core/compile_session.h"
#include "core/compiler_registry.h"
#include "core/smartmem_compiler.h"
#include "device/device_registry.h"
#include "models/models.h"
#include "support/error.h"

namespace smartmem::core {
namespace {

TEST(CompilerRegistryLookup, BuiltinsCoverTheEvaluationMatrix)
{
    const auto &reg = CompilerRegistry::builtins();
    for (const char *name :
         {"smartmem", "smartmem-stage0", "smartmem-stage1",
          "smartmem-stage2", "smartmem-stage3", "mnn", "ncnn",
          "tflite", "tvm", "dnnf", "inductor"}) {
        ASSERT_TRUE(reg.contains(name)) << name;
        EXPECT_EQ(reg.find(name).name(), name);
        EXPECT_FALSE(reg.find(name).description().empty()) << name;
    }
    EXPECT_EQ(reg.names().size(), 11u);
}

TEST(CompilerRegistryLookup, SmartMemFamilyUsesThePlanCache)
{
    const auto &reg = CompilerRegistry::builtins();
    for (const auto &name : reg.names()) {
        bool smartmem_family = name.rfind("smartmem", 0) == 0;
        EXPECT_EQ(reg.find(name).usesPlanCache(), smartmem_family)
            << name;
    }
}

TEST(CompilerRegistryLookup, UnknownNameListsRegisteredCompilers)
{
    try {
        CompilerRegistry::builtins().find("glow");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("glow"), std::string::npos);
        EXPECT_NE(msg.find("smartmem"), std::string::npos);
        EXPECT_NE(msg.find("inductor"), std::string::npos);
    }
}

TEST(CompilerRegistryCompile, SmartMemMatchesDirectPipeline)
{
    auto dev = device::DeviceRegistry::builtins().find("adreno740");
    CompileSession session(dev, 1);
    auto res = CompilerRegistry::builtins().find("smartmem").compile(
        session, "ResNext", CompileOptions());
    ASSERT_TRUE(res.supported);
    auto direct = compileSmartMem(models::buildModel("ResNext", 1),
                                  dev);
    EXPECT_EQ(res.plan->toString(), direct.toString());

    // It flowed through the session cache: a second compile hits.
    CompilerRegistry::builtins().find("smartmem").compile(
        session, "ResNext", CompileOptions());
    EXPECT_EQ(session.stats().cacheHits, 1);
}

TEST(CompilerRegistryCompile, StagePresetsMatchCompileStage)
{
    auto dev = device::DeviceRegistry::builtins().find("adreno740");
    CompileSession session(dev, 1);
    for (int stage = 0; stage <= 3; ++stage) {
        auto res = CompilerRegistry::builtins()
                       .find("smartmem-stage" + std::to_string(stage))
                       .compile(session, "CSwin", CompileOptions());
        ASSERT_TRUE(res.supported) << stage;
        auto direct =
            compileStage(models::buildModel("CSwin", 1), dev, stage);
        EXPECT_EQ(res.plan->toString(), direct.toString())
            << "stage " << stage;
    }
}

TEST(CompilerRegistryCompile, BaselineMatchesFrameworkCompile)
{
    auto dev = device::DeviceRegistry::builtins().find("adreno740");
    CompileSession session(dev, 1);
    auto res = CompilerRegistry::builtins().find("mnn").compile(
        session, "ResNext", CompileOptions());
    ASSERT_TRUE(res.supported);
    auto direct = baselines::makeMnnLike()->compile(
        models::buildModel("ResNext", 1), dev);
    ASSERT_TRUE(direct.supported);
    EXPECT_EQ(res.plan->toString(), direct.plan.toString());
    // Baselines bypass the session plan cache by design.
    EXPECT_EQ(session.stats().cacheHits + session.stats().cacheMisses,
              0);
}

TEST(CompilerRegistryCompile, UnsupportedModelsReportTheReason)
{
    auto dev = device::DeviceRegistry::builtins().find("adreno740");
    CompileSession session(dev, 1);
    for (const char *name : {"ncnn", "tflite"}) {
        auto res = CompilerRegistry::builtins().find(name).compile(
            session, "ViT", CompileOptions());
        EXPECT_FALSE(res.supported) << name;
        EXPECT_FALSE(res.reason.empty()) << name;
        EXPECT_EQ(res.plan, nullptr) << name;
    }
}

TEST(CompilerRegistryCompile, BaselinesRejectStagedOptions)
{
    auto dev = device::DeviceRegistry::builtins().find("adreno740");
    CompileSession session(dev, 1);
    CompileOptions staged;
    staged.stage = 1;
    EXPECT_THROW(CompilerRegistry::builtins().find("tvm").compile(
                     session, "ResNext", staged),
                 FatalError);
}

TEST(CompilerRegistryCatalog, RejectsDuplicateRegistration)
{
    CompilerRegistry reg;
    auto make = [] {
        struct Dummy : Compiler
        {
            std::string name() const override { return "dup"; }
            std::string description() const override { return "d"; }
            CompilerResult
            compileSource(CompileSession &, const models::GraphSource &,
                          const CompileOptions &) const override
            {
                return {false, "dummy", nullptr};
            }
        };
        return std::make_unique<Dummy>();
    };
    reg.add(make());
    EXPECT_THROW(reg.add(make()), FatalError);
}

} // namespace
} // namespace smartmem::core

#include "core/smartmem_compiler.h"

#include <memory>

#include "core/layout_select.h"
#include "core/planner.h"
#include "core/tuner.h"
#include "opt/pass.h"
#include "support/error.h"

namespace smartmem::core {

namespace {

/** DNNFusion-grade fusion policy; LTE layered on via the flag. */
FusionPolicy
smartFusion(bool lte, bool simplify_maps)
{
    FusionPolicy p;
    p.fuseEltwiseChains = true;
    p.fuseEltwiseIntoIld = true;
    p.fusePreChains = true;
    p.fuseNormMatmulPrologue = true;
    p.maxPostOps = 64;
    p.fuseAttentionBlock = true;
    p.fuseTransformChains = true;
    p.eliminateTransforms = lte;
    p.simplifyIndexMaps = simplify_maps;
    return p;
}

} // namespace

ir::Graph
canonicalizeGraph(ir::Graph graph)
{
    return canonicalizeGraph(std::move(graph), nullptr);
}

ir::Graph
canonicalizeGraph(ir::Graph graph, opt::PipelineStats *stats)
{
    return opt::PassManager::defaultPipeline().runToFixedPoint(
        std::move(graph), stats);
}

SmartMemOptions
stagePreset(int stage)
{
    SM_REQUIRE(stage >= 0 && stage <= 3, "stage must be 0..3");
    SmartMemOptions o;
    o.enableLte = stage >= 1;
    o.enableLayoutSelect = stage >= 2;
    o.enableTextureMapping = stage >= 3;
    o.enableTuner = true;
    return o;
}

runtime::ExecutionPlan
compileCanonical(const ir::Graph &canon, const device::DeviceProfile &dev,
                 const SmartMemOptions &pipeline, int stage)
{
    SM_REQUIRE(stage >= -1 && stage <= 3, "stage must be -1..3");
    const SmartMemOptions options =
        stage >= 0 ? stagePreset(stage) : pipeline;

    runtime::ExecutionPlan plan = planGraph(
        canon, smartFusion(options.enableLte, options.enableIndexSimplify));

    LayoutStrategy strategy;
    if (!options.enableLayoutSelect)
        strategy = LayoutStrategy::FusedTexture;
    else if (options.enableTextureMapping && dev.hasTexture)
        strategy = LayoutStrategy::SmartSelect;
    else if (dev.hasTexture)
        strategy = LayoutStrategy::SmartSelectFlatTexture;
    else
        strategy = LayoutStrategy::SmartSelectBufferOnly;
    assignLayouts(plan, strategy, dev, options.allowRedundantCopies);

    if (options.enableTuner)
        tunePlan(plan, dev);
    static const char *names[] = {
        "DNNF", "DNNF+LTE", "DNNF+LTE+LayoutSel", "SmartMem"};
    plan.compilerName = stage >= 0 ? names[stage] : "SmartMem";
    return plan;
}

runtime::ExecutionPlan
compileSmartMem(const ir::Graph &graph, const device::DeviceProfile &dev,
                const SmartMemOptions &options)
{
    return compileCanonical(canonicalizeGraph(graph), dev, options);
}

runtime::ExecutionPlan
compileStage(const ir::Graph &graph, const device::DeviceProfile &dev,
             int stage)
{
    SM_REQUIRE(stage >= 0 && stage <= 3, "stage must be 0..3");
    return compileCanonical(canonicalizeGraph(graph), dev,
                            SmartMemOptions(), stage);
}

} // namespace smartmem::core

/**
 * @file
 * Using the framework on your own network: assemble a custom
 * depth-to-space super-resolution head (the FST-style upsampling the
 * paper's Table 1 profiles), see which of its layout transformations
 * SmartMem eliminates, and check the operator classification that
 * drives those decisions (Tables 3-5).
 *
 *   ./custom_operator
 */
#include <cstdio>

#include "core/planner.h"
#include "core/smartmem_compiler.h"
#include "device/device_registry.h"
#include "exec/executor.h"
#include "opclass/opclass.h"
#include "runtime/functional_runner.h"
#include "runtime/simulated_executor.h"

using namespace smartmem;

int
main()
{
    // A small super-resolution tail: conv -> DepthToSpace x2 ->
    // conv -> Tanh, plus a Slice-based crop.
    ir::GraphBuilder b;
    auto x = b.input("frame", ir::Shape({1, 32, 32, 32}));
    auto w1 = b.constant("w1", ir::Shape({64, 32, 3, 3}));
    auto y = b.conv2d(x, w1, 1, 1);
    y = b.depthToSpace(y, 2);   // [1, 16, 64, 64]
    y = b.unary(ir::OpKind::Relu, y);
    y = b.depthToSpace(y, 2);   // [1, 4, 128, 128]
    y = b.slice(y, {1}, {0}, {3}); // keep RGB planes
    auto w2 = b.constant("w2", ir::Shape({3, 3, 3, 3}));
    y = b.conv2d(y, w2, 1, 1);
    b.markOutput(b.unary(ir::OpKind::Tanh, y));
    auto g = b.finish();

    // Inspect the classification that drives Table 5's actions.
    std::printf("operator classification (Table 3):\n");
    for (const auto &n : g.nodes()) {
        if (ir::isTerminal(n.kind))
            continue;
        std::printf("  %-16s -> %s\n",
                    ir::opKindName(n.kind).c_str(),
                    opclass::opClassName(
                        opclass::classifyOp(n.kind)).c_str());
    }

    core::FusionPolicy pol;
    pol.eliminateTransforms = true;
    pol.fuseTransformChains = true;
    auto eliminated = core::eliminatedNodes(g, pol);
    std::printf("\nLTE eliminates %zu operators "
                "(DepthToSpace + Slice fold into consumer reads)\n",
                eliminated.size());

    auto dev = device::DeviceRegistry::builtins().find("adreno740");
    auto plan = core::compileSmartMem(g, dev);
    std::printf("plan: %d kernels for %d graph operators\n",
                plan.operatorCount(), g.operatorCount());

    // Numerics still match the reference executor.
    exec::Executor ex(7);
    std::map<ir::ValueId, exec::Tensor> inputs;
    inputs[plan.graph.inputIds()[0]] =
        ex.randomTensor(ir::Shape({1, 32, 32, 32}), 2);
    auto ref = ex.runOutputs(plan.graph, inputs);
    auto got = runtime::runPlanFunctional(plan, inputs, 7);
    std::printf("max |reference - optimized| = %g\n",
                exec::maxAbsDiff(ref[0], got[0]));

    auto sim = runtime::simulate(dev, plan);
    std::printf("simulated latency: %.3f ms\n", sim.latencyMs());
    return 0;
}

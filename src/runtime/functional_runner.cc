#include "runtime/functional_runner.h"

#include <set>

#include "exec/executor.h"
#include "support/error.h"

namespace smartmem::runtime {

using exec::Tensor;

namespace {

/** Materialize `map` applied to `src`. */
Tensor
materializeMap(const index::IndexMap &map, const Tensor &src)
{
    SM_ASSERT(map.inputShape() == src.shape(),
              "index map input shape mismatch");
    Tensor out(map.outputShape());
    exec::forEachCoord(map.outputShape(),
                       [&](const std::vector<std::int64_t> &coord) {
        out.at(coord) = src.at(map.apply(coord));
    });
    return out;
}

} // namespace

std::vector<Tensor>
runPlanFunctional(const ExecutionPlan &plan,
                  const std::map<ir::ValueId, Tensor> &inputs,
                  std::uint64_t seed)
{
    const ir::Graph &graph = plan.graph;
    exec::Executor ex(seed);

    std::map<ir::ValueId, Tensor> env;
    for (const ir::Node &node : graph.nodes()) {
        if (node.kind == ir::OpKind::Input) {
            auto it = inputs.find(node.output);
            SM_REQUIRE(it != inputs.end(),
                       "missing model input: " + node.name);
            env[node.output] = it->second;
        } else if (node.kind == ir::OpKind::Constant) {
            env[node.output] = ex.synthesizeConstant(graph, node.output);
        }
    }

    for (const Kernel &k : plan.kernels) {
        // Reproduce eliminated chains through the read maps.  Inputs
        // whose source is produced by an earlier fused node of this
        // kernel are materialized as soon as the source exists.
        auto materialize_ready = [&]() {
            for (const KernelInput &in : k.inputs) {
                if (in.substitute == in.source)
                    continue;
                if (env.count(in.substitute) > 0)
                    continue;
                auto src = env.find(in.source);
                if (src == env.end())
                    continue;
                SM_ASSERT(in.readMap.has_value(),
                          "substituted input without a read map");
                env[in.substitute] =
                    materializeMap(*in.readMap, src->second);
            }
        };
        materialize_ready();
        // A pure relayout copy of an existing value computes nothing.
        if (k.fusedNodes.empty()) {
            SM_ASSERT(k.isLayoutCopy, "empty kernel must be layout copy");
            SM_ASSERT(env.count(k.output) > 0,
                      "layout copy of unmaterialized value");
            continue;
        }
        for (ir::NodeId nid : k.fusedNodes) {
            const ir::Node &node = graph.node(nid);
            std::vector<const Tensor *> in_ptrs;
            for (ir::ValueId vin : node.inputs) {
                auto it = env.find(vin);
                SM_ASSERT(it != env.end(),
                          "fused node input not available: node " +
                          node.name);
                in_ptrs.push_back(&it->second);
            }
            env[node.output] = exec::evalNode(graph, node, in_ptrs);
            materialize_ready();
        }
    }

    std::vector<Tensor> out;
    for (ir::ValueId id : graph.outputIds()) {
        auto it = env.find(id);
        SM_REQUIRE(it != env.end(), "plan did not materialize an output");
        out.push_back(it->second);
    }
    return out;
}

void
verifyPlan(const ExecutionPlan &plan)
{
    const ir::Graph &graph = plan.graph;

    // Values available before any kernel runs.
    std::set<ir::ValueId> available;
    for (const ir::Node &n : graph.nodes()) {
        if (ir::isTerminal(n.kind))
            available.insert(n.output);
    }

    std::set<ir::NodeId> executed;
    for (const Kernel &k : plan.kernels) {
        std::set<ir::ValueId> local = available;
        auto admit_ready = [&]() {
            for (const KernelInput &in : k.inputs) {
                if (local.count(in.source) > 0)
                    local.insert(in.substitute);
            }
        };
        for (const KernelInput &in : k.inputs) {
            if (in.internalSource) {
                bool produced_here = false;
                for (ir::NodeId nid : k.fusedNodes) {
                    if (graph.node(nid).output == in.source)
                        produced_here = true;
                }
                SM_ASSERT(produced_here,
                          "internal-source input not produced in " +
                          k.name);
            } else {
                SM_ASSERT(available.count(in.source) > 0,
                          "kernel " + k.name + " reads unavailable value");
            }
            if (in.substitute != in.source) {
                SM_ASSERT(in.readMap.has_value(),
                          "substitute without read map in " + k.name);
                SM_ASSERT(in.readMap->inputShape() ==
                          graph.value(in.source).shape,
                          "read map domain mismatch in " + k.name);
                SM_ASSERT(in.readMap->outputShape() ==
                          graph.value(in.substitute).shape,
                          "read map range mismatch in " + k.name);
            }
        }
        admit_ready();
        for (ir::NodeId nid : k.fusedNodes) {
            const ir::Node &node = graph.node(nid);
            SM_ASSERT(executed.count(nid) == 0,
                      "node fused into two kernels: " + node.name);
            executed.insert(nid);
            for (ir::ValueId vin : node.inputs) {
                SM_ASSERT(local.count(vin) > 0,
                          "fused node input not available in " + k.name +
                          ": " + node.name);
            }
            local.insert(node.output);
            admit_ready();
        }
        if (!k.fusedNodes.empty()) {
            SM_ASSERT(local.count(k.output) > 0,
                      "kernel output not produced: " + k.name);
        } else {
            SM_ASSERT(k.isLayoutCopy && available.count(k.output) > 0,
                      "empty kernel must relayout an available value");
        }
        available.insert(k.output);
    }
    for (ir::ValueId id : graph.outputIds()) {
        SM_ASSERT(available.count(id) > 0,
                  "graph output never materialized");
    }
}

} // namespace smartmem::runtime

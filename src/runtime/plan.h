/**
 * @file
 * ExecutionPlan: the compiled form of a graph.
 *
 * A plan is an ordered list of kernels over the *original* graph.  Each
 * kernel executes a fused group of original nodes; operators eliminated
 * by Layout Transformation Elimination appear in no kernel -- instead
 * the consuming kernel's input carries the composed IndexMap that
 * reproduces their semantics during reads.  Layouts and memory-space
 * placement are per-kernel annotations.  Every compiler (SmartMem and
 * the six baselines) produces this structure; the cost model, the
 * simulated executor, the memory pool, and the functional equivalence
 * runner all consume it.
 */
#ifndef SMARTMEM_RUNTIME_PLAN_H
#define SMARTMEM_RUNTIME_PLAN_H

#include <optional>
#include <string>
#include <vector>

#include "index/index_map.h"
#include "ir/graph.h"
#include "ir/layout.h"

namespace smartmem::runtime {

/** One external input of a kernel. */
struct KernelInput
{
    /** Value actually stored in memory (produced by an earlier kernel,
     *  a model input, or a constant). */
    ir::ValueId source = -1;

    /** Value id the kernel's fused nodes reference.  Differs from
     *  `source` when a chain of layout transformations between them was
     *  eliminated; then `readMap` maps substitute-coordinates to
     *  source-coordinates. */
    ir::ValueId substitute = -1;

    /** Composed access function source<-substitute (identity if none
     *  eliminated). */
    std::optional<index::IndexMap> readMap;

    /** Physical layout the kernel reads `source` in. */
    ir::Layout layout;

    /** Which stored copy of `source` is read (SmartMem may keep several
     *  copies in different layouts, Section 3.2.2 / 4.6). */
    int sourceCopy = 0;

    /** True when `source` is produced by an earlier fused node of the
     *  *same* kernel -- fusion across an eliminated transformation
     *  chain.  No memory traffic; only index computation. */
    bool internalSource = false;
};

/** One launched kernel: a fused group of original graph nodes. */
struct Kernel
{
    /** Human-readable name, taken from the last node of the fusion
     *  group (the node whose output the kernel materializes). */
    std::string name;

    /** Original node ids executed by this kernel, in topological order.
     *  Empty only for pure layout-copy kernels. */
    std::vector<ir::NodeId> fusedNodes;

    /** External inputs read from memory (or, for `internalSource`,
     *  recomputed in-register across an eliminated transform chain). */
    std::vector<KernelInput> inputs;

    /** The value this kernel materializes. */
    ir::ValueId output = -1;

    /** Layout the output is written in. */
    ir::Layout outLayout;

    /**
     * True for an explicit data-relayout kernel: either a surviving
     * Reshape/Transpose-style operator (baselines) or a redundant-copy
     * kernel inserted by SmartMem's global layout selection when
     * consumers demand more than k distinct layouts (Section 3.2.2).
     */
    bool isLayoutCopy = false;

    /** For SmartMem redundant copies: index of the copy of `output`. */
    int copyIndex = 0;

    /** Relative compute efficiency of the tuned launch configuration
     *  (block dims / unrolling / tiling), in (0, 1]; produced by the
     *  genetic auto-tuner, 0.85 for untuned kernels. */
    double tunedEfficiency = 0.85;

    /** True when the cost model treats this kernel's FusedAttention
     *  node as streaming: the score matrix never hits memory, so its
     *  traffic is not charged.  Set by the planner under
     *  FusionPolicy::fuseAttentionBlock and printed in the plan text.
     *  The CPU backend always streams, whatever the flag says. */
    bool streamingAttention = false;
};

/** A compiled executable plan. */
struct ExecutionPlan
{
    /** Which compiler produced the plan ("SmartMem", "MNN", "NCNN",
     *  ..., or a Figure 8 stage name); labels benchmark/CLI rows. */
    std::string compilerName;

    /**
     * Canonical (device, model, options) key the plan was compiled
     * under; set by core::CompileSession, empty for plans built
     * outside a session.  Compilation is deterministic, so two plans
     * with equal non-empty keys are interchangeable -- this is what
     * makes the session's plan cache and the on-disk PlanCacheDir
     * sound.  Excluded from toString(): the dump describes the
     * compiled kernels, which do not depend on how the plan was keyed.
     * Preserved by serialize::serializePlan()/parsePlan().
     */
    std::string cacheKey;

    /** The original (unoptimized) graph the kernels index into. */
    ir::Graph graph;

    /** Launch-ordered kernels; their count is the Table 7 metric. */
    std::vector<Kernel> kernels;

    /** Number of launched operators -- the Table 7 metric. */
    int operatorCount() const
    {
        return static_cast<int>(kernels.size());
    }

    /** Count of kernels that are explicit layout transformations. */
    int layoutCopyCount() const
    {
        int n = 0;
        for (const Kernel &k : kernels)
            if (k.isLayoutCopy)
                ++n;
        return n;
    }

    /** Multi-line dump of every kernel with inputs, layouts, and
     *  read maps; what `smartmem_cli compile --dump-plan` prints.
     *  Human-oriented and lossy (no tuned efficiencies, fused node
     *  ids, or cache key) -- the loss-free round-trip form is
     *  serialize::serializePlan()/parsePlan(), which guarantees the
     *  reparsed plan reproduces this dump byte for byte. */
    std::string toString() const;
};

} // namespace smartmem::runtime

#endif // SMARTMEM_RUNTIME_PLAN_H

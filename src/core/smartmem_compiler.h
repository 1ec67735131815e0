/**
 * @file
 * SmartMemCompiler: the end-to-end pipeline of the paper.
 *
 *   graph canonicalization (opt::PassManager::defaultPipeline())
 *     -> DNNFusion-style fusion + Layout Transformation Elimination
 *     -> reduction-dimension layout selection + 2.5D texture mapping
 *     -> genetic auto-tuning
 *
 * Every stage can be disabled independently, which is how the
 * optimization-breakdown experiments (Figures 8 and 9) are produced.
 *
 * Compilation is a pure function of (graph, device, options): there
 * are no mutable globals and the tuner RNG is seeded from the
 * options.  For compiling many (model, batch, options) tuples, prefer
 * core/compile_session.h, which shards compilations across a thread
 * pool and memoizes plans under a canonical key with byte-identical
 * results at any thread count.
 */
#ifndef SMARTMEM_CORE_SMARTMEM_COMPILER_H
#define SMARTMEM_CORE_SMARTMEM_COMPILER_H

#include "core/policy.h"
#include "device/device_profile.h"
#include "ir/graph.h"
#include "opt/pass.h"
#include "runtime/plan.h"

namespace smartmem::core {

/** Stage toggles for the SmartMem pipeline. */
struct SmartMemOptions
{
    /** Layout Transformation Elimination (Section 3.2). */
    bool enableLte = true;

    /** Strength reduction on composed index maps (Section 3.2.1,
     *  "Index Comprehension"). */
    bool enableIndexSimplify = true;

    /** Reduction-dimension layout selection (Section 3.2.2). */
    bool enableLayoutSelect = true;

    /** 2.5D texture mapping of selected layouts (Section 3.3). */
    bool enableTextureMapping = true;

    /** Genetic auto-tuner over per-kernel launch configurations
     *  (Section 3.3, "Other optimizations"). */
    bool enableTuner = true;

    /** Redundant copies for >k layout demands (Sections 3.2.2/4.6). */
    bool allowRedundantCopies = true;
};

/**
 * Compile a graph with the full SmartMem pipeline (Sections 3.2-3.3).
 *
 * @param graph    The input computation graph (original, unfused).
 * @param dev      Target device profile; drives the cost model, the
 *                 texture-capability checks, and the tuner.
 * @param options  Per-stage toggles; the default enables everything.
 * @return An ExecutionPlan over the original (verified, normalized)
 *         graph's nodes; plan-level invariants are exercised by the
 *         functional runner and the test suites, not checked here.
 */
runtime::ExecutionPlan
compileSmartMem(const ir::Graph &graph, const device::DeviceProfile &dev,
                const SmartMemOptions &options = SmartMemOptions());

/** The staged pipelines of Figure 8: 0 = DNNFusion baseline, 1 = +LTE,
 *  2 = +Layout Selecting, 3 = +Other (texture mapping).  All stages
 *  are auto-tuned, matching the paper's evaluation setup. */
runtime::ExecutionPlan
compileStage(const ir::Graph &graph, const device::DeviceProfile &dev,
             int stage);

/** The stage toggles compileStage() compiles `stage` (0..3) with. */
SmartMemOptions stagePreset(int stage);

/**
 * compileSmartMem(graph, dev, pipeline) for stage -1, compileStage(graph,
 * dev, stage) for stage 0..3 (whose preset overrides `pipeline`) --
 * minus the canonicalization both run first: `canon` must already be
 * canonicalizeGraph() output.  Both are wrappers over this;
 * CompileSession calls it with the canonical graph it builds for the
 * cache key, so a cold compile canonicalizes once.  Canonicalization is
 * idempotent, so the plans are the same.
 */
runtime::ExecutionPlan
compileCanonical(const ir::Graph &canon, const device::DeviceProfile &dev,
                 const SmartMemOptions &pipeline, int stage = -1);

/**
 * The graph canonicalization every compile above runs (or, for
 * compileCanonical, expects to have run) before planning:
 * opt::PassManager::defaultPipeline() driven to a fixed point
 * (identity-elim, CSE, algebraic simplification, constant folding,
 * conv+batchnorm folding, DCE).  The graph attached to a compiled plan
 * is exactly canonicalizeGraph(input) -- which is what a caller
 * revalidating a deserialized plan (serialize::parsePlan via
 * PlanCacheDir) must supply, since kernels index into the normalized
 * node/value ids, not the raw builder output's.  Canonicalization owns
 * plan-cache keys: graphs the pipeline does not rewrite keep a
 * byte-stable serialize::graphSignature().
 */
ir::Graph canonicalizeGraph(ir::Graph graph);

/** As above, also reporting what each pass did (for `smartmem_cli opt
 *  --print-stats` and the node-count regression gate). */
ir::Graph canonicalizeGraph(ir::Graph graph, opt::PipelineStats *stats);

} // namespace smartmem::core

#endif // SMARTMEM_CORE_SMARTMEM_COMPILER_H

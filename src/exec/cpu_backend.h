/**
 * @file
 * Plan-driven high-performance CPU execution backend.
 *
 * Unlike the reference executor (which walks the original graph) and
 * the functional runner (which replays a plan with the naive kernels),
 * CpuBackend executes the ExecutionPlan the way a device runtime
 * would:
 *
 *  - it launches the plan's fused kernels, not raw graph nodes;
 *  - every stored buffer is materialized in the plan's *chosen*
 *    physical layout (Layout::strides semantics, including vec4
 *    packing and texture storage order), from 64-byte-aligned
 *    allocations of a runtime::BufferPool reused by liveness;
 *  - operators eliminated by Layout Transformation Elimination are
 *    never executed: the consuming kernel reads through the composed
 *    IndexMap (one materialization per surviving chain, instead of
 *    one copy per eliminated operator);
 *  - compute runs on cache-blocked/tiled kernels (kernels_blocked.h)
 *    with fused element-wise epilogues, parallelized over batch /
 *    output tiles by support::parallelFor on the process-wide pool,
 *    under a thread budget of CpuBackendOptions::threads.
 *
 * Execution is split in two.  A private preparation makes every
 * per-plan decision once, lowering each kernel to a launch: how each
 * operand is read, the folded epilogue, the attributes, views and
 * offset tables, and how the output is stored.  A run then only
 * allocates, calls the bound kernels and releases by the prepared
 * schedule; of the plan it is given it reads only the kernel and value
 * counts.  A plan with a non-empty cacheKey is prepared on its first
 * run and reused by every later run of an equal key (docs/EXECUTION.md).
 *
 * Constants are interned per backend: each distinct constant (equal
 * bytes, found by a content hash and confirmed by memcmp) is stored
 * once, 64-byte aligned, and shared by every preparation that reads
 * it, so the batch-k plans of one model hold one copy of its weights.
 * The store holds its entries weakly: a constant is freed with the
 * last preparation that reads it (residentConstantBytes()).
 *
 * Results are byte-identical at every thread count (static work
 * partitioning; each output element is produced by exactly one task
 * in a fixed arithmetic order), identical whether or not the run
 * reused a preparation, and match the reference executor within 1e-4
 * relative tolerance (tests/cpu_backend_test.cc pins all three across
 * the model zoo).
 */
#ifndef SMARTMEM_EXEC_CPU_BACKEND_H
#define SMARTMEM_EXEC_CPU_BACKEND_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "exec/simd_dispatch.h"
#include "exec/tensor.h"
#include "runtime/plan.h"

namespace smartmem::exec {

/** Knobs for a CpuBackend instance, and the options of every
 *  execution backend (runtime::ExecutorOptions names this struct).
 *  The reference backend reads only `seed`. */
struct CpuBackendOptions
{
    /** Threads per run, installed as the calling thread's
     *  support::ThreadBudgetGuard; 0 = the caller's budget
     *  (SMARTMEM_THREADS env / hardware default when none is set),
     *  1 = fully serial. */
    int threads = 0;

    /** Seed for synthesized constants; must match the seed of the
     *  reference execution being compared against. */
    std::uint64_t seed = 1234;

    /** GEMM tile overrides, usually from exec::resolveTileParams() on
     *  a device profile; 0 = the kernels' built-in defaults. */
    std::int64_t gemmRowTile = 0;
    std::int64_t gemmKBlock = 0;
};

/** Counters of one run, handed out through the `stats` parameter of
 *  CpuBackend::run() and runtime::PlanExecutor::run(): the one
 *  channel run statistics flow through.  Each run fills its own
 *  copy, so concurrent runs never mix their counters. */
struct CpuBackendStats
{
    /** Kernels launched (= plan.operatorCount()). */
    int kernelsExecuted = 0;

    /** Explicit relayout kernels among them (data movement only). */
    int relayoutKernels = 0;

    /** Element-wise ops folded into a producer's fused epilogue pass
     *  instead of running as their own pass. */
    int fusedEpilogueOps = 0;

    /** Eliminated-chain reads reproduced via composed IndexMaps. */
    int substitutesMaterialized = 0;

    /** Bytes moved by layout packing/unpacking and relayout copies --
     *  the transformation work the plan did NOT eliminate. */
    std::int64_t bytesRelayouted = 0;

    /** High-water mark of the run's BufferPool: intermediates and
     *  kernel scratch, the realized counterpart of
     *  runtime::simulateMemory()'s peakIntermediateBytes.  Constants
     *  live in the backend's constant store and are not counted. */
    std::int64_t poolHighWaterBytes = 0;

    /** BufferPool allocations served by reuse. */
    std::int64_t poolReuses = 0;

    /** Stored packed/texture operands consumed in place by GEMM/conv
     *  micro-kernels (no unpack copy). */
    int nativeLayoutViews = 0;

    /** Kernel outputs written directly in the plan's chosen layout
     *  (no pack copy after the kernel). */
    int nativeLayoutStores = 0;

    /** FusedAttention launches; each runs the streaming
     *  online-softmax kernel, whatever Kernel::streamingAttention
     *  says. */
    int fusedAttentionKernels = 0;

    /** Score-matrix bytes those launches never materialized: the
     *  [batch, n, m] float panel a matmul+softmax+matmul chain would
     *  have written and re-read. */
    std::int64_t scoreBytesAvoided = 0;

    /** SIMD dispatch level the run executed at. */
    SimdLevel simdLevel = SimdLevel::Scalar;

    /** Resolved GEMM tile parameters the run used. */
    std::int64_t tileRowTile = 0;
    std::int64_t tileKBlock = 0;
};

/** Plan-consuming blocked CPU executor (see file header). */
class CpuBackend
{
  public:
    explicit CpuBackend(CpuBackendOptions options = CpuBackendOptions());

    /**
     * Execute the plan on the given model inputs (keyed by input value
     * id, row-major).  Returns the graph outputs in declaration order,
     * row-major.  `stats`, when non-null, receives the run's counters.
     *
     * A plan with a non-empty cacheKey is prepared on its first run
     * and the preparation is reused by every later run of an equal key
     * on this backend or a copy of it: equal non-empty keys promise
     * interchangeable plans (runtime::ExecutionPlan::cacheKey).  A
     * reused preparation is checked against the plan: a different
     * kernel or value count raises FatalError.  An unkeyed plan is
     * prepared on every call.  The SIMD level and the intermediate
     * buffers are per run either way; every run shares the
     * process-wide support::globalPool().  Safe to call concurrently.
     */
    std::vector<Tensor>
    run(const runtime::ExecutionPlan &plan,
        const std::map<ir::ValueId, Tensor> &inputs,
        CpuBackendStats *stats = nullptr) const;

    /** Bytes of interned constants currently held by this backend's
     *  preparations (64-byte-rounded allocations, each distinct
     *  constant counted once).  0 once no preparation is alive, e.g.
     *  after runs of unkeyed plans only. */
    std::int64_t residentConstantBytes() const;

    const CpuBackendOptions &options() const { return options_; }

  private:
    /** Prepared keyed plans and the interned constants, shared by
     *  copies of this backend. */
    struct Cache;

    CpuBackendOptions options_;
    std::shared_ptr<Cache> cache_;
};

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_CPU_BACKEND_H

/**
 * @file
 * Backend selection for plan execution: one name-keyed factory over
 * every engine that can run an ExecutionPlan with real float math,
 * following the DeviceRegistry/CompilerRegistry idiom (unknown names
 * raise a FatalError listing what is registered).
 *
 * Registered backends:
 *   "reference"    -- the functional runner (runPlanFunctional):
 *                     naive scalar kernels, correctness baseline.
 *   "cpu-blocked"  -- exec::CpuBackend: layout-aware, cache-blocked,
 *                     thread-pooled kernels (docs/EXECUTION.md).
 *
 * Both backends compute the same function (tests pin parity to 1e-4
 * relative tolerance across the model zoo), so callers choose purely
 * on speed: FunctionalRunner-style verification uses "reference",
 * `smartmem_cli run` and bench_exec_throughput default to
 * "cpu-blocked".
 */
#ifndef SMARTMEM_RUNTIME_PLAN_EXECUTOR_H
#define SMARTMEM_RUNTIME_PLAN_EXECUTOR_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/cpu_backend.h"
#include "exec/tensor.h"
#include "runtime/plan.h"

namespace smartmem::runtime {

/** Options shared by every execution backend. */
struct ExecutorOptions
{
    /** Threads per run; 0 = the caller's thread budget
     *  (SMARTMEM_THREADS env / hardware default when none is set).
     *  The reference backend is always serial. */
    int threads = 0;

    /** Seed for synthesized constants; executions to be compared must
     *  use the same seed. */
    std::uint64_t seed = 1234;

    /** GEMM tile parameters for the cpu-blocked backend, usually from
     *  exec::resolveTileParams() on the target's DeviceProfile; 0 =
     *  kernel defaults.  The reference backend ignores them. */
    std::int64_t gemmRowTile = 0;
    std::int64_t gemmKBlock = 0;
};

/**
 * A plan execution engine.  run() is safe to call concurrently from
 * any number of threads on one executor: the reference backend is
 * stateless, and cpu-blocked shares one exec::CpuBackend, whose
 * prepared-plan cache and constant store are mutex-guarded, so one
 * executor can serve many workers and prepare each keyed plan once.
 */
class PlanExecutor
{
  public:
    virtual ~PlanExecutor() = default;

    /** Registry name of this backend. */
    virtual const std::string &name() const = 0;

    /** Execute the plan; returns graph outputs in declaration order,
     *  row-major.  Thread-safe (see the class comment). */
    virtual std::vector<exec::Tensor>
    run(const ExecutionPlan &plan,
        const std::map<ir::ValueId, exec::Tensor> &inputs) = 0;

    /** Counters of the most recently *completed* run(), whole and
     *  never mixed across concurrent runs; zeroed for backends that
     *  keep none (reference). */
    virtual exec::CpuBackendStats lastRunStats() const { return {}; }
};

/** Registered backend names, in registry order. */
const std::vector<std::string> &executorNames();

/**
 * Construct a backend by name.  Throws FatalError for unknown names,
 * listing the registered backends -- the same contract as
 * DeviceRegistry::find().
 */
std::unique_ptr<PlanExecutor>
makeExecutor(const std::string &name,
             const ExecutorOptions &options = ExecutorOptions());

} // namespace smartmem::runtime

#endif // SMARTMEM_RUNTIME_PLAN_EXECUTOR_H

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

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/cpu_backend.h"
#include "exec/tensor.h"
#include "runtime/plan.h"

namespace smartmem::runtime {

/** Options of every execution backend: one struct, read whole by
 *  cpu-blocked and for its seed alone by the reference backend. */
using ExecutorOptions = exec::CpuBackendOptions;

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
     *  row-major.  `stats`, when non-null, receives this run's
     *  counters (zeros from the reference backend, which keeps none);
     *  it is the only channel run statistics flow through.
     *  Thread-safe (see the class comment). */
    virtual std::vector<exec::Tensor>
    run(const ExecutionPlan &plan,
        const std::map<ir::ValueId, exec::Tensor> &inputs,
        exec::CpuBackendStats *stats = nullptr) = 0;
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

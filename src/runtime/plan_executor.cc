#include "runtime/plan_executor.h"

#include "runtime/functional_runner.h"
#include "support/error.h"
#include "support/strings.h"

namespace smartmem::runtime {

namespace {

class ReferenceExecutor final : public PlanExecutor
{
  public:
    explicit ReferenceExecutor(const ExecutorOptions &opts)
        : seed_(opts.seed)
    {
    }

    const std::string &name() const override
    {
        static const std::string n = "reference";
        return n;
    }

    std::vector<exec::Tensor>
    run(const ExecutionPlan &plan,
        const std::map<ir::ValueId, exec::Tensor> &inputs,
        exec::CpuBackendStats *stats) override
    {
        if (stats != nullptr)
            *stats = exec::CpuBackendStats();
        return runPlanFunctional(plan, inputs, seed_);
    }

  private:
    std::uint64_t seed_;
};

class CpuBlockedExecutor final : public PlanExecutor
{
  public:
    explicit CpuBlockedExecutor(const ExecutorOptions &opts)
        : backend_(opts)
    {
    }

    const std::string &name() const override
    {
        static const std::string n = "cpu-blocked";
        return n;
    }

    std::vector<exec::Tensor>
    run(const ExecutionPlan &plan,
        const std::map<ir::ValueId, exec::Tensor> &inputs,
        exec::CpuBackendStats *stats) override
    {
        return backend_.run(plan, inputs, stats);
    }

  private:
    const exec::CpuBackend backend_;
};

} // namespace

const std::vector<std::string> &
executorNames()
{
    static const std::vector<std::string> names = {"reference",
                                                   "cpu-blocked"};
    return names;
}

std::unique_ptr<PlanExecutor>
makeExecutor(const std::string &name, const ExecutorOptions &options)
{
    if (name == "reference")
        return std::make_unique<ReferenceExecutor>(options);
    if (name == "cpu-blocked")
        return std::make_unique<CpuBlockedExecutor>(options);
    smFatal("unknown execution backend '" + name +
            "' (registered: " + joinStrings(executorNames(), ", ") +
            ")");
}

} // namespace smartmem::runtime

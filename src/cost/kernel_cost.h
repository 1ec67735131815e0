/**
 * @file
 * Analytic kernel/plan cost model for the simulated mobile GPU.
 *
 * For each kernel the model derives, from the plan's concrete layouts,
 * index maps and memory-space placements:
 *   - compute time   (MACs / (peak * per-op efficiency * layout factor))
 *   - memory time    (effective bytes / bandwidth of the chosen space,
 *                     where effective bytes include the line-utilization
 *                     penalty of the *actual probed access stride*)
 *   - index time     (div/mod count of the composed read maps)
 *   - launch overhead
 * plus the counters behind Figures 7/9 (element accesses, estimated
 * cache-miss lines).  Access strides are probed by evaluating the read
 * map + physical layout on neighbouring iteration coordinates, so every
 * penalty follows from decisions the compilers actually made -- there
 * are no per-framework fudge factors.
 */
#ifndef SMARTMEM_COST_KERNEL_COST_H
#define SMARTMEM_COST_KERNEL_COST_H

#include <cstdint>
#include <vector>

#include "device/device_profile.h"
#include "runtime/plan.h"

namespace smartmem::cost {

/** Cost breakdown for one kernel. */
struct KernelCost
{
    double seconds = 0;
    double computeSeconds = 0;
    double memorySeconds = 0;
    double indexSeconds = 0;
    double overheadSeconds = 0;

    /** The compute term's inputs: work (max of MACs and output
     *  elements; 0 for relayout kernels) and the untuned rate
     *  peak * op efficiency * layout factor it runs at, so that
     *  computeSeconds = computeWork / (computeRate * tunedEfficiency). */
    double computeWork = 0;
    double computeRate = 0;

    std::int64_t macs = 0;
    std::int64_t bytesRead = 0;      ///< effective (post-penalty) bytes
    std::int64_t bytesWritten = 0;   ///< effective bytes
    std::int64_t memAccessElems = 0; ///< logical element accesses
    std::int64_t cacheMissLines = 0; ///< estimated line fetches
    bool isLayoutTransform = false;  ///< explicit/implicit relayout kernel

    /** `seconds` as costKernel computes it for the kernel with its
     *  tunedEfficiency set to `tuned`: the same expression, so the
     *  auto-tuner scores configurations on cached terms with
     *  bit-identical results. */
    double secondsAt(double tuned) const;
};

/** Aggregated plan cost. */
struct PlanCost
{
    double seconds = 0;
    double computeSeconds = 0;
    double memorySeconds = 0;
    double indexSeconds = 0;
    double overheadSeconds = 0;

    /** Time spent in explicit relayout kernels that exist in the source
     *  graph (Reshape/Transpose nodes surviving as kernels). */
    double explicitTransformSeconds = 0;

    /** Time spent in relayout kernels the *compiler* inserted (implicit
     *  transformations, Table 1). */
    double implicitTransformSeconds = 0;

    std::int64_t macs = 0;
    std::int64_t bytesMoved = 0;
    std::int64_t memAccessElems = 0;
    std::int64_t cacheMissLines = 0;

    std::vector<KernelCost> perKernel;

    double latencyMs() const { return seconds * 1e3; }
    double gmacs() const
    {
        return seconds > 0
            ? static_cast<double>(macs) / seconds / 1e9 : 0;
    }
};

/** Cost one kernel of a plan. */
KernelCost costKernel(const device::DeviceProfile &dev,
                      const runtime::ExecutionPlan &plan,
                      const runtime::Kernel &kernel);

/** Cost the whole plan. */
PlanCost costPlan(const device::DeviceProfile &dev,
                  const runtime::ExecutionPlan &plan);

/**
 * Probed physical access stride (in elements) between consecutive
 * iteration steps along the consumer's preferred innermost dimension
 * for kernel input `in`, given that the kernel's first consuming node
 * is `node`.  Exposed for tests and the layout-selection scorer.
 */
std::int64_t probeReadStride(const ir::Graph &graph,
                             const runtime::KernelInput &in,
                             const ir::Node &node, int input_idx);

/** Bandwidth of a memory space: texture on texture-capable devices,
 *  global memory otherwise. */
double bandwidth(const device::DeviceProfile &dev, ir::MemSpace space);

/** Fraction of each fetched cache line that is useful at this stride. */
double lineUtilization(std::int64_t stride_elems, std::int64_t elem_bytes,
                       std::int64_t line_bytes);

/** First fused node of `kernel` consuming `value`, with the operand
 *  position; false when no fused node reads it. */
bool findConsumer(const ir::Graph &graph, const runtime::Kernel &kernel,
                  ir::ValueId value, const ir::Node **node_out,
                  int *idx_out);

/** Physical stride (in elements, >= 1) of one step along the
 *  innermost logical dimension of `shape` stored in `layout`. */
std::int64_t writeStride(const ir::Shape &shape, const ir::Layout &layout);

} // namespace smartmem::cost

#endif // SMARTMEM_COST_KERNEL_COST_H

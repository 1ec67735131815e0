/**
 * @file
 * The four benchmark workloads (perfbench/README.md says why each was
 * chosen).  A workload fills an Outcome: operations attempted/failed
 * and the raw metric values by name; run.py attaches units from
 * BENCHMARK.json and prints the result line.
 */
#ifndef SMARTMEM_PERFBENCH_WORKLOADS_H
#define SMARTMEM_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>

#include "perfbench/src/harness.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for plan caches; removed entries after use. */
    std::string workDir;
    /** Process start, the origin of the first setup_s sample. */
    Clock::time_point processStart;
};

struct Outcome
{
    Tally tally;
    /** End-to-end values (untraced) or per-layer values (traced). */
    std::map<std::string, double> values;
};

/** Run one workload; throws FatalError on an unknown name. */
Outcome runWorkload(const RunConfig &cfg, Tracer &tracer);

} // namespace perfbench

#endif // SMARTMEM_PERFBENCH_WORKLOADS_H

/**
 * @file
 * perfbench: runs one benchmark workload in this process and prints
 * the raw result line that perfbench/run.py turns into the benchmark
 * result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--trace-file FILE] [--source ID]
 *
 * Prints a `meta {...}` line (SIMD level, tile parameters, nproc, CPU
 * model, source id, seed), then the result JSON as the last line.
 * With --trace 1 the spans are written to --trace-file as Chrome
 * trace-event JSON.  Exit 0 on a completed run (failed checks are
 * reported in the result), 2 on bad arguments or a fatal error.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "device/device_registry.h"
#include "exec/kernels_blocked.h"
#include "exec/simd_dispatch.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "support/strings.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-file FILE] "
                 "[--source ID]\n",
                 why.c_str());
    std::exit(2);
}

std::int64_t
intArg(const std::string &flag, const std::string &value, std::int64_t lo)
{
    auto v = smartmem::parseInt64(value);
    if (!v || *v < lo)
        usage("invalid value for " + flag + ": '" + value + "'");
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point processStart = Clock::now();
    // Hermetic: no inherited plan cache (it would turn setup_s into a
    // disk read) and no thread-count override.
    for (const char *var : {"SMARTMEM_PLAN_CACHE",
                            "SMARTMEM_PLAN_CACHE_MAX_BYTES", "SMARTMEM_THREADS"})
        ::unsetenv(var);

    RunConfig cfg;
    cfg.processStart = processStart;
    std::string traceFile, source = "unknown";
    bool haveWorkload = false, haveWorkDir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            cfg.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            cfg.seed = static_cast<std::uint64_t>(intArg(flag, value, 0));
        } else if (flag == "--seconds") {
            cfg.seconds = static_cast<double>(intArg(flag, value, 1));
        } else if (flag == "--trace") {
            cfg.trace = intArg(flag, value, 0) != 0;
        } else if (flag == "--work-dir") {
            cfg.workDir = value;
            haveWorkDir = true;
        } else if (flag == "--trace-file") {
            traceFile = value;
        } else if (flag == "--source") {
            source = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload || !haveWorkDir)
        usage("--workload and --work-dir are required");

    const smartmem::exec::TileParams tiles = smartmem::exec::resolveTileParams(
        smartmem::device::DeviceRegistry::builtins().find("adreno740"));
    const std::map<std::string, std::string> meta = {
        {"workload", cfg.workload},
        {"seed", std::to_string(cfg.seed)},
        {"seconds", std::to_string(static_cast<int>(cfg.seconds))},
        {"trace", cfg.trace ? "1" : "0"},
        {"simd", smartmem::exec::simdLevelName(
                     smartmem::exec::activeSimdLevel())},
        {"tile", std::to_string(tiles.rowTile) + "x" +
                     std::to_string(tiles.kBlock)},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu", cpuModel()},
        {"source", source},
    };
    std::string metaLine;
    for (const auto &[k, v] : meta)
        metaLine += (metaLine.empty() ? "" : ", ") + jsonString(k) + ": " +
                    jsonString(v);
    std::printf("meta {%s}\n", metaLine.c_str());
    std::fflush(stdout);

    try {
        std::filesystem::create_directories(cfg.workDir);
        Tracer tracer(cfg.trace);
        Outcome out = runWorkload(cfg, tracer);
        if (cfg.trace && !traceFile.empty()) {
            std::ofstream f(traceFile);
            f << tracer.chromeJson(meta);
            if (!f)
                out.tally.fail();
        }
        std::printf("%s\n", resultJson(out.tally, out.values).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}

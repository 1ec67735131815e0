/**
 * @file
 * smartmem_cli — command-line driver for the library.
 *
 *   smartmem_cli list
 *       List the model zoo with op/MAC characteristics.
 *   smartmem_cli devices
 *       List the registered device profiles (the open-world target
 *       catalog; see docs/DEVICES.md for the .smdev file format).
 *   smartmem_cli compilers
 *       List the registered compilers (SmartMem, the Figure-8 stage
 *       presets, and the baseline framework proxies).
 *   smartmem_cli compile <model>|--graph-file <f>
 *                [--device <name>|--device-file <f>]
 *                [--compiler <name>] [--batch N] [--dump-plan]
 *                [--stages] [--threads N] [--repeat K]
 *                [--plan-cache DIR] [--plan-cache-max-bytes N]
 *       Compile a zoo model and report kernels / latency / memory.
 *       --repeat recompiles K times through the session plan cache
 *       and reports per-iteration wall time plus cache hits.
 *       --graph-file compiles an imported .smgraph instead of a zoo
 *       model (docs/GRAPHS.md); such graphs are fixed-batch, so
 *       --batch is rejected.
 *   smartmem_cli zoo [--device <name>|--device-file <f>]
 *                [--threads N] [--plan-cache DIR]
 *                [--plan-cache-max-bytes N]
 *       Compile every evaluation model across the thread pool and
 *       report kernels / latency per model plus total compile time.
 *   smartmem_cli run <model>|--graph-file <f> [--backend <name>]
 *                [--batch N] [--stage S] [--threads N] [--repeat K]
 *                [--verify] [--device <name>|--device-file <f>]
 *       Compile a zoo model and EXECUTE it with real float math on
 *       the selected backend ("cpu-blocked" by default, "reference"
 *       for the naive scalar executor), reporting wall time,
 *       throughput, and the intermediate-buffer pool high-water
 *       mark (constants excluded).  --verify
 *       additionally cross-checks the outputs against the reference
 *       executor (1e-4 relative tolerance) and exits non-zero on a
 *       mismatch.
 *   smartmem_cli serve --requests <file> [--device <name>|--device-file <f>]
 *                [--workers N] [--queue-cap N] [--max-batch N]
 *                [--deadline-ms X] [--no-coalesce] [--backend <name>]
 *                [--exec-threads N] [--seed N]
 *       Run the multi-tenant inference server (docs/SERVING.md) over
 *       a request file and report per-request responses plus serving
 *       statistics (batch coalescing, latency percentiles,
 *       backpressure counters).  Request lines are
 *       `<model|@graph-file> [device=D] [compiler=C] [stage=S]
 *       [count=N] [salt=N]`; blank lines and `#` comments are
 *       skipped.  All requests are submitted up front (so same-model
 *       bursts coalesce), then the server drains and the tables
 *       print.  Exits 1 if any request was rejected or failed.
 *   smartmem_cli opt <model>|--all [--batch N] [--passes a,b,c]
 *                [--print-stats] [--json FILE]
 *       Run the graph pass pipeline (docs/PASSES.md) over a zoo model
 *       (or, with --all, the evaluation zoo) and report pre/post
 *       operator counts plus per-pass rewrite statistics.  --passes
 *       selects a comma-separated subset/order instead of the default
 *       canonicalization pipeline; unknown pass names exit 2 listing
 *       the registered catalog.  --json writes the table for
 *       tools/diff_bench_json.py (the CI node-count regression gate).
 *   smartmem_cli classify
 *       Print the operator classification and pairwise action tables
 *       (the paper's Tables 3 and 5).
 *   smartmem_cli export-graph <model> [--batch N] [--canonical]
 *                [-o FILE]
 *       Serialize a zoo model to the `.smgraph` text format
 *       (docs/GRAPHS.md), to stdout or FILE.  --canonical exports
 *       the canonicalized graph the compiler actually plans.
 *   smartmem_cli import-graph <file>
 *       Parse and validate a `.smgraph` file; prints a summary on
 *       success, or every structural diagnostic and exits 2.
 *   smartmem_cli cache-gc [--plan-cache DIR] [--max-bytes N]
 *       Collect a plan-cache directory: always removes orphaned
 *       graph/alias files; with a byte cap (--max-bytes or
 *       SMARTMEM_PLAN_CACHE_MAX_BYTES) also evicts least-recently-
 *       used entries until the directory fits.
 *
 * Devices, compilers, and models resolve through
 * device::DeviceRegistry, core::CompilerRegistry, and
 * models::ModelRegistry; an unknown name exits 2 listing what is
 * registered.  --device-file loads a .smdev profile, so new targets
 * need no recompile.
 * Threads: 0 (default) = SMARTMEM_THREADS env or hardware threads.
 * Plan cache: --plan-cache DIR (or the SMARTMEM_PLAN_CACHE env var)
 *             persists compiled plans; warm entries replace the
 *             plan/select/tune pass with a disk read, and a byte cap
 *             (--plan-cache-max-bytes or
 *             SMARTMEM_PLAN_CACHE_MAX_BYTES) auto-collects LRU
 *             entries on store.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>

#include "bench/bench_util.h"
#include "core/compile_session.h"
#include "core/compiler_registry.h"
#include "core/smartmem_compiler.h"
#include "device/device_registry.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "exec/simd_dispatch.h"
#include "ir/macs.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "serialize/graph_text.h"
#include "serve/server.h"
#include "opclass/opclass.h"
#include "report/table.h"
#include "runtime/memory_pool.h"
#include "runtime/plan_executor.h"
#include "runtime/simulated_executor.h"
#include "support/error.h"
#include "support/strings.h"
#include "support/thread_pool.h"

using namespace smartmem;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: smartmem_cli list\n"
                 "       smartmem_cli devices\n"
                 "       smartmem_cli compilers\n"
                 "       smartmem_cli compile <model>|--graph-file F "
                 "[--device D] [--device-file F] [--compiler C] "
                 "[--batch N] [--dump-plan] [--stages] [--threads N] "
                 "[--repeat K] [--plan-cache DIR] "
                 "[--plan-cache-max-bytes N]\n"
                 "       smartmem_cli zoo [--device D] "
                 "[--device-file F] [--threads N] [--plan-cache DIR] "
                 "[--plan-cache-max-bytes N]\n"
                 "       smartmem_cli run <model>|--graph-file F "
                 "[--backend B] [--batch N] [--stage S] [--threads N] "
                 "[--repeat K] [--verify] [--device D] "
                 "[--device-file F]\n"
                 "       smartmem_cli serve --requests FILE "
                 "[--device D] [--device-file F] [--workers N] "
                 "[--queue-cap N] [--max-batch N] [--deadline-ms X] "
                 "[--no-coalesce] [--backend B] [--exec-threads N] "
                 "[--seed N]\n"
                 "       smartmem_cli opt <model>|--all [--batch N] "
                 "[--passes a,b,c] [--print-stats] [--json FILE]\n"
                 "       smartmem_cli classify\n"
                 "       smartmem_cli export-graph <model> [--batch N] "
                 "[--canonical] [-o FILE]\n"
                 "       smartmem_cli import-graph <file>\n"
                 "       smartmem_cli cache-gc [--plan-cache DIR] "
                 "[--max-bytes N]\n");
    return 2;
}

/** Resolve --device/--device-file; exits(2) with the registered
 *  names (not a usage dump) on an unknown name or a bad file. */
device::DeviceProfile
resolveDevice(const std::string &name, const std::string &file)
{
    try {
        if (!file.empty())
            return device::loadProfileFile(file);
        return device::DeviceRegistry::builtins().find(name);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/** Resolve --compiler; exits(2) with the registered names. */
const core::Compiler &
resolveCompiler(const std::string &name)
{
    try {
        return core::CompilerRegistry::builtins().find(name);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/** Resolve a zoo model name; exits(2) listing the catalog. */
const models::GraphSource &
resolveModel(const std::string &name)
{
    try {
        return models::ModelRegistry::builtins().find(name);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/** Load a .smgraph file; exits(2) with the parse/validation
 *  diagnostics on a malformed one. */
ir::Graph
loadGraphOrExit(const std::string &file)
{
    try {
        return models::loadGraphFile(file);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/** Parse a non-negative byte count (parseIntFlag tops out far below
 *  useful cache caps). */
std::int64_t
parseBytesFlag(const char *flag, const char *value)
{
    auto n = parseInt64(value);
    if (!n || *n < 0) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                     value);
        std::exit(2);
    }
    return *n;
}

int
cmdList()
{
    report::Table table({"Model", "Type", "Input", "Attention", "#Ops",
                         "#Transforms", "MACs(G)"});
    for (const auto &name : models::allModels()) {
        auto g = models::buildModel(name, 1);
        auto info = models::modelInfo(name);
        table.addRow({
            name, info.type, info.input, info.attention,
            std::to_string(g.operatorCount()),
            std::to_string(g.layoutTransformCount()),
            formatFixed(static_cast<double>(ir::graphMacs(g)) / 1e9, 1),
        });
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdDevices()
{
    const auto &reg = device::DeviceRegistry::builtins();
    report::Table table({"Name", "Device", "TMACs/s", "Buf GB/s",
                         "Tex GB/s", "Texture", "Memory"});
    for (const auto &name : reg.names()) {
        const auto &p = reg.find(name);
        table.addRow({
            name, p.name,
            formatFixed(p.peakMacsPerSec / 1e12, 2),
            formatFixed(p.globalBwBytesPerSec / 1e9, 0),
            p.hasTexture
                ? formatFixed(p.textureBwBytesPerSec / 1e9, 0)
                : "-",
            p.hasTexture ? "yes" : "no",
            formatBytes(static_cast<std::uint64_t>(
                p.memoryCapacityBytes)),
        });
    }
    std::printf("%s", table.render().c_str());
    std::printf("load additional profiles with --device-file FILE "
                "(.smdev format, see docs/DEVICES.md)\n");
    return 0;
}

int
cmdCompilers()
{
    const auto &reg = core::CompilerRegistry::builtins();
    report::Table table({"Name", "Plan cache", "Description"});
    for (const auto &name : reg.names()) {
        const auto &c = reg.find(name);
        table.addRow({name, c.usesPlanCache() ? "yes" : "no",
                      c.description()});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdClassify()
{
    std::printf("Operator classification (Table 3):\n");
    report::Table table({"Operator", "Quadrant"});
    for (int k = 0; k <= static_cast<int>(ir::kLastOpKind); ++k) {
        auto kind = static_cast<ir::OpKind>(k);
        if (ir::isTerminal(kind))
            continue;
        table.addRow({ir::opKindName(kind),
                      opclass::opClassName(opclass::classifyOp(kind))});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Pairwise producer->consumer actions (Table 5):\n");
    const opclass::OpClass quads[] = {
        opclass::ildVariable, opclass::iliVariable, opclass::ildFixed,
        opclass::iliFixed};
    report::Table actions({"First \\ Second", "ILD&Var", "ILI&Var",
                           "ILD&Fixed", "ILI&Fixed"});
    for (const auto &first : quads) {
        std::vector<std::string> row = {opclass::opClassName(first)};
        for (const auto &second : quads) {
            row.push_back(opclass::pairActionName(
                opclass::combinationAction(first, second)));
        }
        actions.addRow(std::move(row));
    }
    std::printf("%s", actions.render().c_str());
    return 0;
}

int
cmdExportGraph(int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-')
        return usage();
    std::string model = argv[2];
    std::string out_path;
    int batch = 1;
    bool canonical = false;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--batch" && i + 1 < argc)
            batch = bench::parseIntFlag("--batch", argv[++i], 1);
        else if (arg == "-o" && i + 1 < argc)
            out_path = argv[++i];
        else if (arg == "--canonical")
            canonical = true;
        else
            return usage();
    }

    ir::Graph g = resolveModel(model).build(batch);
    if (canonical)
        g = core::canonicalizeGraph(g);
    const std::string text = serialize::serializeGraph(g);
    if (out_path.empty()) {
        std::printf("%s", text.c_str());
        return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    out << text;
    out.flush();
    if (!out.good()) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s: %s batch %d%s, %zu values, %zu nodes, "
                "signature %s\n",
                out_path.c_str(), model.c_str(), batch,
                canonical ? " (canonicalized)" : "",
                g.values().size(), g.nodes().size(),
                serialize::graphSignature(g).c_str());
    return 0;
}

int
cmdImportGraph(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    // loadGraphOrExit exits 2 with one line per structural
    // diagnostic on anything malformed.
    ir::Graph g = loadGraphOrExit(argv[2]);
    std::printf("%s: %zu values, %zu nodes (%d operators, %d "
                "transforms), %zu inputs, %zu outputs\n",
                argv[2], g.values().size(), g.nodes().size(),
                g.operatorCount(), g.layoutTransformCount(),
                g.inputIds().size(), g.outputIds().size());
    std::printf("signature %s\n",
                serialize::graphSignature(g).c_str());
    return 0;
}

int
cmdCacheGc(int argc, char **argv)
{
    std::string dir;
    std::int64_t max_bytes = -1; // -1 = env / orphans only
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--plan-cache" && i + 1 < argc)
            dir = argv[++i];
        else if (arg == "--max-bytes" && i + 1 < argc)
            max_bytes = parseBytesFlag("--max-bytes", argv[++i]);
        else
            return usage();
    }
    if (dir.empty()) {
        if (const char *env = std::getenv("SMARTMEM_PLAN_CACHE"))
            dir = env;
    }
    if (dir.empty()) {
        std::fprintf(stderr,
                     "error: no plan cache directory (pass "
                     "--plan-cache DIR or set SMARTMEM_PLAN_CACHE)\n");
        return 2;
    }

    core::PlanCacheDir cache(dir, max_bytes);
    const std::int64_t cap =
        max_bytes >= 0 ? max_bytes : cache.maxBytes();
    auto st = cache.gc(cap);
    const std::string cap_note =
        cap > 0 ? ", cap " +
                      formatBytes(static_cast<std::uint64_t>(cap))
                : std::string(", no cap (orphan sweep only)");
    std::printf("plan cache %s: %s -> %s%s\n", dir.c_str(),
                formatBytes(static_cast<std::uint64_t>(
                    st.bytesBefore)).c_str(),
                formatBytes(static_cast<std::uint64_t>(
                    st.bytesAfter)).c_str(),
                cap_note.c_str());
    std::printf("  evicted %d entries, removed %d orphaned files\n",
                st.entriesEvicted, st.orphansRemoved);
    return 0;
}

int
cmdZoo(int argc, char **argv)
{
    std::string device_name = "adreno740";
    std::string device_file;
    std::string plan_cache;
    std::int64_t plan_cache_max = -1;
    int threads = 0;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--device" && i + 1 < argc)
            device_name = argv[++i];
        else if (arg == "--device-file" && i + 1 < argc)
            device_file = argv[++i];
        else if (arg == "--threads" && i + 1 < argc)
            threads = bench::parseIntFlag("--threads", argv[++i], 0);
        else if (arg == "--plan-cache" && i + 1 < argc)
            plan_cache = argv[++i];
        else if (arg == "--plan-cache-max-bytes" && i + 1 < argc)
            plan_cache_max = parseBytesFlag("--plan-cache-max-bytes",
                                            argv[++i]);
        else
            return usage();
    }
    auto dev = resolveDevice(device_name, device_file);
    auto names = models::evaluationModels();

    core::CompileSession session(dev, threads);
    if (!plan_cache.empty())
        session.setPlanCacheDir(plan_cache, plan_cache_max);
    else if (plan_cache_max >= 0 && session.planCacheDir())
        session.setPlanCacheDir(session.planCacheDir()->dir(),
                                plan_cache_max);
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    auto plans = session.compileZoo(names);
    double ms = std::chrono::duration<double, std::milli>(
                    clock::now() - t0).count();

    report::Table table({"Model", "#Kernels", "Relayouts",
                         "Latency(ms)", "GMACS"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto sim = runtime::simulate(dev, *plans[i]);
        table.addRow({
            names[i],
            std::to_string(plans[i]->operatorCount()),
            std::to_string(plans[i]->layoutCopyCount()),
            formatFixed(sim.latencyMs(), 1),
            formatFixed(sim.gmacs(), 0),
        });
    }
    std::printf("%s", table.render().c_str());
    std::printf("compiled %zu models in %.0f ms on %d threads (%s)\n",
                names.size(), ms, session.threadCount(),
                dev.name.c_str());
    if (session.planCacheDir()) {
        auto st = session.stats();
        std::printf("plan cache %s: %lld disk hits, %lld disk misses\n",
                    session.planCacheDir()->dir().c_str(),
                    static_cast<long long>(st.diskHits),
                    static_cast<long long>(st.diskMisses));
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string model;
    std::string graph_file;
    std::string device_name = "adreno740";
    std::string device_file;
    std::string backend = "cpu-blocked";
    int batch = 1;
    bool batch_set = false;
    int stage = -1;
    int threads = 0;
    int repeat = 1;
    bool verify = false;
    int i = 2;
    if (argv[2][0] != '-')
        model = argv[i++];
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--graph-file" && i + 1 < argc)
            graph_file = argv[++i];
        else if (arg == "--device" && i + 1 < argc)
            device_name = argv[++i];
        else if (arg == "--device-file" && i + 1 < argc)
            device_file = argv[++i];
        else if (arg == "--backend" && i + 1 < argc)
            backend = argv[++i];
        else if (arg == "--batch" && i + 1 < argc) {
            batch = bench::parseIntFlag("--batch", argv[++i], 1);
            batch_set = true;
        } else if (arg == "--stage" && i + 1 < argc)
            stage = bench::parseIntFlag("--stage", argv[++i], 0);
        else if (arg == "--threads" && i + 1 < argc)
            threads = bench::parseIntFlag("--threads", argv[++i], 0);
        else if (arg == "--repeat" && i + 1 < argc)
            repeat = bench::parseIntFlag("--repeat", argv[++i], 1);
        else if (arg == "--verify")
            verify = true;
        else
            return usage();
    }
    if (stage > 3) {
        std::fprintf(stderr, "error: --stage must be 0..3\n");
        return 2;
    }
    if (model.empty() == graph_file.empty()) {
        std::fprintf(stderr, "error: pass exactly one of <model> or "
                             "--graph-file FILE\n");
        return 2;
    }
    if (!graph_file.empty() && batch_set) {
        std::fprintf(stderr,
                     "error: --batch cannot be combined with "
                     "--graph-file (a .smgraph is fixed-batch; "
                     "re-export at the batch you need)\n");
        return 2;
    }

    auto dev = resolveDevice(device_name, device_file);
    core::CompileSession session(dev, threads);
    core::CompileOptions copts;
    copts.batch = batch;
    copts.stage = stage;
    std::shared_ptr<const runtime::ExecutionPlan> plan;
    if (!graph_file.empty()) {
        models::FileGraphSource src(loadGraphOrExit(graph_file));
        plan = session.compileSource(src, copts);
        model = graph_file; // display name below
    } else {
        plan = session.compileSource(resolveModel(model), copts);
    }

    std::printf("%s (batch %d%s): %d kernels on %s\n", model.c_str(),
                batch,
                stage >= 0 ? (", stage " + std::to_string(stage)).c_str()
                           : "",
                plan->operatorCount(), dev.name.c_str());

    runtime::ExecutorOptions eo;
    eo.threads = threads;
    const exec::TileParams tiles = exec::resolveTileParams(dev);
    eo.gemmRowTile = tiles.rowTile;
    eo.gemmKBlock = tiles.kBlock;
    std::unique_ptr<runtime::PlanExecutor> be;
    try {
        be = runtime::makeExecutor(backend, eo);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    // The reference backend is scalar by construction; cpu-blocked
    // dispatches at runtime (SMARTMEM_SIMD overrides detection).
    const char *simd = backend == "cpu-blocked"
                           ? exec::simdLevelName(exec::activeSimdLevel())
                           : "scalar";

    exec::Executor ex(eo.seed);
    auto inputs = exec::makeSeededInputs(plan->graph, ex);

    using clock = std::chrono::steady_clock;
    std::vector<exec::Tensor> outputs;
    std::vector<double> times;
    for (int r = 0; r < repeat; ++r) {
        auto t0 = clock::now();
        outputs = be->run(*plan, inputs);
        double ms = std::chrono::duration<double, std::milli>(
                        clock::now() - t0).count();
        times.push_back(ms);
        if (repeat > 1)
            std::printf("run %d/%d: %.1f ms\n", r + 1, repeat, ms);
    }
    std::sort(times.begin(), times.end());
    const double median = times[(times.size() - 1) / 2];
    double checksum = 0;
    for (const auto &t : outputs)
        for (std::int64_t i = 0; i < t.numElements(); ++i)
            checksum += static_cast<double>(t.at(i));
    std::printf("backend %-12s: median %.1f ms, %.2f inferences/s "
                "(%d threads, simd %s, tile %lldx%lld)\n",
                be->name().c_str(), median,
                1e3 * batch / median,
                eo.threads > 0 ? eo.threads
                               : support::defaultThreadCount(),
                simd, static_cast<long long>(tiles.rowTile),
                static_cast<long long>(tiles.kBlock));
    const exec::CpuBackendStats st = be->lastRunStats();
    if (st.poolHighWaterBytes > 0) {
        std::printf("  intermediate pool high-water %s\n",
                    formatBytes(static_cast<std::uint64_t>(
                        st.poolHighWaterBytes)).c_str());
    }
    if (st.fusedAttentionKernels > 0) {
        std::printf("  fused attention: %d streaming kernels, %s score "
                    "matrix avoided\n",
                    st.fusedAttentionKernels,
                    formatBytes(static_cast<std::uint64_t>(
                        st.scoreBytesAvoided)).c_str());
    }
    std::printf("  outputs %zu, checksum %.6g\n", outputs.size(),
                checksum);

    if (verify) {
        auto ref = ex.runOutputs(plan->graph, inputs);
        const float worst = exec::maxRelDiff(ref, outputs);
        const bool ok = worst <= 1e-4f;
        std::printf("verify vs reference executor: rel diff %.3e -> "
                    "%s\n",
                    static_cast<double>(worst), ok ? "PASS" : "FAIL");
        if (!ok)
            return 1;
    }
    return 0;
}

int
cmdOpt(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string model = argv[2];
    bool all = model == "--all";
    std::string passes_arg;
    std::string json_path;
    int batch = 1;
    bool print_stats = false;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--batch" && i + 1 < argc)
            batch = bench::parseIntFlag("--batch", argv[++i], 1);
        else if (arg == "--passes" && i + 1 < argc)
            passes_arg = argv[++i];
        else if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--print-stats")
            print_stats = true;
        else
            return usage();
    }

    // Build the pipeline: the canonicalization default, or the
    // comma-separated --passes selection (in the given order).
    opt::PassManager pm;
    try {
        if (passes_arg.empty()) {
            pm = opt::PassManager::defaultPipeline();
        } else {
            for (const auto &name :
                 splitString(passes_arg, ','))
                pm.add(name);
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    std::vector<std::string> names =
        all ? models::evaluationModels()
            : std::vector<std::string>{model};

    report::Table table({"Model", "OpsPre", "OpsPost", "TransformsPre",
                         "TransformsPost", "Removed", "Folded",
                         "Fused"});
    for (const auto &name : names) {
        auto g = resolveModel(name).build(batch);
        opt::PipelineStats stats;
        auto out = pm.runToFixedPoint(g, &stats);
        int removed = 0, folded = 0, fused = 0;
        for (const auto &r : stats.runs) {
            removed += r.stats.nodesRemoved;
            folded += r.stats.nodesFolded;
            fused += r.stats.nodesFused;
        }
        table.addRow({name, std::to_string(g.operatorCount()),
                      std::to_string(out.operatorCount()),
                      std::to_string(g.layoutTransformCount()),
                      std::to_string(out.layoutTransformCount()),
                      std::to_string(removed), std::to_string(folded),
                      std::to_string(fused)});
        if (print_stats) {
            std::printf("%s (batch %d):\n%s\n", name.c_str(), batch,
                        stats.toString().c_str());
        }
    }
    std::printf("%s", table.render().c_str());

    if (!json_path.empty()) {
        bench::JsonReport json("smartmem_cli_opt");
        json.add("Graph pass pipeline: pre/post operator counts "
                 "(batch " + std::to_string(batch) + ")",
                 table);
        json.writeTo(json_path);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}

int
cmdCompile(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string model;
    std::string graph_file;
    std::string device_name = "adreno740";
    std::string device_file;
    std::string compiler = "smartmem";
    std::string plan_cache;
    std::int64_t plan_cache_max = -1;
    int batch = 1;
    bool batch_set = false;
    int threads = 0;
    int repeat = 1;
    bool dump_plan = false;
    bool stages = false;
    int i = 2;
    if (argv[2][0] != '-')
        model = argv[i++];
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--graph-file" && i + 1 < argc)
            graph_file = argv[++i];
        else if (arg == "--device" && i + 1 < argc)
            device_name = argv[++i];
        else if (arg == "--device-file" && i + 1 < argc)
            device_file = argv[++i];
        else if (arg == "--compiler" && i + 1 < argc)
            compiler = argv[++i];
        else if (arg == "--batch" && i + 1 < argc) {
            batch = bench::parseIntFlag("--batch", argv[++i], 1);
            batch_set = true;
        } else if (arg == "--threads" && i + 1 < argc)
            threads = bench::parseIntFlag("--threads", argv[++i], 0);
        else if (arg == "--repeat" && i + 1 < argc)
            repeat = bench::parseIntFlag("--repeat", argv[++i], 1);
        else if (arg == "--plan-cache" && i + 1 < argc)
            plan_cache = argv[++i];
        else if (arg == "--plan-cache-max-bytes" && i + 1 < argc)
            plan_cache_max = parseBytesFlag("--plan-cache-max-bytes",
                                            argv[++i]);
        else if (arg == "--dump-plan")
            dump_plan = true;
        else if (arg == "--stages")
            stages = true;
        else
            return usage();
    }
    if (model.empty() == graph_file.empty()) {
        std::fprintf(stderr, "error: pass exactly one of <model> or "
                             "--graph-file FILE\n");
        return 2;
    }
    if (!graph_file.empty() && batch_set) {
        std::fprintf(stderr,
                     "error: --batch cannot be combined with "
                     "--graph-file (a .smgraph is fixed-batch; "
                     "re-export at the batch you need)\n");
        return 2;
    }

    auto dev = resolveDevice(device_name, device_file);
    const core::Compiler &comp = resolveCompiler(compiler);
    if (stages && compiler != "smartmem") {
        // The --stages sweep compiles via smartmem-stage0..3; a
        // different --compiler would be silently ignored.
        std::fprintf(stderr,
                     "error: --stages sweeps the smartmem-stage0..3 "
                     "presets and cannot be combined with --compiler "
                     "%s\n",
                     compiler.c_str());
        return 2;
    }
    if (!stages && !plan_cache.empty() && !comp.usesPlanCache()) {
        std::fprintf(stderr,
                     "error: --plan-cache requires a compiler that "
                     "flows through the session plan cache ('%s' "
                     "compiles outside it; see smartmem_cli "
                     "compilers)\n",
                     compiler.c_str());
        return 2;
    }

    // The thing being compiled: a zoo registry entry, or a graph
    // imported from a .smgraph file (fixed batch, already validated
    // by the parser).
    std::unique_ptr<models::FileGraphSource> file_src;
    const models::GraphSource *src = nullptr;
    ir::Graph g;
    if (!graph_file.empty()) {
        file_src = std::make_unique<models::FileGraphSource>(
            loadGraphOrExit(graph_file));
        g = file_src->graph();
        src = file_src.get();
        model = graph_file; // display name below
    } else {
        src = &resolveModel(model);
        g = src->build(batch);
    }
    std::printf("%s (batch %d): %d operators, %d transforms, %.1f "
                "GMACs on %s\n",
                model.c_str(), batch, g.operatorCount(),
                g.layoutTransformCount(),
                static_cast<double>(ir::graphMacs(g)) / 1e9,
                dev.name.c_str());

    core::CompileSession session(dev, threads);
    if (!plan_cache.empty())
        session.setPlanCacheDir(plan_cache, plan_cache_max);
    else if (plan_cache_max >= 0 && session.planCacheDir())
        session.setPlanCacheDir(session.planCacheDir()->dir(),
                                plan_cache_max);
    else if (!stages && !comp.usesPlanCache())
        session.setPlanCacheDir(""); // detach SMARTMEM_PLAN_CACHE:
                                     // baselines never touch it, so
                                     // don't report it as active

    if (stages) {
        // The four Figure-8 presets through the compiler registry;
        // each flows through the session, so --plan-cache persists
        // all four.
        report::Table table({"Stage", "#Kernels", "Latency(ms)",
                             "GMACS"});
        const char *names[] = {"DNNF", "+LTE", "+LayoutSel", "+Other"};
        for (int s = 0; s <= 3; ++s) {
            const core::Compiler &staged = resolveCompiler(
                "smartmem-stage" + std::to_string(s));
            core::CompileOptions copts;
            copts.batch = batch;
            auto res = staged.compileSource(session, *src, copts);
            auto sim = runtime::simulate(dev, *res.plan);
            table.addRow({names[s],
                          std::to_string(res.plan->operatorCount()),
                          formatFixed(sim.latencyMs(), 2),
                          formatFixed(sim.gmacs(), 0)});
        }
        std::printf("%s", table.render().c_str());
        return 0;
    }

    core::CompileOptions copts;
    copts.batch = batch;
    using clock = std::chrono::steady_clock;
    std::shared_ptr<const runtime::ExecutionPlan> compiled;
    for (int r = 0; r < repeat; ++r) {
        auto t0 = clock::now();
        auto res = comp.compileSource(session, *src, copts);
        double ms = std::chrono::duration<double, std::milli>(
                        clock::now() - t0).count();
        if (!res.supported) {
            std::printf("%s does not support %s: %s\n",
                        compiler.c_str(), model.c_str(),
                        res.reason.c_str());
            return 1;
        }
        compiled = res.plan;
        if (repeat > 1)
            std::printf("compile %d/%d: %.2f ms\n", r + 1, repeat, ms);
    }
    runtime::ExecutionPlan plan = *compiled;
    auto st = session.stats();
    if (repeat > 1 && comp.usesPlanCache()) {
        std::printf("plan cache: %lld hits, %lld misses\n",
                    static_cast<long long>(st.cacheHits),
                    static_cast<long long>(st.cacheMisses));
    }
    if (session.planCacheDir()) {
        std::printf("plan cache %s: %lld disk hits, %lld disk "
                    "misses\n",
                    session.planCacheDir()->dir().c_str(),
                    static_cast<long long>(st.diskHits),
                    static_cast<long long>(st.diskMisses));
    }

    auto sim = runtime::simulate(dev, plan);
    auto mem = runtime::simulateMemory(plan);
    std::printf("compiler %-12s: %d kernels (%d relayouts)\n",
                plan.compilerName.c_str(), plan.operatorCount(),
                plan.layoutCopyCount());
    std::printf("latency %.2f ms (%.0f GMACS)%s\n", sim.latencyMs(),
                sim.gmacs(), sim.fits ? "" : "  ** exceeds memory **");
    std::printf("  compute %.2f ms | memory %.2f ms | index %.3f ms | "
                "launch %.2f ms\n",
                sim.cost.computeSeconds * 1e3,
                sim.cost.memorySeconds * 1e3,
                sim.cost.indexSeconds * 1e3,
                sim.cost.overheadSeconds * 1e3);
    std::printf("  peak intermediates %s + weights %s; active "
                "redundant copies %s\n",
                formatBytes(static_cast<std::uint64_t>(
                    mem.peakIntermediateBytes)).c_str(),
                formatBytes(static_cast<std::uint64_t>(
                    mem.constantBytes)).c_str(),
                formatBytes(static_cast<std::uint64_t>(
                    mem.maxActiveRedundantCopyBytes)).c_str());
    if (dump_plan)
        std::printf("\n%s", plan.toString().c_str());
    return 0;
}

/** One parsed request-file line: a request template plus a repeat
 *  count (`count=N`). */
struct RequestLine
{
    serve::InferenceRequest request;
    int count = 1;
};

/** Parse one request line: `<model|@file> [device=] [compiler=]
 *  [stage=] [count=] [salt=]`.  Exits(2) on junk, naming the line. */
RequestLine
parseRequestLine(const std::string &line, int lineNo)
{
    RequestLine out;
    std::vector<std::string> tokens;
    std::string cur;
    for (char c : line) {
        if (c == ' ' || c == '\t') {
            if (!cur.empty())
                tokens.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    out.request.model = tokens.at(0);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        auto eq = tok.find('=');
        std::string key = eq == std::string::npos ? tok
                                                  : tok.substr(0, eq);
        std::string value =
            eq == std::string::npos ? "" : tok.substr(eq + 1);
        if (key == "device") {
            out.request.device = value;
        } else if (key == "compiler") {
            out.request.compiler = value;
        } else if (key == "stage") {
            out.request.stage = bench::parseIntFlag("stage",
                                                    value.c_str(), 0);
        } else if (key == "count") {
            out.count = bench::parseIntFlag("count", value.c_str(), 1);
        } else if (key == "salt") {
            out.request.inputSalt = static_cast<std::uint64_t>(
                bench::parseIntFlag("salt", value.c_str(), 0));
        } else {
            std::fprintf(stderr,
                         "requests line %d: unknown field '%s' "
                         "(known: device, compiler, stage, count, "
                         "salt)\n",
                         lineNo, key.c_str());
            std::exit(2);
        }
    }
    return out;
}

int
cmdServe(int argc, char **argv)
{
    std::string requestsFile, deviceName = "adreno740", deviceFile;
    serve::ServerOptions so;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--requests" && i + 1 < argc)
            requestsFile = argv[++i];
        else if (arg == "--device" && i + 1 < argc)
            deviceName = argv[++i];
        else if (arg == "--device-file" && i + 1 < argc)
            deviceFile = argv[++i];
        else if (arg == "--workers" && i + 1 < argc)
            so.workers = bench::parseIntFlag("--workers", argv[++i], 1);
        else if (arg == "--queue-cap" && i + 1 < argc)
            so.queueCapacity = static_cast<std::size_t>(
                bench::parseIntFlag("--queue-cap", argv[++i], 1));
        else if (arg == "--max-batch" && i + 1 < argc)
            so.maxBatch =
                bench::parseIntFlag("--max-batch", argv[++i], 1);
        else if (arg == "--deadline-ms" && i + 1 < argc)
            so.batchDeadlineMs = std::atof(argv[++i]);
        else if (arg == "--no-coalesce")
            so.coalesce = false;
        else if (arg == "--backend" && i + 1 < argc)
            so.backend = argv[++i];
        else if (arg == "--exec-threads" && i + 1 < argc)
            so.executorThreads =
                bench::parseIntFlag("--exec-threads", argv[++i], 1);
        else if (arg == "--seed" && i + 1 < argc)
            so.seed = static_cast<std::uint64_t>(
                bench::parseIntFlag("--seed", argv[++i], 0));
        else
            return usage();
    }
    if (requestsFile.empty())
        return usage();

    std::ifstream in(requestsFile);
    if (!in) {
        std::fprintf(stderr, "error: cannot read requests file %s\n",
                     requestsFile.c_str());
        return 2;
    }
    std::vector<RequestLine> lines;
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        lines.push_back(parseRequestLine(line, lineNo));
    }
    if (lines.empty()) {
        std::fprintf(stderr, "error: %s has no requests\n",
                     requestsFile.c_str());
        return 2;
    }

    device::DeviceProfile dev = resolveDevice(deviceName, deviceFile);
    so.extraDevices = {dev};
    so.defaultDevice = dev.name;
    serve::InferenceServer server(std::move(so));

    // Submit everything up front (same-model bursts coalesce), then
    // collect in submission order.
    std::vector<std::future<serve::InferenceResponse>> futures;
    std::vector<std::string> names;
    for (const RequestLine &rl : lines) {
        for (int c = 0; c < rl.count; ++c) {
            serve::InferenceRequest r = rl.request;
            r.inputSalt += static_cast<std::uint64_t>(c);
            names.push_back(r.model);
            futures.push_back(server.submit(std::move(r)));
        }
    }

    int bad = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        serve::InferenceResponse r = futures[i].get();
        if (r.ok()) {
            std::printf("#%zu %-14s ok     batch=%d queue %.2f ms, "
                        "total %.2f ms\n",
                        i, names[i].c_str(), r.batchSize, r.queueMs,
                        r.totalMs);
        } else {
            ++bad;
            std::printf("#%zu %-14s %s: %s\n", i, names[i].c_str(),
                        serve::responseStatusName(r.status),
                        r.error.c_str());
        }
    }
    server.shutdown(true);

    auto st = server.stats();
    std::printf("%s", report::banner("serving stats").c_str());
    report::Table global({"submitted", "served", "rejected", "failed",
                          "coalesced", "batches", "mean batch",
                          "queue high-water"});
    global.addRow({std::to_string(st.global.submitted),
                   std::to_string(st.global.served),
                   std::to_string(st.global.rejected),
                   std::to_string(st.global.failed),
                   std::to_string(st.global.coalesced),
                   std::to_string(st.global.batches),
                   formatFixed(st.global.meanBatchSize(), 2),
                   std::to_string(st.queueHighWater)});
    std::printf("%s\n", global.render().c_str());

    report::Table lat({"model", "served", "p50 ms", "p90 ms",
                       "p99 ms", "queue p50 ms", "mean batch"});
    for (const auto &kv : st.perModel) {
        const serve::StatsBlock &b = kv.second;
        lat.addRow({kv.first, std::to_string(b.served),
                    formatFixed(b.totalLatency.p50(), 2),
                    formatFixed(b.totalLatency.p90(), 2),
                    formatFixed(b.totalLatency.p99(), 2),
                    formatFixed(b.queueLatency.p50(), 2),
                    formatFixed(b.meanBatchSize(), 2)});
    }
    lat.addRow({"(all)", std::to_string(st.global.served),
                formatFixed(st.global.totalLatency.p50(), 2),
                formatFixed(st.global.totalLatency.p90(), 2),
                formatFixed(st.global.totalLatency.p99(), 2),
                formatFixed(st.global.queueLatency.p50(), 2),
                formatFixed(st.global.meanBatchSize(), 2)});
    std::printf("%s\n", lat.render().c_str());

    if (!st.global.batchHistogram.empty()) {
        report::Table hist({"batch size", "executions"});
        for (const auto &kv : st.global.batchHistogram)
            hist.addRow({std::to_string(kv.first),
                         std::to_string(kv.second)});
        std::printf("%s\n", hist.render().c_str());
    }

    if (bad > 0)
        std::printf("%d request(s) not served\n", bad);
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    try {
        std::string cmd = argv[1];
        if (cmd == "list")
            return cmdList();
        if (cmd == "devices")
            return cmdDevices();
        if (cmd == "compilers")
            return cmdCompilers();
        if (cmd == "classify")
            return cmdClassify();
        if (cmd == "compile")
            return cmdCompile(argc, argv);
        if (cmd == "opt")
            return cmdOpt(argc, argv);
        if (cmd == "run")
            return cmdRun(argc, argv);
        if (cmd == "serve")
            return cmdServe(argc, argv);
        if (cmd == "zoo")
            return cmdZoo(argc, argv);
        if (cmd == "export-graph")
            return cmdExportGraph(argc, argv);
        if (cmd == "import-graph")
            return cmdImportGraph(argc, argv);
        if (cmd == "cache-gc")
            return cmdCacheGc(argc, argv);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

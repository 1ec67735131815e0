/**
 * @file
 * Real wall-clock inference throughput across the model zoo: the
 * cpu-blocked execution backend running stage0 (DNNFusion-style, all
 * layout transformations executed) vs stage3 (full SmartMem, chains
 * eliminated) plans, plus the naive reference executor as the
 * speedup baseline -- the measured-time counterpart of the simulated
 * Figure 8/Table 8 numbers.
 *
 *   bench_exec_throughput [shared flags]
 *     [--batches CSV]        batch sizes to run         (default 1,4)
 *     [--models CSV]         zoo subset                 (default all 18)
 *     [--gmacs-cap G]        skip (model, batch) above G model GMACs
 *                            (default 20; 0 = no cap)
 *     [--ref-gmacs-cap G]    time the reference executor only at the
 *                            smallest batch and below G GMACs
 *                            (default 8; 0 = never)
 *     [--check]              parity smoke instead of timing: every
 *                            backend must match the reference
 *                            executor on tiny variants of the whole
 *                            zoo (stages 0 and 3) within 1e-4
 *                            relative tolerance, and cpu-blocked must
 *                            be byte-identical across thread counts;
 *                            exits non-zero on any mismatch (the CI
 *                            gate).
 *     [--assert-attention-gain]
 *                            exit non-zero unless the fused-attention
 *                            A/B (streaming vs materializing kernel,
 *                            same plan, 1 thread) shows >= 1.10x on
 *                            at least one attention-carrying model
 *                            (the CI perf gate for ISSUE 10).
 *
 * Per-model roofline columns: GF/s is measured, AI is the cost
 * model's arithmetic intensity (MACs per effective byte moved), and
 * %Peak relates measured MAC throughput to the .smdev profile's
 * peak_macs_per_sec (meta keys peak_gmacs / global_bw_gbps carry the
 * roofline parameters into --json).
 *
 * --json output is diff_bench_json.py-compatible, one table per
 * batch; wall-clock cells are NOT goldened (they are runner-
 * dependent), but the JSON lets CI archive and compare runs by hand.
 */
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "core/layout_select.h"
#include "core/planner.h"
#include "core/tuner.h"
#include "cost/kernel_cost.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "exec/simd_dispatch.h"
#include "opt/pass.h"
#include "runtime/plan_executor.h"

using namespace smartmem;

namespace {

struct ThroughputOptions
{
    std::vector<int> batches = {1, 4};
    std::vector<std::string> models;
    double gmacsCap = 20.0;
    double refGmacsCap = 8.0;
    bool check = false;
    bool assertAttentionGain = false;
};

/** Parse a comma-separated list of positive ints; exits(2) on junk. */
std::vector<int>
parseIntList(const char *flag, const std::string &csv)
{
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t stop = csv.find(',', pos);
        if (stop == std::string::npos)
            stop = csv.size();
        auto v = parseInt64(csv.substr(pos, stop - pos));
        if (!v || *v < 1 || *v > 64) {
            std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                         csv.c_str());
            std::exit(2);
        }
        out.push_back(static_cast<int>(*v));
        pos = stop + 1;
    }
    return out;
}

std::vector<std::string>
parseNameList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t stop = csv.find(',', pos);
        if (stop == std::string::npos)
            stop = csv.size();
        out.push_back(csv.substr(pos, stop - pos));
        pos = stop + 1;
    }
    return out;
}

double
parseGmacs(const char *flag, const char *value)
{
    char *end = nullptr;
    double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || v < 0) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                     value);
        std::exit(2);
    }
    return v;
}

/** Split this bench's extra flags off argv, leaving the shared ones
 *  for parseBenchArgs. */
ThroughputOptions
extractThroughputArgs(int &argc, char **argv)
{
    ThroughputOptions t;
    t.models = models::evaluationModels();
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--batches" && i + 1 < argc) {
            t.batches = parseIntList("--batches", argv[++i]);
        } else if (arg == "--models" && i + 1 < argc) {
            t.models = parseNameList(argv[++i]);
        } else if (arg == "--gmacs-cap" && i + 1 < argc) {
            t.gmacsCap = parseGmacs("--gmacs-cap", argv[++i]);
        } else if (arg == "--ref-gmacs-cap" && i + 1 < argc) {
            t.refGmacsCap = parseGmacs("--ref-gmacs-cap", argv[++i]);
        } else if (arg == "--check") {
            t.check = true;
        } else if (arg == "--assert-attention-gain") {
            t.assertAttentionGain = true;
        } else {
            argv[w++] = argv[i];
        }
    }
    argc = w;
    return t;
}

constexpr float kParityTolerance = 1e-4f;
constexpr std::uint64_t kSeed = 77;

// -------------------------------------------------------------------
// --check: zoo-wide parity smoke (the CI gate)
// -------------------------------------------------------------------

int
runCheck(const bench::BenchOptions &opts, const ThroughputOptions &t)
{
    auto dev = bench::resolveDevice(opts, "adreno740");
    const exec::TileParams tiles = exec::resolveTileParams(dev);
    int failures = 0;
    int checks = 0;
    for (const auto &name : t.models) {
        auto g = models::buildTinyVariant(name, 1);
        exec::Executor ex(kSeed);
        for (int stage : {0, 3}) {
            auto plan = core::compileStage(g, dev, stage);
            auto inputs = exec::makeSeededInputs(plan.graph, ex);
            auto ref = ex.runOutputs(plan.graph, inputs);
            for (const auto &backend : runtime::executorNames()) {
                runtime::ExecutorOptions eo;
                eo.threads = opts.threads;
                eo.seed = kSeed;
                eo.gemmRowTile = tiles.rowTile;
                eo.gemmKBlock = tiles.kBlock;
                auto got = runtime::makeExecutor(backend, eo)
                               ->run(plan, inputs);
                float rd = exec::maxRelDiff(ref, got);
                ++checks;
                if (rd > kParityTolerance) {
                    std::fprintf(stderr,
                                 "FAIL %s stage%d %s: rel diff %.3e "
                                 "(tolerance %.0e)\n",
                                 name.c_str(), stage, backend.c_str(),
                                 rd, static_cast<double>(
                                         kParityTolerance));
                    ++failures;
                }
            }
            // Thread-count determinism: byte-identical outputs.
            runtime::ExecutorOptions serial;
            serial.threads = 1;
            serial.seed = kSeed;
            serial.gemmRowTile = tiles.rowTile;
            serial.gemmKBlock = tiles.kBlock;
            runtime::ExecutorOptions pooled = serial;
            pooled.threads = opts.threads > 1 ? opts.threads : 4;
            auto a = runtime::makeExecutor("cpu-blocked", serial)
                         ->run(plan, inputs);
            auto b = runtime::makeExecutor("cpu-blocked", pooled)
                         ->run(plan, inputs);
            ++checks;
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (std::memcmp(a[i].data(), b[i].data(),
                                static_cast<std::size_t>(
                                    a[i].numElements()) *
                                    sizeof(float)) != 0) {
                    std::fprintf(stderr,
                                 "FAIL %s stage%d: outputs differ "
                                 "between 1 and %d threads\n",
                                 name.c_str(), stage, pooled.threads);
                    ++failures;
                    break;
                }
            }
        }
    }
    std::printf("parity check: %d checks, %d failures (%zu models, "
                "stages 0/3, backends: %zu, threads %d, simd %s)\n",
                checks, failures, t.models.size(),
                runtime::executorNames().size(), opts.threads,
                exec::simdLevelName(exec::activeSimdLevel()));
    return failures == 0 ? 0 : 1;
}

// -------------------------------------------------------------------
// Timing mode
// -------------------------------------------------------------------

/**
 * The "fusion off" A/B arm: a full stage-3 compile with the
 * attention-fusion pass and the FusionPolicy knob switched off, so
 * the matmul/scale/add/softmax/matmul chain runs as separate kernels
 * with materialized O(n^2) score intermediates.
 */
runtime::ExecutionPlan
compileStage3NoAttention(const ir::Graph &graph,
                         const device::DeviceProfile &dev)
{
    opt::PassManager pm;
    for (const std::string &pn : opt::PassManager::passNames()) {
        if (pn != "attention-fusion")
            pm.add(pn);
    }
    ir::Graph g = pm.runToFixedPoint(graph);

    core::FusionPolicy p;
    p.fuseEltwiseChains = true;
    p.fuseEltwiseIntoIld = true;
    p.fusePreChains = true;
    p.fuseNormMatmulPrologue = true;
    p.maxPostOps = 64;
    p.fuseAttentionBlock = false;
    p.fuseTransformChains = true;
    p.eliminateTransforms = true;
    p.simplifyIndexMaps = true;
    runtime::ExecutionPlan plan = core::planGraph(g, p);
    plan.compilerName = "SmartMem-noattn";
    core::assignLayouts(plan,
                        dev.hasTexture
                            ? core::LayoutStrategy::SmartSelect
                            : core::LayoutStrategy::SmartSelectBufferOnly,
                        dev, /*allowRedundantCopies=*/true);
    core::tunePlan(plan, dev);
    return plan;
}

double
timeRun(runtime::PlanExecutor &be, const runtime::ExecutionPlan &plan,
        const std::map<ir::ValueId, exec::Tensor> &inputs,
        exec::CpuBackendStats *stats = nullptr)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    auto out = be.run(plan, inputs, stats);
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
}

ThroughputOptions g_topts; // set once in main, read by run()
double g_bestAttentionGain = 0; // best A/B ratio, read by main()

void
run(const bench::BenchOptions &opts, bool print, bench::JsonReport &json)
{
    const ThroughputOptions &t = g_topts;
    auto dev = bench::resolveDevice(opts, "adreno740");
    const exec::TileParams tiles = exec::resolveTileParams(dev);
    const char *simd = exec::simdLevelName(exec::activeSimdLevel());
    const int min_batch =
        *std::min_element(t.batches.begin(), t.batches.end());

    json.setMeta("simd", simd);
    json.setMeta("gemm_row_tile", std::to_string(tiles.rowTile));
    json.setMeta("gemm_k_block", std::to_string(tiles.kBlock));
    json.setMeta("peak_gmacs",
                 formatFixed(dev.peakMacsPerSec / 1e9, 1));
    json.setMeta("global_bw_gbps",
                 formatFixed(dev.globalBwBytesPerSec / 1e9, 1));

    if (print)
        std::printf("%s", report::banner(
            "Execution throughput: reference vs cpu-blocked, stage0 "
            "vs stage3 (" + dev.name + ", simd " + simd + ")").c_str());

    struct GeoMean
    {
        double logSum = 0;
        int n = 0;
        void add(double ratio) { logSum += std::log(ratio); ++n; }
        double value() const
        {
            return n ? std::exp(logSum / n) : 0.0;
        }
    };
    GeoMean ref_gain, stage_gain, stage_gain_tf;

    for (int batch : t.batches) {
        report::Table table({"Model", "GMACs", "Ref(ms)", "Stage0(ms)",
                             "Stage3(ms)", "Ref/S3", "S0/S3", "GF/s",
                             "AI", "%Peak"});
        for (const auto &name : t.models) {
            auto g = models::buildModel(name, batch);
            const double gmacs =
                static_cast<double>(ir::graphMacs(g)) / 1e9;
            if (t.gmacsCap > 0 && gmacs > t.gmacsCap) {
                table.addRow({name, formatFixed(gmacs, 1), "-", "-",
                              "-", "-", "-", "-", "-", "-"});
                continue;
            }
            exec::Executor ex(kSeed);
            auto plan0 = core::compileStage(g, dev, 0);
            auto plan3 = core::compileStage(g, dev, 3);
            auto inputs = exec::makeSeededInputs(plan3.graph, ex);

            runtime::ExecutorOptions eo;
            eo.threads = opts.threads;
            eo.seed = kSeed;
            eo.gemmRowTile = tiles.rowTile;
            eo.gemmKBlock = tiles.kBlock;
            auto blocked = runtime::makeExecutor("cpu-blocked", eo);
            const double s0_ms = timeRun(*blocked, plan0, inputs);
            const double s3_ms = timeRun(*blocked, plan3, inputs);

            // The reference baseline is only timed where it finishes
            // in reasonable time AND the comparison is the paper's
            // claim: matmul-heavy (transformer/hybrid) models.  Naive
            // convolution is 50-100x slower than the blocked path,
            // which would dominate the bench's wall time for a
            // comparison nobody disputes.
            const auto info = models::modelInfo(name);
            const bool matmul_heavy = info.type != "ConvNet";
            std::string ref_cell = "-";
            if (t.refGmacsCap > 0 && gmacs <= t.refGmacsCap &&
                batch == min_batch && matmul_heavy) {
                using clock = std::chrono::steady_clock;
                auto t0 = clock::now();
                auto out = ex.runOutputs(plan3.graph, inputs);
                const double ref_ms =
                    std::chrono::duration<double, std::milli>(
                        clock::now() - t0).count();
                ref_cell = formatFixed(ref_ms, 0);
                ref_gain.add(ref_ms / s3_ms);
            }

            stage_gain.add(s0_ms / s3_ms);
            if (info.type == "Transformer" || info.type == "Hybrid")
                stage_gain_tf.add(s0_ms / s3_ms);

            // Roofline placement: the cost model's arithmetic
            // intensity (MACs per effective byte of the stage-3 plan)
            // and measured MAC throughput as a fraction of the .smdev
            // profile's peak.
            const cost::PlanCost pc = cost::costPlan(dev, plan3);
            const double ai = pc.bytesMoved > 0
                ? static_cast<double>(pc.macs) /
                      static_cast<double>(pc.bytesMoved)
                : 0.0;
            const double measured_macs_per_sec =
                gmacs * 1e9 / (s3_ms / 1e3);
            const double pct_peak = dev.peakMacsPerSec > 0
                ? 100.0 * measured_macs_per_sec / dev.peakMacsPerSec
                : 0.0;

            table.addRow({
                name,
                formatFixed(gmacs, 1),
                ref_cell,
                formatFixed(s0_ms, 0),
                formatFixed(s3_ms, 0),
                ref_cell == "-"
                    ? "-"
                    : report::formatSpeedup(
                          std::strtod(ref_cell.c_str(), nullptr) /
                          s3_ms),
                report::formatSpeedup(s0_ms / s3_ms),
                formatFixed(2.0 * gmacs / (s3_ms / 1e3), 1),
                formatFixed(ai, 1),
                formatFixed(pct_peak, 1),
            });
        }
        const std::string title =
            "Execution throughput, batch " + std::to_string(batch);
        json.add(title, table);
        if (print)
            std::printf("-- batch %d --\n%s\n", batch,
                        table.render().c_str());
    }

    // ---------------------------------------------------------------
    // Fused-attention A/B: stage-3 as compiled (attention fusion on,
    // streaming online-softmax kernel) vs the same stage-3 pipeline
    // with attention fusion switched off (separate matmul/scale/add/
    // softmax/matmul kernels, materialized score matrices).  Single-
    // threaded so the ratio isolates the execution strategy, not the
    // partitioner.
    // ---------------------------------------------------------------
    {
        report::Table ab({"Model", "AttnKernels", "Fused(ms)",
                          "Unfused(ms)", "Gain", "ScoreMB"});
        runtime::ExecutorOptions serial;
        serial.threads = 1;
        serial.seed = kSeed;
        serial.gemmRowTile = tiles.rowTile;
        serial.gemmKBlock = tiles.kBlock;
        for (const auto &name : t.models) {
            auto g = models::buildModel(name, min_batch);
            const double gmacs =
                static_cast<double>(ir::graphMacs(g)) / 1e9;
            if (t.gmacsCap > 0 && gmacs > t.gmacsCap)
                continue;
            auto fusedPlan = core::compileStage(g, dev, 3);
            int attn = 0;
            for (const auto &kk : fusedPlan.kernels)
                if (kk.streamingAttention)
                    ++attn;
            if (attn == 0)
                continue;
            auto unfusedPlan = compileStage3NoAttention(g, dev);

            // The two pipelines renumber values differently, so each
            // arm gets its own (identically seeded) input set.
            exec::Executor exOn(kSeed);
            auto inOn = exec::makeSeededInputs(fusedPlan.graph, exOn);
            exec::Executor exOff(kSeed);
            auto inOff =
                exec::makeSeededInputs(unfusedPlan.graph, exOff);

            // Best-of-2 per arm: the gate should not fail on a
            // one-off scheduler hiccup.
            auto sbe = runtime::makeExecutor("cpu-blocked", serial);
            exec::CpuBackendStats st;
            const double fused_ms =
                std::min(timeRun(*sbe, fusedPlan, inOn),
                         timeRun(*sbe, fusedPlan, inOn, &st));
            // MB = 2^20 bytes, the unit support::formatBytes prints.
            const double score_mb =
                static_cast<double>(st.scoreBytesAvoided) /
                (1024.0 * 1024.0);
            auto mbe = runtime::makeExecutor("cpu-blocked", serial);
            const double unfused_ms =
                std::min(timeRun(*mbe, unfusedPlan, inOff),
                         timeRun(*mbe, unfusedPlan, inOff));

            const double gain = unfused_ms / fused_ms;
            g_bestAttentionGain = std::max(g_bestAttentionGain, gain);
            ab.addRow({name, std::to_string(attn),
                       formatFixed(fused_ms, 1),
                       formatFixed(unfused_ms, 1),
                       report::formatSpeedup(gain),
                       formatFixed(score_mb, 1)});
        }
        const std::string ab_title =
            "Fused attention A/B, batch " + std::to_string(min_batch) +
            " (1 thread)";
        json.add(ab_title, ab);
        if (print)
            std::printf("-- fused attention A/B, batch %d, 1 thread "
                        "(ScoreMB = O(n^2) score traffic the "
                        "streaming kernel avoids) --\n%s\n",
                        min_batch, ab.render().c_str());
    }

    report::Table summary({"Metric", "Geo-mean"});
    summary.addRow({"reference / stage3 (cpu-blocked)",
                    report::formatSpeedup(ref_gain.value())});
    summary.addRow({"stage0 / stage3 (all models)",
                    report::formatSpeedup(stage_gain.value())});
    summary.addRow({"stage0 / stage3 (transformer+hybrid)",
                    report::formatSpeedup(stage_gain_tf.value())});
    json.add("Summary", summary);
    if (!print)
        return;
    std::printf("%s\n", summary.render().c_str());
    std::printf("threads %d | models above --gmacs-cap %.0f GMACs "
                "print \"-\" (use --gmacs-cap 0 to run all); the\n"
                "reference executor is timed on matmul-heavy "
                "(transformer/hybrid) models at batch %d below\n"
                "--ref-gmacs-cap %.0f GMACs.\n"
                "Expected shape: Ref/S3 >= 2x on matmul-heavy models; "
                "S0/S3 > 1 wherever transformation chains were\n"
                "eliminated (largest on transformer/hybrid models), "
                "mirroring the simulated Figure 8.\n",
                opts.threads, t.gmacsCap, min_batch, t.refGmacsCap);
}

} // namespace

int
main(int argc, char **argv)
{
    g_topts = extractThroughputArgs(argc, argv);
    auto opts = bench::parseBenchArgs(argc, argv);
    if (g_topts.check)
        return runCheck(opts, g_topts);
    int rc = bench::runRepeated(opts, "bench_exec_throughput", run);
    if (rc == 0 && g_topts.assertAttentionGain) {
        if (g_bestAttentionGain >= 1.10) {
            std::printf("attention gain gate: best streaming/"
                        "materializing ratio %.2fx >= 1.10x  PASS\n",
                        g_bestAttentionGain);
        } else {
            std::fprintf(stderr,
                         "attention gain gate: best ratio %.2fx < "
                         "1.10x (or no attention model ran)  FAIL\n",
                         g_bestAttentionGain);
            rc = 1;
        }
    }
    return rc;
}

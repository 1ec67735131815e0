/**
 * @file
 * CompileSession: parallel, cached compilation of the model zoo.
 *
 * The benchmark drivers compile the same (model, batch, device,
 * options) tuples over and over -- every table/figure walks the zoo,
 * and the ablations recompile identical configurations with one knob
 * changed.  A session shards per-(model, batch, options) compilation
 * jobs across a fixed-size support::ThreadPool and memoizes every
 * ExecutionPlan under a canonical key, so repeated compilations hit
 * the cache instead of re-running plan/select/tune.
 *
 * Cache keys are two-level.  The *canonical* key identifies what a
 * plan actually depends on -- the device fingerprint, the signature
 * of the canonicalized graph, and the pipeline fingerprint:
 *
 *   <devFp>|graph=<graphSignature(canon)>|<pipelineFingerprint()>
 *
 * so a zoo model, the same model re-imported from a `.smgraph` file,
 * and a hand-built equal graph all share one entry.  A cheap *alias*
 * key identifies how the caller named the graph:
 *
 *   <devFp>|source=<GraphSource name>|<options.fingerprint()>
 *
 * and maps (in memory, and as .alias records on disk) to a canonical
 * key, so a warm lookup by model name never builds or canonicalizes
 * a graph at all: PlanCacheDir resolves the alias and loads the plan
 * against its adjacent serialized graph.
 *
 * Determinism: compilation is a pure function of (model, batch,
 * device, options) -- there are no mutable globals anywhere in the
 * pipeline and the tuner RNG is seeded from the options -- so plans
 * produced at any thread count are byte-identical to the serial
 * path's (compileZoo collects results in submission order).  Worker
 * threads compile with a thread budget of 1, which keeps the nested
 * candidate-scoring parallelism of layout_select.cc from re-entering
 * a pool.
 */
#ifndef SMARTMEM_CORE_COMPILE_SESSION_H
#define SMARTMEM_CORE_COMPILE_SESSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/plan_cache_dir.h"
#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "runtime/plan.h"
#include "support/thread_pool.h"

namespace smartmem::models {
class GraphSource;
} // namespace smartmem::models

namespace smartmem::core {

/**
 * Full specification of one SmartMem compilation, and the cache key
 * domain: two CompileOptions with equal fingerprint() compile to the
 * same plan on the same device.
 */
struct CompileOptions
{
    /** Per-stage pipeline toggles (ignored when stage >= 0). */
    SmartMemOptions pipeline;

    /** Input batch size the model is built with. */
    int batch = 1;

    /**
     * Figure 8 staged pipeline: -1 compiles `pipeline` as given;
     * 0..3 compiles via compileStage() (whose stage presets override
     * `pipeline`, so the fingerprint canonicalizes the toggles).
     */
    int stage = -1;

    /**
     * Canonical, collision-free fingerprint of every field that
     * influences the produced plan.  Explicit key=value encoding --
     * never a hash -- so distinct configurations can never alias.
     */
    std::string fingerprint() const;

    /**
     * fingerprint() minus the batch: the pipeline-only component of
     * canonical cache keys.  Batch is a graph-construction parameter
     * -- the canonicalized graph's signature already captures it --
     * so keying plans on (graph signature, pipeline fingerprint)
     * lets differently-named sources of the same graph share one
     * entry without ever aliasing distinct configurations.
     */
    std::string pipelineFingerprint() const;
};

/** Plan-cache effectiveness counters. */
struct CompileStats
{
    /** In-memory (per-session) plan cache. */
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;

    /** On-disk plan cache (only counted while one is configured;
     *  every in-memory miss is exactly one disk hit or disk miss). */
    std::int64_t diskHits = 0;
    std::int64_t diskMisses = 0;

    /** Lookups that joined an identical in-flight compileSource()
     *  call instead of redoing it (single-flight).  Counted inside
     *  cacheHits -- cacheHits + cacheMisses still equals the lookup
     *  count -- and never in the disk counters: only the producing
     *  call touches the disk cache. */
    std::int64_t sharedCompiles = 0;
};

/** Parallel zoo compiler with a keyed plan cache (see file header). */
class CompileSession
{
  public:
    /** One (model, options) compilation job. */
    struct Job
    {
        std::string model;
        CompileOptions options;
    };

    /**
     * @param dev       Target device; part of every cache key.
     * @param nThreads  Worker count for compileZoo()/compileJobs();
     *                  0 = SMARTMEM_THREADS / hardware default, 1 =
     *                  fully serial (no pool, today's behavior).
     *
     * A new session starts with the on-disk plan cache named by the
     * SMARTMEM_PLAN_CACHE environment variable (disabled when unset
     * or empty); setPlanCacheDir() overrides either way.
     */
    explicit CompileSession(device::DeviceProfile dev, int nThreads = 0);

    const device::DeviceProfile &device() const { return dev_; }

    /**
     * Point the session at a persistent plan-cache directory (empty
     * disables).  Subsequent in-memory misses first try
     * PlanCacheDir::load() and fall back to compiling + storing, so
     * a warm directory turns every compile into a disk read.
     * `maxBytes` is the PlanCacheDir auto-GC byte cap (default -1 =
     * SMARTMEM_PLAN_CACHE_MAX_BYTES, 0 = disabled).
     */
    void setPlanCacheDir(const std::string &dir,
                         std::int64_t maxBytes = -1);

    /** The configured on-disk cache, or null. */
    std::shared_ptr<const PlanCacheDir> planCacheDir() const;

    /** Worker threads used for zoo compilation (>= 1). */
    int threadCount() const;

    /** Compile one zoo model on the calling thread (cached).  Plans
     *  are shared out of the cache, never deep-copied: a hit costs a
     *  lookup, not an ExecutionPlan+Graph copy.  Equivalent to
     *  compileSource(ModelRegistry::builtins().find(model), ...). */
    std::shared_ptr<const runtime::ExecutionPlan>
    compileModel(const std::string &model,
                 const CompileOptions &options = CompileOptions());

    /**
     * Compile a graph from any source (zoo builder, loaded .smgraph
     * file, ...), cached under its alias key (see file header).  The
     * source's build() only runs when neither the in-memory cache nor
     * the on-disk cache can resolve the alias -- a warm disk cache
     * serves plans by name without constructing a single graph.
     * `options.batch` is forwarded to build() on that cold path.
     *
     * Concurrent calls with the same alias key are single-flight: one
     * caller compiles, the rest block on its result and count as
     * cache hits (CompileStats::sharedCompiles).  The serving layer
     * leans on this -- a burst of identical requests triggers exactly
     * one plan construction.
     */
    std::shared_ptr<const runtime::ExecutionPlan>
    compileSource(const models::GraphSource &source,
                  const CompileOptions &options = CompileOptions());

    /**
     * Compile an already-built graph: compileSource() of a
     * models::FileGraphSource over it, so the plan is cached under its
     * canonical key (device + canonicalized-graph signature + pipeline
     * fingerprint) and concurrent compiles of one graph are
     * single-flight.  `options.batch` is ignored: the graph's shapes
     * already encode it.  A zoo model and a byte-identical imported
     * graph share one cache entry and yield the same shared plan.
     * With a plan-cache directory, the graph's "smgraph:<signature>"
     * alias is written as an .alias record beside the plan.
     */
    std::shared_ptr<const runtime::ExecutionPlan>
    compileGraph(const ir::Graph &graph,
                 const CompileOptions &options = CompileOptions());

    /** Compile arbitrary jobs across the pool; results are collected
     *  in submission order (jobs[i] -> result[i]). */
    std::vector<std::shared_ptr<const runtime::ExecutionPlan>>
    compileJobs(const std::vector<Job> &jobs);

    /** Compile a list of models under common options, in order. */
    std::vector<std::shared_ptr<const runtime::ExecutionPlan>>
    compileZoo(const std::vector<std::string> &models,
               const CompileOptions &options = CompileOptions());

    CompileStats stats() const;

    void clearCache();

  private:
    /** Cold path of compileSource(): disk lookup, build, compile,
     *  store.  Runs outside mu_; exactly one caller per alias key is
     *  in here at a time (the single-flight producer). */
    std::shared_ptr<const runtime::ExecutionPlan>
    compileSourceUncached(const models::GraphSource &source,
                          const CompileOptions &options,
                          const std::string &aliasKey,
                          std::shared_ptr<const PlanCacheDir> disk);

    device::DeviceProfile dev_;
    std::string devFingerprint_;
    std::unique_ptr<support::ThreadPool> pool_; // null when serial
    /** Shared so a concurrent setPlanCacheDir() cannot free the store
     *  under a worker mid-lookup; null when disabled. */
    std::shared_ptr<const PlanCacheDir> planCache_;
    mutable std::mutex mu_;
    /** Canonical key -> plan.  The only map that owns plans. */
    std::map<std::string, std::shared_ptr<const runtime::ExecutionPlan>>
        cache_;
    /** Alias key -> canonical key, so repeat compiles of a named
     *  source skip building the graph entirely. */
    std::map<std::string, std::string> aliasMap_;
    /** Alias key -> in-flight compile; concurrent duplicates wait on
     *  the producer's shared future instead of compiling again. */
    std::map<std::string,
             std::shared_future<
                 std::shared_ptr<const runtime::ExecutionPlan>>>
        inflight_;
    CompileStats stats_;
};

/**
 * One-shot convenience: compile `models` on `dev` across `nThreads`
 * workers (0 = SMARTMEM_THREADS / hardware default), plans returned
 * by value in the models' order.  Equivalent to the serial loop
 * `for (m : models) compileSmartMem(buildModel(m, batch), dev, ...)`
 * -- byte-identical plans, any thread count.
 */
std::vector<runtime::ExecutionPlan>
compileZoo(const std::vector<std::string> &models,
           const device::DeviceProfile &dev,
           const CompileOptions &options = CompileOptions(),
           int nThreads = 0);

} // namespace smartmem::core

#endif // SMARTMEM_CORE_COMPILE_SESSION_H

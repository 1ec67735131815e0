#include "core/compile_session.h"

#include <cstdlib>
#include <optional>
#include <utility>

#include "models/graph_source.h"
#include "models/model_registry.h"
#include "serialize/graph_text.h"
#include "support/error.h"
#include "support/strings.h"

namespace smartmem::core {

namespace {

// Shared tail of fingerprint()/pipelineFingerprint(): everything that
// selects the pipeline configuration, batch excluded.
std::string
pipelineSuffix(int stage, const SmartMemOptions &pipeline)
{
    SM_REQUIRE(stage >= -1 && stage <= 3, "stage must be -1..3");
    // Staged compiles override the toggles (compileStage); encode the
    // effective configuration so stage presets and hand-built options
    // that mean the same thing still key separately only via `stage`.
    const SmartMemOptions e = stage >= 0 ? stagePreset(stage) : pipeline;
    std::string fp = "stage=" + std::to_string(stage);
    fp += ";lte=" + std::to_string(e.enableLte ? 1 : 0);
    fp += ";idx=" + std::to_string(e.enableIndexSimplify ? 1 : 0);
    fp += ";sel=" + std::to_string(e.enableLayoutSelect ? 1 : 0);
    fp += ";texmap=" + std::to_string(e.enableTextureMapping ? 1 : 0);
    fp += ";tuner=" + std::to_string(e.enableTuner ? 1 : 0);
    fp += ";copies=" + std::to_string(e.allowRedundantCopies ? 1 : 0);
    return fp;
}

} // namespace

std::string
CompileOptions::fingerprint() const
{
    SM_REQUIRE(batch >= 1, "batch must be >= 1");
    return "v1;batch=" + std::to_string(batch) + ";" +
           pipelineSuffix(stage, pipeline);
}

std::string
CompileOptions::pipelineFingerprint() const
{
    return "p1;" + pipelineSuffix(stage, pipeline);
}

// The device side of the cache key is DeviceProfile::fingerprint():
// every field the pipeline consults, never the display name, so a
// hand-edited or file-loaded profile variant (the texture ablation
// flips hasTexture on a copy of adreno740) can never alias its base
// profile's cached or on-disk plans.
CompileSession::CompileSession(device::DeviceProfile dev, int nThreads)
    : dev_(std::move(dev)), devFingerprint_(dev_.fingerprint())
{
    int n = nThreads > 0 ? nThreads : support::defaultThreadCount();
    if (n > 1)
        pool_ = std::make_unique<support::ThreadPool>(n);
    if (const char *env = std::getenv("SMARTMEM_PLAN_CACHE")) {
        if (*env != '\0')
            planCache_ = std::make_shared<const PlanCacheDir>(env);
    }
}

void
CompileSession::setPlanCacheDir(const std::string &dir,
                                std::int64_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    planCache_ =
        dir.empty()
            ? nullptr
            : std::make_shared<const PlanCacheDir>(dir, maxBytes);
}

std::shared_ptr<const PlanCacheDir>
CompileSession::planCacheDir() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return planCache_;
}

int
CompileSession::threadCount() const
{
    return pool_ ? pool_->size() : 1;
}

std::shared_ptr<const runtime::ExecutionPlan>
CompileSession::compileModel(const std::string &model,
                             const CompileOptions &options)
{
    return compileSource(models::ModelRegistry::builtins().find(model),
                         options);
}

std::shared_ptr<const runtime::ExecutionPlan>
CompileSession::compileSource(const models::GraphSource &source,
                              const CompileOptions &options)
{
    const std::string aliasKey = devFingerprint_ + "|source=" +
                                 source.name() + "|" +
                                 options.fingerprint();
    using PlanFuture = std::shared_future<
        std::shared_ptr<const runtime::ExecutionPlan>>;
    PlanFuture wait;
    std::promise<std::shared_ptr<const runtime::ExecutionPlan>> produce;
    bool producer = false;
    std::shared_ptr<const PlanCacheDir> disk;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto alias = aliasMap_.find(aliasKey);
        if (alias != aliasMap_.end()) {
            auto it = cache_.find(alias->second);
            if (it != cache_.end()) {
                ++stats_.cacheHits;
                return it->second;
            }
        }
        auto fl = inflight_.find(aliasKey);
        if (fl != inflight_.end()) {
            // Single flight: another thread is compiling exactly this
            // alias right now; wait for its plan instead of redoing
            // the work (a burst of identical serving requests compiles
            // once, not once per worker).
            wait = fl->second;
            ++stats_.cacheHits;
            ++stats_.sharedCompiles;
        } else {
            producer = true;
            inflight_.emplace(aliasKey,
                              PlanFuture(produce.get_future()));
            ++stats_.cacheMisses;
            disk = planCache_;
        }
    }
    if (!producer)
        return wait.get(); // rethrows the producer's exception

    // The cache_ insert inside the cold path happens before the
    // in-flight entry is erased, so there is no window in which a new
    // caller sees neither; on the exception path the entry is erased
    // without a cache_ insert and the next caller becomes the new
    // producer.
    try {
        auto sp = compileSourceUncached(source, options, aliasKey, disk);
        produce.set_value(sp);
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(aliasKey);
        return sp;
    } catch (...) {
        produce.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(aliasKey);
        throw;
    }
}

std::shared_ptr<const runtime::ExecutionPlan>
CompileSession::compileSourceUncached(
    const models::GraphSource &source, const CompileOptions &options,
    const std::string &aliasKey,
    std::shared_ptr<const PlanCacheDir> disk)
{
    // Compile outside the lock.  On pool workers the nested
    // parallelism is already inline (onWorkerThread), so zoo-level
    // sharding stays the only parallelism there; on the calling
    // thread (compileModel, or a serial session) the session's thread
    // count caps the intra-compile fan-out of layout_select's
    // candidate scoring -- nThreads == 1 reproduces the fully serial
    // pipeline.  Results are bit-identical either way.
    support::ThreadBudgetGuard budget(threadCount());

    // Warm disk path: resolve the alias record to a canonical key and
    // load the plan against its adjacent serialized graph.  No
    // builder runs and no graph is constructed in this process.
    runtime::ExecutionPlan plan;
    bool loaded = false;
    std::string key;
    std::optional<std::string> target;
    if (disk) {
        target = disk->loadAlias(aliasKey);
        if (target) {
            if (auto cached = disk->load(*target)) {
                plan = std::move(*cached);
                key = *target;
                loaded = true;
            }
        }
    }

    ir::Graph canon; // built only on the cold path
    if (!loaded) {
        canon = canonicalizeGraph(source.build(options.batch));
        key = devFingerprint_ + "|graph=" +
              serialize::graphSignature(canon) + "|" +
              options.pipelineFingerprint();
        {
            // A differently-named source of this exact canonical
            // graph (or a compileGraph call) may have populated the
            // entry already; then this lookup was really a hit, and
            // the disk counters stay untouched.
            std::lock_guard<std::mutex> lock(mu_);
            auto it = cache_.find(key);
            if (it != cache_.end()) {
                aliasMap_.emplace(aliasKey, key);
                --stats_.cacheMisses;
                ++stats_.cacheHits;
                return it->second;
            }
        }
        // The alias may be stale/corrupt while the canonical entry is
        // fine -- retry under the canonical key unless that is the
        // entry that just failed to load.
        if (disk && (!target || *target != key)) {
            if (disk->contains(key)) {
                if (auto cached = disk->load(key, ir::Graph(canon))) {
                    plan = std::move(*cached);
                    loaded = true;
                }
            }
        }
    }

    if (disk) {
        std::lock_guard<std::mutex> lock(mu_);
        ++(loaded ? stats_.diskHits : stats_.diskMisses);
    }
    if (!loaded) {
        plan = compileCanonical(canon, dev_, options.pipeline,
                                options.stage);
        plan.cacheKey = key;
        if (disk)
            disk->store(plan);
    }
    if (disk && (!target || *target != key))
        disk->storeAlias(aliasKey, key);

    auto sp = std::make_shared<const runtime::ExecutionPlan>(
        std::move(plan));
    std::lock_guard<std::mutex> lock(mu_);
    // Two threads may race to compile the same key; both plans are
    // identical, keep the first inserted.
    auto [it, inserted] = cache_.emplace(key, sp);
    aliasMap_.emplace(aliasKey, key);
    return it->second;
}

std::shared_ptr<const runtime::ExecutionPlan>
CompileSession::compileGraph(const ir::Graph &graph,
                             const CompileOptions &options)
{
    CompileOptions fixed = options;
    fixed.batch = 1; // the graph's shapes already encode its batch
    return compileSource(models::FileGraphSource(graph), fixed);
}

std::vector<std::shared_ptr<const runtime::ExecutionPlan>>
CompileSession::compileJobs(const std::vector<Job> &jobs)
{
    std::vector<std::shared_ptr<const runtime::ExecutionPlan>> plans(
        jobs.size());
    if (!pool_ || jobs.size() < 2) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            plans[i] = compileModel(jobs[i].model, jobs[i].options);
        return plans;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        futures.push_back(pool_->submit([this, &jobs, &plans, i] {
            plans[i] = compileModel(jobs[i].model, jobs[i].options);
        }));
    }
    std::exception_ptr first;
    for (auto &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
    return plans;
}

std::vector<std::shared_ptr<const runtime::ExecutionPlan>>
CompileSession::compileZoo(const std::vector<std::string> &models,
                           const CompileOptions &options)
{
    std::vector<Job> jobs;
    jobs.reserve(models.size());
    for (const std::string &m : models)
        jobs.push_back({m, options});
    return compileJobs(jobs);
}

CompileStats
CompileSession::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
CompileSession::clearCache()
{
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    aliasMap_.clear();
    stats_ = CompileStats();
}

std::vector<runtime::ExecutionPlan>
compileZoo(const std::vector<std::string> &models,
           const device::DeviceProfile &dev,
           const CompileOptions &options, int nThreads)
{
    CompileSession session(dev, nThreads);
    std::vector<runtime::ExecutionPlan> plans;
    plans.reserve(models.size());
    for (auto &sp : session.compileZoo(models, options))
        plans.push_back(*sp);
    return plans;
}

} // namespace smartmem::core

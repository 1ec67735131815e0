/**
 * @file
 * Tests for the parallel compile session: options fingerprinting
 * (collision-freedom), plan-cache hits and invalidation, and the
 * tentpole guarantee that compileZoo produces byte-identical plans at
 * every thread count.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/compile_session.h"
#include "core/plan_cache_dir.h"
#include "core/smartmem_compiler.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "serialize/graph_text.h"
#include "support/error.h"

namespace smartmem::core {
namespace {

/** Small zoo slice covering ConvNet, transformer and hybrid models
 *  (keeps the 1/2/8-thread determinism sweep fast). */
std::vector<std::string>
sampleModels()
{
    return {"Swin", "CSwin", "ViT", "ConvNext", "ResNext", "Pythia"};
}

TEST(CompileOptionsFingerprint, DistinctAcrossAllToggleCombinations)
{
    // Every combination of the six pipeline toggles, two batch sizes
    // and all stages must fingerprint uniquely: the cache key may
    // never alias two configurations that compile differently.
    std::set<std::string> seen;
    int count = 0;
    for (int bits = 0; bits < 64; ++bits) {
        for (int batch : {1, 4}) {
            CompileOptions o;
            o.batch = batch;
            o.pipeline.enableLte = bits & 1;
            o.pipeline.enableIndexSimplify = bits & 2;
            o.pipeline.enableLayoutSelect = bits & 4;
            o.pipeline.enableTextureMapping = bits & 8;
            o.pipeline.enableTuner = bits & 16;
            o.pipeline.allowRedundantCopies = bits & 32;
            seen.insert(o.fingerprint());
            ++count;
        }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(CompileOptionsFingerprint, StagesKeySeparately)
{
    std::set<std::string> seen;
    for (int stage = -1; stage <= 3; ++stage) {
        CompileOptions o;
        o.stage = stage;
        seen.insert(o.fingerprint());
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(CompileOptionsFingerprint, StageCanonicalizesPipelineToggles)
{
    // compileStage() ignores the pipeline toggles, so two staged
    // options differing only in (ignored) toggles must key equal.
    CompileOptions a, b;
    a.stage = 2;
    b.stage = 2;
    b.pipeline.enableLte = false;
    b.pipeline.enableTextureMapping = false;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(CompileOptionsFingerprint, IsStable)
{
    // The fingerprint is a persistence format (plan.cacheKey); keep
    // it explicit and versioned.
    CompileOptions o;
    EXPECT_EQ(o.fingerprint(),
              "v1;batch=1;stage=-1;lte=1;idx=1;sel=1;texmap=1;"
              "tuner=1;copies=1");
}

TEST(CompileOptionsFingerprint, RejectsInvalidFields)
{
    CompileOptions bad_batch;
    bad_batch.batch = 0;
    EXPECT_THROW(bad_batch.fingerprint(), FatalError);
    CompileOptions bad_stage;
    bad_stage.stage = 4;
    EXPECT_THROW(bad_stage.fingerprint(), FatalError);
}

TEST(CompileOptionsFingerprint, PipelineFingerprintIsStableAndBatchFree)
{
    // The pipeline fingerprint is the options component of canonical
    // cache keys (plan.cacheKey embeds it); keep it explicit and
    // versioned like fingerprint().
    CompileOptions o;
    EXPECT_EQ(o.pipelineFingerprint(),
              "p1;stage=-1;lte=1;idx=1;sel=1;texmap=1;tuner=1;copies=1");

    // Batch is a graph-construction parameter, already captured by the
    // canonical graph's signature -- it must not split pipeline keys.
    CompileOptions batched;
    batched.batch = 4;
    EXPECT_EQ(batched.pipelineFingerprint(), o.pipelineFingerprint());
    EXPECT_NE(batched.fingerprint(), o.fingerprint());

    // Every pipeline-affecting knob still keys separately.
    CompileOptions staged;
    staged.stage = 2;
    EXPECT_NE(staged.pipelineFingerprint(), o.pipelineFingerprint());
    CompileOptions no_sel;
    no_sel.pipeline.enableLayoutSelect = false;
    EXPECT_NE(no_sel.pipelineFingerprint(), o.pipelineFingerprint());
}

TEST(CompileSessionCache, RepeatCompilationHits)
{
    CompileSession session(device::adreno740(), 1);
    auto first = session.compileModel("Swin");
    auto again = session.compileModel("Swin");
    auto st = session.stats();
    EXPECT_EQ(st.cacheMisses, 1);
    EXPECT_EQ(st.cacheHits, 1);
    EXPECT_EQ(first.get(), again.get()); // shared, not re-compiled
    EXPECT_FALSE(first->cacheKey.empty());
}

TEST(CompileSessionCache, GraphAndModelCompilesShareOneEntry)
{
    CompileSession session(device::adreno740(), 1);
    session.setPlanCacheDir("");

    // By name, by already-built graph, and by imported .smgraph text:
    // one canonical entry, one shared plan.
    auto by_name = session.compileModel("ResNext");
    auto by_graph = session.compileGraph(models::buildModel("ResNext", 1));
    EXPECT_EQ(by_name.get(), by_graph.get());

    models::FileGraphSource imported{serialize::parseGraph(
        serialize::serializeGraph(models::buildModel("ResNext", 1)))};
    auto by_file = session.compileSource(imported);
    EXPECT_EQ(by_file.get(), by_name.get());

    // The compileSource miss is reclassified as a hit once the alias
    // resolves to the existing canonical entry.
    auto st = session.stats();
    EXPECT_EQ(st.cacheMisses, 1);
    EXPECT_EQ(st.cacheHits, 2);

    // The canonical key never mentions the source name.
    EXPECT_NE(by_name->cacheKey.find("|graph="), std::string::npos);
    EXPECT_EQ(by_name->cacheKey.find("ResNext"), std::string::npos);
}

TEST(CompileSessionCache, OptionChangesInvalidate)
{
    CompileSession session(device::adreno740(), 1);
    CompileOptions full;
    CompileOptions no_sel;
    no_sel.pipeline.enableLayoutSelect = false;
    CompileOptions batch2;
    batch2.batch = 2;

    auto a = session.compileModel("Swin", full);
    auto b = session.compileModel("Swin", no_sel);
    auto c = session.compileModel("Swin", batch2);
    auto st = session.stats();
    EXPECT_EQ(st.cacheMisses, 3);
    EXPECT_EQ(st.cacheHits, 0);
    EXPECT_NE(a->cacheKey, b->cacheKey);
    EXPECT_NE(a->cacheKey, c->cacheKey);

    // Same knobs again: all hits.
    session.compileModel("Swin", no_sel);
    session.compileModel("Swin", batch2);
    st = session.stats();
    EXPECT_EQ(st.cacheMisses, 3);
    EXPECT_EQ(st.cacheHits, 2);
}

TEST(CompileSessionCache, DeviceIsPartOfTheKey)
{
    CompileSession a(device::adreno740(), 1);
    CompileSession b(device::maliG57(), 1);
    auto pa = a.compileModel("ResNext");
    auto pb = b.compileModel("ResNext");
    EXPECT_NE(pa->cacheKey, pb->cacheKey);

    // A hand-edited profile (texture ablation) must not alias its
    // base profile even though the name is unchanged.
    auto no_tex = device::adreno740();
    no_tex.hasTexture = false;
    CompileSession c(no_tex, 1);
    auto pc = c.compileModel("ResNext");
    EXPECT_NE(pa->cacheKey, pc->cacheKey);
}

TEST(CompileSessionCache, PerturbedDeviceFieldsNeverShareCacheEntries)
{
    // Regression for the device side of the cache key: it must
    // encode every DeviceProfile field (not the name), so a profile
    // differing in any single field -- including the ones a
    // name-keyed or partial fingerprint would miss, like L2 size or
    // SIMD width -- can never be served another profile's plan, in
    // memory or from the on-disk cache.
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) /
                   "smartmem-dev-fingerprint";
    fs::remove_all(dir);

    const auto base = device::adreno740();
    CompileSession seed(base, 1);
    seed.setPlanCacheDir(dir.string());
    auto base_plan = seed.compileModel("ResNext");
    ASSERT_EQ(seed.stats().diskMisses, 1);

    const std::vector<std::function<void(device::DeviceProfile &)>>
        mutators = {
            [](device::DeviceProfile &p) { p.peakMacsPerSec *= 2; },
            [](device::DeviceProfile &p) {
                p.globalBwBytesPerSec *= 2;
            },
            [](device::DeviceProfile &p) {
                p.textureBwBytesPerSec += 1e9;
            },
            [](device::DeviceProfile &p) {
                p.hasTexture = !p.hasTexture;
            },
            [](device::DeviceProfile &p) {
                p.textureCacheBytes += 1024;
            },
            [](device::DeviceProfile &p) { p.l2CacheBytes += 1024; },
            [](device::DeviceProfile &p) { p.cacheLineBytes *= 2; },
            [](device::DeviceProfile &p) { p.simdWidth *= 2; },
            [](device::DeviceProfile &p) {
                p.kernelLaunchSec += 1e-6;
            },
            [](device::DeviceProfile &p) {
                p.memoryCapacityBytes /= 2;
            },
            [](device::DeviceProfile &p) { p.maxTextureExtent /= 2; },
            [](device::DeviceProfile &p) {
                p.registersPerThread += 1;
            },
            [](device::DeviceProfile &p) {
                p.relayoutElemsPerSec *= 2;
            },
            [](device::DeviceProfile &p) {
                p.bufferConvPenalty *= 0.5;
            },
        };
    for (std::size_t i = 0; i < mutators.size(); ++i) {
        auto tweaked = base;
        mutators[i](tweaked);
        CompileSession session(tweaked, 1);
        session.setPlanCacheDir(dir.string());
        auto plan = session.compileModel("ResNext");
        EXPECT_NE(plan->cacheKey, base_plan->cacheKey)
            << "field mutation #" << i << " aliased the cache key";
        // The shared directory must miss: the perturbed profile may
        // never be handed the base profile's persisted plan.
        EXPECT_EQ(session.stats().diskHits, 0)
            << "field mutation #" << i;
        EXPECT_EQ(session.stats().diskMisses, 1)
            << "field mutation #" << i;
    }

    // Same values under a different display name: by design the SAME
    // entry (the fingerprint keys on field values, not the name).
    auto renamed = base;
    renamed.name = "Adreno740 (file-loaded twin)";
    CompileSession twin(renamed, 1);
    twin.setPlanCacheDir(dir.string());
    auto twin_plan = twin.compileModel("ResNext");
    EXPECT_EQ(twin_plan->cacheKey, base_plan->cacheKey);
    EXPECT_EQ(twin.stats().diskHits, 1);
    fs::remove_all(dir);
}

TEST(CompileSessionCache, ClearCacheResets)
{
    CompileSession session(device::adreno740(), 1);
    session.compileModel("ViT");
    session.clearCache();
    auto st = session.stats();
    EXPECT_EQ(st.cacheHits, 0);
    EXPECT_EQ(st.cacheMisses, 0);
    session.compileModel("ViT");
    st = session.stats();
    EXPECT_EQ(st.cacheMisses, 1);
}

TEST(CompileSessionCache, StagedCompileMatchesCompileStage)
{
    auto dev = device::adreno740();
    CompileSession session(dev, 1);
    for (int stage = 0; stage <= 3; ++stage) {
        CompileOptions o;
        o.stage = stage;
        auto cached = session.compileModel("CSwin", o);
        auto direct = compileStage(
            models::buildModel("CSwin", 1), dev, stage);
        EXPECT_EQ(cached->toString(), direct.toString())
            << "stage " << stage;
        EXPECT_EQ(cached->compilerName, direct.compilerName);
    }
}

TEST(CompileZoo, PlansAreByteIdenticalAtAnyThreadCount)
{
    // The acceptance criterion: 1-, 2- and 8-thread sessions must
    // produce byte-identical plans, in input order.
    auto dev = device::adreno740();
    auto names = sampleModels();

    std::vector<std::string> dumps1;
    {
        CompileSession s(dev, 1);
        for (const auto &p : s.compileZoo(names))
            dumps1.push_back(p->toString());
    }
    for (int threads : {2, 8}) {
        CompileSession s(dev, threads);
        auto plans = s.compileZoo(names);
        ASSERT_EQ(plans.size(), names.size());
        for (std::size_t i = 0; i < plans.size(); ++i) {
            EXPECT_EQ(plans[i]->toString(), dumps1[i])
                << names[i] << " differs at " << threads
                << " threads";
        }
    }
}

TEST(CompileZoo, MatchesDirectSerialCompilation)
{
    // The session path (and the intra-compile parallelism active when
    // compileSmartMem runs on the main thread) must reproduce the
    // plain serial pipeline bit for bit.
    auto dev = device::adreno740();
    auto direct = compileSmartMem(models::buildModel("Swin", 1), dev);
    auto zoo = compileZoo({"Swin"}, dev);
    ASSERT_EQ(zoo.size(), 1u);
    EXPECT_EQ(zoo[0].toString(), direct.toString());
}

TEST(CompileZoo, SharedCacheAcrossJobs)
{
    // 3 distinct jobs, each listed twice: 3 misses, 3 hits, and the
    // duplicate results equal the originals.
    CompileSession session(device::adreno740(), 4);
    std::vector<std::string> names = {"ViT", "ConvNext", "ResNext",
                                      "ViT", "ConvNext", "ResNext"};
    auto plans = session.compileJobs([&] {
        std::vector<CompileSession::Job> jobs;
        for (const auto &n : names)
            jobs.push_back({n, CompileOptions()});
        return jobs;
    }());
    ASSERT_EQ(plans.size(), 6u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(plans[static_cast<std::size_t>(i)]->toString(),
                  plans[static_cast<std::size_t>(i + 3)]->toString());
    auto st = session.stats();
    EXPECT_EQ(st.cacheHits + st.cacheMisses, 6);
    EXPECT_GE(st.cacheMisses, 3);
}

TEST(CompileSessionSingleFlight, ConcurrentSameKeyCompilesOnce)
{
    // N threads race compileSource() on one (source, options) key:
    // exactly one may pay the compile (miss), everyone else must
    // join it in flight or hit the filled cache -- never a duplicate
    // compilation.  The serving layer leans on this for same-model
    // request bursts.
    const int n = 8;
    CompileSession session(device::adreno740(), 1);
    const auto &source = models::ModelRegistry::builtins().find("ViT");

    std::vector<std::shared_ptr<const runtime::ExecutionPlan>> plans(
        static_cast<std::size_t>(n));
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < n; ++i) {
            threads.emplace_back([&session, &source, &plans, i] {
                plans[static_cast<std::size_t>(i)] =
                    session.compileSource(source);
            });
        }
        for (auto &t : threads)
            t.join();
    }

    for (int i = 1; i < n; ++i)
        EXPECT_EQ(plans[0].get(),
                  plans[static_cast<std::size_t>(i)].get());
    auto st = session.stats();
    EXPECT_EQ(st.cacheMisses, 1);
    EXPECT_EQ(st.cacheHits, n - 1);
    // Waiters that joined the in-flight compile (scheduling-
    // dependent, possibly zero) are counted inside cacheHits.
    EXPECT_GE(st.sharedCompiles, 0);
    EXPECT_LE(st.sharedCompiles, n - 1);
}

TEST(CompileSessionSingleFlight, ConcurrentSameGraphCompilesOnce)
{
    // compileGraph() takes compileSource()'s path, single flight
    // included: N threads compiling one already-built graph pay one
    // compile between them.
    const int n = 8;
    CompileSession session(device::adreno740(), 1);
    const ir::Graph graph = models::buildModel("ViT", 1);

    std::vector<std::shared_ptr<const runtime::ExecutionPlan>> plans(
        static_cast<std::size_t>(n));
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < n; ++i) {
            threads.emplace_back([&session, &graph, &plans, i] {
                plans[static_cast<std::size_t>(i)] =
                    session.compileGraph(graph);
            });
        }
        for (auto &t : threads)
            t.join();
    }

    for (int i = 1; i < n; ++i)
        EXPECT_EQ(plans[0].get(),
                  plans[static_cast<std::size_t>(i)].get());
    auto st = session.stats();
    EXPECT_EQ(st.cacheMisses, 1);
    EXPECT_EQ(st.cacheHits, n - 1);
}

TEST(CompileSession, ThreadCountResolution)
{
    CompileSession serial(device::adreno740(), 1);
    EXPECT_EQ(serial.threadCount(), 1);
    CompileSession four(device::adreno740(), 4);
    EXPECT_EQ(four.threadCount(), 4);
    CompileSession def(device::adreno740(), 0);
    EXPECT_GE(def.threadCount(), 1);
}

} // namespace
} // namespace smartmem::core

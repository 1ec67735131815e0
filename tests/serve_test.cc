/**
 * @file
 * Tests for the inference serving layer: request routing off the
 * registries, the admission queue's work-conserving pop, dynamic
 * batching (max-batch overflow, key separation), backpressure,
 * numeric parity of coalesced execution against direct batch-1 runs,
 * shutdown semantics (including submits racing a shutdown), and the
 * stats lifecycle invariant.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/compile_session.h"
#include "device/device_registry.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "runtime/plan_executor.h"
#include "serialize/graph_text.h"
#include "serve/server.h"
#include "support/error.h"

namespace smartmem::serve {
namespace {

constexpr float kTol = 1e-4f;

/** Tiny zoo variants behind serving-registry names, so tests compile
 *  in milliseconds instead of minutes. */
const models::ModelRegistry &
tinyRegistry()
{
    static const models::ModelRegistry *reg = [] {
        auto *r = new models::ModelRegistry();
        for (const char *name : {"Swin", "ViT", "ResNext"}) {
            r->add(std::make_unique<models::BuilderGraphSource>(
                std::string("tiny:") + name,
                [n = std::string(name)](int batch) {
                    return models::buildTinyVariant(n, batch);
                }));
        }
        return r;
    }();
    return *reg;
}

ServerOptions
baseOptions()
{
    ServerOptions o;
    o.models = &tinyRegistry();
    o.workers = 2;
    o.executorThreads = 1;
    return o;
}

/** The verification twin of a served request: direct batch-1 compile
 *  and execution with the same seed/salt conventions. */
std::vector<exec::Tensor>
directOutputs(const models::GraphSource &source, std::uint64_t salt,
              const ServerOptions &o)
{
    const auto &dev =
        device::DeviceRegistry::builtins().find(o.defaultDevice);
    core::CompileSession session(dev, 1);
    auto plan = session.compileSource(source);
    auto inputs = makeRequestInputs(plan->graph, o.seed, salt);
    runtime::ExecutorOptions eo;
    eo.threads = 1;
    eo.seed = o.seed;
    const exec::TileParams tiles = exec::resolveTileParams(dev);
    eo.gemmRowTile = tiles.rowTile;
    eo.gemmKBlock = tiles.kBlock;
    return runtime::makeExecutor(o.backend, eo)->run(*plan, inputs);
}

InferenceRequest
tinyRequest(const std::string &model, std::uint64_t salt = 0)
{
    InferenceRequest r;
    r.model = model;
    r.inputSalt = salt;
    return r;
}

TEST(ServeSingle, MatchesDirectExecution)
{
    ServerOptions o = baseOptions();
    o.coalesce = false;
    InferenceServer server(o);
    auto f = server.submit(tinyRequest("tiny:Swin", 3));
    InferenceResponse r = f.get();
    ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
    EXPECT_EQ(r.batchSize, 1);
    auto ref = directOutputs(tinyRegistry().find("tiny:Swin"), 3, o);
    ASSERT_EQ(r.outputs.size(), ref.size());
    EXPECT_LE(exec::maxRelDiff(ref, r.outputs), kTol);
    EXPECT_GT(r.totalMs, 0.0);
}

/** A queued request of `model`, tagged by its salt. */
QueuedRequest
queued(const std::string &model, std::uint64_t tag)
{
    QueuedRequest q;
    q.request = tinyRequest(model, tag);
    q.key = BatchKey{model, "dev", "smartmem", -1};
    return q;
}

/** popBatch on a helper thread; fails (closing the queue so the pop
 *  returns) instead of hanging when it blocks for 5 s. */
std::vector<QueuedRequest>
popWithin5s(AdmissionQueue &queue, int maxBatch)
{
    auto pop = std::async(std::launch::async,
                          [&] { return queue.popBatch(maxBatch); });
    if (pop.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "popBatch still blocked after 5 s";
        queue.close();
    }
    return pop.get();
}

/** A popped batch as key model + tag ("A1"), in batch order. */
std::vector<std::string>
names(const std::vector<QueuedRequest> &batch)
{
    std::vector<std::string> out;
    for (const QueuedRequest &q : batch)
        out.push_back(q.key.model + std::to_string(q.request.inputSalt));
    return out;
}

using Names = std::vector<std::string>;

TEST(AdmissionQueue, LoneRequestPopsAtOnceAsBatchOfOne)
{
    // Nobody else is coming: a free worker never waits for company.
    AdmissionQueue queue(8);
    ASSERT_TRUE(queue.push(queued("A", 1)));
    EXPECT_EQ(names(popWithin5s(queue, 8)), Names({"A1"}));
    EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionQueue, GathersQueuedSameKeyRequestsInFifoOrder)
{
    // A1 B1 A2 A3 B2 A4 under maxBatch 3: the head takes the queued
    // same-key requests up to the bound; B keeps its place.
    AdmissionQueue queue(8);
    for (const auto &[model, tag] :
         std::vector<std::pair<std::string, std::uint64_t>>{
             {"A", 1}, {"B", 1}, {"A", 2}, {"A", 3}, {"B", 2}, {"A", 4}})
        ASSERT_TRUE(queue.push(queued(model, tag)));
    EXPECT_EQ(names(popWithin5s(queue, 3)), Names({"A1", "A2", "A3"}));
    EXPECT_EQ(names(popWithin5s(queue, 3)), Names({"B1", "B2"}));
    EXPECT_EQ(names(popWithin5s(queue, 3)), Names({"A4"}));
    EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionQueue, ClosedQueueDrainsThenPopsEmptyAndRefusesPush)
{
    AdmissionQueue queue(8);
    ASSERT_TRUE(queue.push(queued("A", 1)));
    queue.close();
    EXPECT_EQ(names(popWithin5s(queue, 8)), Names({"A1"}));
    EXPECT_TRUE(popWithin5s(queue, 8).empty());
    EXPECT_FALSE(queue.push(queued("A", 2)));
    EXPECT_EQ(queue.size(), 0u);
}

TEST(ServeBatching, MaxBatchOverflowSplitsIntoTwoBatches)
{
    ServerOptions o = baseOptions();
    o.autoStart = false;
    o.workers = 1;
    o.maxBatch = 4;
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(server.submit(
            tinyRequest("tiny:Swin", static_cast<std::uint64_t>(i))));
    server.start();
    std::map<int, int> sizes;
    for (auto &f : futures) {
        InferenceResponse r = f.get();
        ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
        ++sizes[r.batchSize];
    }
    // 6 same-key requests under maxBatch 4: a full batch of 4, then
    // the remaining 2.
    EXPECT_EQ(sizes[4], 4);
    EXPECT_EQ(sizes[2], 2);
    auto st = server.stats();
    EXPECT_EQ(st.global.batches, 2);
    EXPECT_EQ(st.global.batchHistogram.at(4), 1);
    EXPECT_EQ(st.global.batchHistogram.at(2), 1);
    EXPECT_EQ(st.global.coalesced, 6);
}

TEST(ServeBatching, MixedModelsNeverCoalesce)
{
    ServerOptions o = baseOptions();
    o.autoStart = false;
    o.workers = 1;
    o.maxBatch = 8;
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 3; ++i) {
        futures.push_back(server.submit(tinyRequest("tiny:Swin")));
        futures.push_back(server.submit(tinyRequest("tiny:ViT")));
    }
    server.start();
    for (auto &f : futures) {
        InferenceResponse r = f.get();
        ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
        EXPECT_EQ(r.batchSize, 3); // only its own model's requests
    }
    auto st = server.stats();
    EXPECT_EQ(st.global.batches, 2);
    EXPECT_EQ(st.perModel.at("tiny:Swin").batchHistogram.at(3), 1);
    EXPECT_EQ(st.perModel.at("tiny:ViT").batchHistogram.at(3), 1);
}

TEST(ServeBatching, MixedDevicesNeverCoalesce)
{
    ServerOptions o = baseOptions();
    o.autoStart = false;
    o.workers = 1;
    o.maxBatch = 8;
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 2; ++i) {
        InferenceRequest a = tinyRequest("tiny:ViT");
        a.device = "adreno740";
        InferenceRequest b = tinyRequest("tiny:ViT");
        b.device = "adreno540";
        futures.push_back(server.submit(std::move(a)));
        futures.push_back(server.submit(std::move(b)));
    }
    server.start();
    for (auto &f : futures) {
        InferenceResponse r = f.get();
        ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
        EXPECT_EQ(r.batchSize, 2); // same model, split by device
    }
    EXPECT_EQ(server.stats().global.batches, 2);
}

TEST(ServeBackpressure, QueueFullRejectsExplicitly)
{
    ServerOptions o = baseOptions();
    o.autoStart = false; // nobody draining: the queue must fill
    o.queueCapacity = 2;
    InferenceServer server(o);
    auto f1 = server.submit(tinyRequest("tiny:Swin"));
    auto f2 = server.submit(tinyRequest("tiny:Swin"));
    auto f3 = server.submit(tinyRequest("tiny:Swin"));
    // The rejection is immediate and typed, never a silent drop.
    InferenceResponse r3 = f3.get();
    EXPECT_EQ(r3.status, ResponseStatus::Rejected);
    EXPECT_NE(r3.error.find("admission queue full"), std::string::npos);
    server.start();
    EXPECT_EQ(f1.get().status, ResponseStatus::Ok);
    EXPECT_EQ(f2.get().status, ResponseStatus::Ok);
    auto st = server.stats();
    EXPECT_EQ(st.global.submitted, 3);
    EXPECT_EQ(st.global.served, 2);
    EXPECT_EQ(st.global.rejected, 1);
}

TEST(ServeParity, CoalescedBatchMatchesDirectExecution)
{
    ServerOptions o = baseOptions();
    o.autoStart = false;
    o.workers = 1;
    o.maxBatch = 4;
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    for (std::uint64_t salt = 0; salt < 4; ++salt)
        futures.push_back(
            server.submit(tinyRequest("tiny:ResNext", salt)));
    server.start();
    const auto &source = tinyRegistry().find("tiny:ResNext");
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
        InferenceResponse r = futures[salt].get();
        ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
        EXPECT_EQ(r.batchSize, 4);
        auto ref = directOutputs(source, salt, o);
        ASSERT_EQ(r.outputs.size(), ref.size());
        EXPECT_LE(exec::maxRelDiff(ref, r.outputs), kTol)
            << "salt " << salt;
    }
    EXPECT_EQ(server.stats().global.coalesced, 4);
}

/** Serve four uncoalesced requests of each tiny model under `o` and
 *  expect every response to equal its direct execution bit for bit. */
void
expectByteIdenticalResponses(ServerOptions o)
{
    o.autoStart = false;
    o.coalesce = false;
    InferenceServer server(o);
    std::vector<std::pair<std::string, std::uint64_t>> sent;
    std::vector<std::future<InferenceResponse>> futures;
    for (const char *model : {"tiny:Swin", "tiny:ViT", "tiny:ResNext"}) {
        for (std::uint64_t salt = 0; salt < 4; ++salt) {
            sent.emplace_back(model, salt);
            futures.push_back(server.submit(tinyRequest(model, salt)));
        }
    }
    server.start();
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto &[model, salt] = sent[i];
        InferenceResponse r = futures[i].get();
        ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
        auto ref = directOutputs(tinyRegistry().find(model), salt, o);
        ASSERT_EQ(r.outputs.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j) {
            ASSERT_EQ(r.outputs[j].shape(), ref[j].shape());
            EXPECT_EQ(std::memcmp(r.outputs[j].data(), ref[j].data(),
                                  static_cast<std::size_t>(
                                      ref[j].numElements()) *
                                      sizeof(float)),
                      0)
                << model << " salt " << salt << " output " << j;
        }
    }
}

TEST(ServeParity, SharedExecutorServesByteIdenticalOutputs)
{
    // Both workers run every batch on the device's one executor and
    // its prepared plans.
    expectByteIdenticalResponses(baseOptions());
}

TEST(ServeParity, MultiThreadedExecutionServesByteIdenticalOutputs)
{
    // Workers are plain threads, so at executorThreads = 2 each
    // execution splits its kernels across the process-wide pool.
    ServerOptions o = baseOptions();
    o.executorThreads = 2;
    expectByteIdenticalResponses(o);
}

TEST(ServeRouting, UnknownNamesFailWithCatalog)
{
    ServerOptions o = baseOptions();
    InferenceServer server(o);

    InferenceRequest bad_model = tinyRequest("nosuch");
    InferenceResponse r = server.submit(std::move(bad_model)).get();
    EXPECT_EQ(r.status, ResponseStatus::Failed);
    EXPECT_NE(r.error.find("registered:"), std::string::npos);

    InferenceRequest bad_device = tinyRequest("tiny:Swin");
    bad_device.device = "nosuch";
    r = server.submit(std::move(bad_device)).get();
    EXPECT_EQ(r.status, ResponseStatus::Failed);
    EXPECT_NE(r.error.find("registered:"), std::string::npos);

    InferenceRequest bad_compiler = tinyRequest("tiny:Swin");
    bad_compiler.compiler = "nosuch";
    r = server.submit(std::move(bad_compiler)).get();
    EXPECT_EQ(r.status, ResponseStatus::Failed);
    EXPECT_NE(r.error.find("registered:"), std::string::npos);

    InferenceRequest bad_stage = tinyRequest("tiny:Swin");
    bad_stage.stage = 7;
    r = server.submit(std::move(bad_stage)).get();
    EXPECT_EQ(r.status, ResponseStatus::Failed);
    EXPECT_NE(r.error.find("stage"), std::string::npos);

    // Routing failures poison nothing: the server still serves.
    r = server.submit(tinyRequest("tiny:Swin")).get();
    EXPECT_EQ(r.status, ResponseStatus::Ok) << r.error;
    auto st = server.stats();
    EXPECT_EQ(st.global.failed, 4);
    EXPECT_EQ(st.global.served, 1);
}

TEST(ServeRouting, UnknownBackendFailsAtConstruction)
{
    // Before any request is compiled, with the executor catalog.
    ServerOptions o = baseOptions();
    o.backend = "nosuch";
    try {
        InferenceServer server(o);
        ADD_FAILURE() << "server constructed on an unknown backend";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "registered: reference, cpu-blocked"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeRouting, GraphFileRequestsFallBackToSingles)
{
    // Export a tiny graph, then serve it by "@<path>".  File sources
    // are fixed-batch, so two same-key requests group but execute
    // individually -- and still match a direct execution.
    const std::string path = "serve_test_tmp.smgraph";
    {
        std::ofstream out(path);
        out << serialize::serializeGraph(
            models::buildTinyVariant("ViT", 1));
    }
    ServerOptions o = baseOptions();
    o.autoStart = false;
    o.workers = 1;
    o.maxBatch = 4;
    InferenceServer server(o);
    auto f1 = server.submit(tinyRequest("@" + path, 1));
    auto f2 = server.submit(tinyRequest("@" + path, 2));
    server.start();
    InferenceResponse r1 = f1.get();
    InferenceResponse r2 = f2.get();
    ASSERT_EQ(r1.status, ResponseStatus::Ok) << r1.error;
    ASSERT_EQ(r2.status, ResponseStatus::Ok) << r2.error;
    EXPECT_EQ(r1.batchSize, 1);
    EXPECT_EQ(r2.batchSize, 1);
    models::FileGraphSource direct(models::loadGraphFile(path));
    auto ref = directOutputs(direct, 2, o);
    EXPECT_LE(exec::maxRelDiff(ref, r2.outputs), kTol);
    std::remove(path.c_str());
}

TEST(ServeInputs, ExplicitTensorsAndShapeValidation)
{
    ServerOptions o = baseOptions();
    o.coalesce = false;
    InferenceServer server(o);

    // Explicit inputs identical to salt-5 synthesis must reproduce
    // the salt-5 response bit-for-bit semantics.
    const auto &source = tinyRegistry().find("tiny:Swin");
    const auto &dev =
        device::DeviceRegistry::builtins().find(o.defaultDevice);
    core::CompileSession session(dev, 1);
    auto plan = session.compileSource(source);
    auto synth = makeRequestInputs(plan->graph, o.seed, 5);
    InferenceRequest explicitReq = tinyRequest("tiny:Swin");
    for (ir::ValueId id : plan->graph.inputIds())
        explicitReq.inputs.push_back(synth.at(id));
    InferenceResponse r = server.submit(std::move(explicitReq)).get();
    ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
    auto ref = directOutputs(source, 5, o);
    EXPECT_LE(exec::maxRelDiff(ref, r.outputs), kTol);

    // A wrong input shape is a per-request Failed, not a crash.
    InferenceRequest bad = tinyRequest("tiny:Swin");
    bad.inputs.push_back(exec::Tensor(ir::Shape({1, 2, 3})));
    r = server.submit(std::move(bad)).get();
    EXPECT_EQ(r.status, ResponseStatus::Failed);
    EXPECT_NE(r.error.find("shape"), std::string::npos);
}

TEST(ServeShutdown, DrainServesEverythingAdmitted)
{
    ServerOptions o = baseOptions();
    o.workers = 2;
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(server.submit(
            tinyRequest(i % 2 ? "tiny:Swin" : "tiny:ViT",
                        static_cast<std::uint64_t>(i))));
    server.shutdown(true);
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, ResponseStatus::Ok);
    auto st = server.stats();
    EXPECT_EQ(st.global.served, 8);
    EXPECT_EQ(st.global.shutDown, 0);
}

TEST(ServeShutdown, NoDrainAnswersShuttingDown)
{
    ServerOptions o = baseOptions();
    o.autoStart = false; // queue only; nothing executes
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 5; ++i)
        futures.push_back(server.submit(tinyRequest("tiny:Swin")));
    server.shutdown(false);
    for (auto &f : futures) {
        InferenceResponse r = f.get();
        EXPECT_EQ(r.status, ResponseStatus::ShuttingDown);
        EXPECT_FALSE(r.error.empty());
    }
    // Submissions after shutdown answer ShuttingDown, never hang.
    InferenceResponse late =
        server.submit(tinyRequest("tiny:Swin")).get();
    EXPECT_EQ(late.status, ResponseStatus::ShuttingDown);
    auto st = server.stats();
    EXPECT_EQ(st.global.shutDown, 6);
    EXPECT_EQ(st.global.submitted, 6);
}

TEST(ServeShutdown, RacingSubmitAndShutdownAnswersEveryRequestOnce)
{
    // Three submitters send a seeded mix of the tiny models and an
    // unknown one while a fourth thread shuts the server down after a
    // seeded number of submissions, draining on even iterations.
    // Every future must become ready with one typed status, and the
    // per-status tallies must equal the server's counters.
    const std::vector<std::string> models = {"tiny:Swin", "tiny:ViT",
                                             "tiny:ResNext", "nosuch"};
    constexpr int kIterations = 24;
    constexpr int kSubmitters = 3;
    constexpr int kPerSubmitter = 16;
    constexpr int kSent = kSubmitters * kPerSubmitter;
    for (int it = 0; it < kIterations; ++it) {
        const bool drain = it % 2 == 0;
        ServerOptions o = baseOptions();
        o.queueCapacity = 12; // small, so some submits are Rejected
        InferenceServer server(o);
        std::vector<std::vector<std::future<InferenceResponse>>> futures(
            kSubmitters);
        std::atomic<int> submitted{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kSubmitters; ++t) {
            threads.emplace_back([&, t] {
                std::mt19937 rng(static_cast<std::uint32_t>(it * 8 + t));
                for (int i = 0; i < kPerSubmitter; ++i) {
                    const std::string &model =
                        models[rng() % models.size()];
                    futures[static_cast<std::size_t>(t)].push_back(
                        server.submit(tinyRequest(
                            model, static_cast<std::uint64_t>(i))));
                    ++submitted;
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(rng() % 300));
                }
            });
        }
        threads.emplace_back([&] {
            std::mt19937 rng(static_cast<std::uint32_t>(it * 8 + 7));
            const int after = static_cast<int>(rng() % (kSent + 1));
            while (submitted.load() < after)
                std::this_thread::yield();
            server.shutdown(drain);
        });
        for (std::thread &t : threads)
            t.join();

        std::map<ResponseStatus, std::int64_t> byStatus;
        for (auto &perThread : futures) {
            for (auto &f : perThread) {
                ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                          std::future_status::ready)
                    << "iteration " << it << ": unanswered request";
                const InferenceResponse r = f.get();
                ASSERT_TRUE(r.status == ResponseStatus::Ok ||
                            r.status == ResponseStatus::Rejected ||
                            r.status == ResponseStatus::ShuttingDown ||
                            r.status == ResponseStatus::Failed)
                    << "iteration " << it;
                if (r.status != ResponseStatus::Ok) {
                    EXPECT_FALSE(r.error.empty()) << "iteration " << it;
                }
                ++byStatus[r.status];
            }
        }
        const auto st = server.stats();
        EXPECT_EQ(st.global.submitted, kSent) << "iteration " << it;
        EXPECT_EQ(st.global.submitted,
                  st.global.served + st.global.rejected +
                      st.global.failed + st.global.shutDown)
            << "iteration " << it;
        EXPECT_EQ(byStatus[ResponseStatus::Ok], st.global.served)
            << "iteration " << it;
        EXPECT_EQ(byStatus[ResponseStatus::Rejected], st.global.rejected)
            << "iteration " << it;
        EXPECT_EQ(byStatus[ResponseStatus::Failed], st.global.failed)
            << "iteration " << it;
        EXPECT_EQ(byStatus[ResponseStatus::ShuttingDown],
                  st.global.shutDown)
            << "iteration " << it;
    }
}

TEST(ServeStats, LifecycleInvariantHolds)
{
    ServerOptions o = baseOptions();
    o.autoStart = false;
    o.queueCapacity = 3;
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    futures.push_back(server.submit(tinyRequest("tiny:Swin")));
    futures.push_back(server.submit(tinyRequest("nosuch")));
    futures.push_back(server.submit(tinyRequest("tiny:ViT")));
    futures.push_back(server.submit(tinyRequest("tiny:ViT")));
    futures.push_back(server.submit(tinyRequest("tiny:ViT"))); // full
    server.start();
    for (auto &f : futures)
        f.get();
    server.shutdown(true);
    auto st = server.stats();
    EXPECT_EQ(st.global.submitted, 5);
    EXPECT_EQ(st.global.submitted,
              st.global.served + st.global.rejected +
                  st.global.failed + st.global.shutDown);
    EXPECT_EQ(st.global.served, 3);
    EXPECT_EQ(st.global.rejected, 1);
    EXPECT_EQ(st.global.failed, 1);
    EXPECT_LE(st.queueHighWater, o.queueCapacity);
    // Latency recorders cover exactly the served requests.
    EXPECT_EQ(st.global.totalLatency.count(), 3u);
    EXPECT_EQ(st.global.queueLatency.count(), 3u);
    // Per-model blocks roll up to the global one.
    std::int64_t perModelServed = 0;
    for (const auto &[name, block] : st.perModel)
        perModelServed += block.served;
    EXPECT_EQ(perModelServed, st.global.served);
}

TEST(ServeCompile, BatchRePlansFlowThroughSessionCache)
{
    // Two coalesced batches of the same key and size: the second
    // batch's batch-k re-plan must be a cache hit, not a recompile.
    ServerOptions o = baseOptions();
    o.autoStart = false;
    o.workers = 1;
    o.maxBatch = 2;
    InferenceServer server(o);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(server.submit(
            tinyRequest("tiny:Swin", static_cast<std::uint64_t>(i))));
    server.start();
    for (auto &f : futures)
        ASSERT_EQ(f.get().status, ResponseStatus::Ok);
    auto cs = server.compileStats(o.defaultDevice);
    // Unique compiles: batch-1 plan + batch-2 plan.  Everything else
    // hit the session cache.
    EXPECT_EQ(cs.cacheMisses, 2);
    EXPECT_GE(cs.cacheHits, 2);
    EXPECT_EQ(server.stats().global.batchHistogram.at(2), 2);
}

} // namespace
} // namespace smartmem::serve

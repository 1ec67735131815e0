#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/compiler_registry.h"
#include "device/device_registry.h"
#include "exec/kernels_blocked.h"
#include "support/error.h"

namespace smartmem::serve {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
batchKeyFingerprint(const BatchKey &key)
{
    return key.model + "|" + key.deviceFingerprint + "|" +
           key.compiler + "|stage=" + std::to_string(key.stage);
}

/** Fulfill a request's promise; a no-op if this request was already
 *  answered (or moved out), so batch-level failure sweeps are safe
 *  after partial success. */
void
respond(QueuedRequest &q, InferenceResponse &&r)
{
    try {
        q.promise.set_value(std::move(r));
    } catch (const std::future_error &) {
        // already satisfied / moved-from: someone answered first
    }
}

/** Per-request element count of each listed value in the batch-1
 *  graph, in declaration order. */
std::vector<std::int64_t>
elementCounts(const ir::Graph &graph,
              const std::vector<ir::ValueId> &ids)
{
    std::vector<std::int64_t> counts;
    counts.reserve(ids.size());
    for (ir::ValueId id : ids)
        counts.push_back(graph.value(id).shape.numElements());
    return counts;
}

/**
 * Whether a batch-k plan is a stacking of k batch-1 plans: same
 * input/output arity, and every input/output shape is the batch-1
 * shape with dim 0 scaled by k (tensors are row-major with batch
 * outermost, so request b occupies the contiguous slice
 * [b*n1, (b+1)*n1) of each stacked buffer).
 */
bool
stacksAlongBatch(const ir::Graph &g1, const ir::Graph &gk, int k)
{
    auto scaled = [k](const ir::Shape &s1, const ir::Shape &sk) {
        if (s1.rank() != sk.rank() || s1.rank() == 0)
            return false;
        if (sk.dim(0) != static_cast<std::int64_t>(k) * s1.dim(0))
            return false;
        for (int d = 1; d < s1.rank(); ++d)
            if (s1.dim(d) != sk.dim(d))
                return false;
        return true;
    };
    if (g1.inputIds().size() != gk.inputIds().size() ||
        g1.outputIds().size() != gk.outputIds().size())
        return false;
    for (std::size_t i = 0; i < g1.inputIds().size(); ++i)
        if (!scaled(g1.value(g1.inputIds()[i]).shape,
                    gk.value(gk.inputIds()[i]).shape))
            return false;
    for (std::size_t i = 0; i < g1.outputIds().size(); ++i)
        if (!scaled(g1.value(g1.outputIds()[i]).shape,
                    gk.value(gk.outputIds()[i]).shape))
            return false;
    return true;
}

} // namespace

InferenceServer::InferenceServer(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queueCapacity)
{
    // Fail on an unknown backend here, before any compile, with the
    // catalog-listing FatalError makeExecutor raises.
    runtime::makeExecutor(options_.backend);
    options_.workers = std::max(options_.workers, 1);
    options_.maxBatch = std::max(options_.maxBatch, 1);
    if (options_.autoStart)
        start();
}

InferenceServer::~InferenceServer()
{
    shutdown(true);
}

const models::ModelRegistry &
InferenceServer::models() const
{
    return options_.models ? *options_.models
                           : models::ModelRegistry::builtins();
}

const device::DeviceProfile &
InferenceServer::resolveDevice(const std::string &name) const
{
    for (const auto &dev : options_.extraDevices)
        if (dev.name == name)
            return dev;
    return device::DeviceRegistry::builtins().find(name);
}

const models::GraphSource &
InferenceServer::sourceFor(const std::string &model)
{
    if (model.empty() || model[0] != '@')
        return models().find(model);
    const std::string path = model.substr(1);
    SM_REQUIRE(!path.empty(),
               "empty graph-file path (expected @<path>.smgraph)");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphFiles_.find(path);
    if (it == graphFiles_.end()) {
        it = graphFiles_
                 .emplace(path,
                          std::make_unique<models::FileGraphSource>(
                              models::loadGraphFile(path)))
                 .first;
    }
    return *it->second;
}

core::CompileSession &
InferenceServer::sessionFor(const std::string &deviceFp)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(deviceFp);
    if (it == sessions_.end()) {
        auto dev = devicesByFp_.find(deviceFp);
        SM_ASSERT(dev != devicesByFp_.end(),
                  "no profile recorded for device fingerprint");
        // Serial sessions: the server's workers are the parallelism;
        // concurrent compiles of one key are single-flight anyway.
        it = sessions_
                 .emplace(deviceFp, std::make_unique<core::CompileSession>(
                                        dev->second, 1))
                 .first;
    }
    return *it->second;
}

runtime::PlanExecutor &
InferenceServer::executorFor(const std::string &deviceFp)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = executors_.find(deviceFp);
    if (it == executors_.end()) {
        runtime::ExecutorOptions eo;
        eo.threads = options_.executorThreads;
        eo.seed = options_.seed;
        const exec::TileParams tiles =
            exec::resolveTileParams(devicesByFp_.at(deviceFp));
        eo.gemmRowTile = tiles.rowTile;
        eo.gemmKBlock = tiles.kBlock;
        it = executors_
                 .emplace(deviceFp,
                          runtime::makeExecutor(options_.backend, eo))
                 .first;
    }
    return *it->second;
}

core::CompileStats
InferenceServer::compileStats(const std::string &deviceName) const
{
    const std::string fp = resolveDevice(deviceName).fingerprint();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(fp);
    return it == sessions_.end() ? core::CompileStats()
                                 : it->second->stats();
}

std::future<InferenceResponse>
InferenceServer::submit(InferenceRequest request)
{
    std::promise<InferenceResponse> promise;
    std::future<InferenceResponse> future = promise.get_future();
    const auto now = std::chrono::steady_clock::now();

    auto finish = [&](ResponseStatus status, std::string error) {
        InferenceResponse r;
        r.status = status;
        r.error = std::move(error);
        promise.set_value(std::move(r));
        return std::move(future);
    };

    stats_.onSubmitted(request.model, queue_.size());

    // Fail fast on routing: unknown names answer with the registry's
    // catalog-listing FatalError message instead of dying in a worker.
    QueuedRequest q;
    try {
        SM_REQUIRE(request.stage >= -1 && request.stage <= 3,
                   "stage must be -1..3, got " +
                       std::to_string(request.stage));
        const std::string deviceName = request.device.empty()
            ? options_.defaultDevice
            : request.device;
        const device::DeviceProfile &dev = resolveDevice(deviceName);
        core::CompilerRegistry::builtins().find(request.compiler);
        sourceFor(request.model); // throws on unknown model/bad file
        q.key = BatchKey{request.model, dev.fingerprint(),
                         request.compiler, request.stage};
        std::lock_guard<std::mutex> lock(mu_);
        devicesByFp_.emplace(q.key.deviceFingerprint, dev);
    } catch (const std::exception &e) {
        stats_.onFailed(request.model);
        return finish(ResponseStatus::Failed, e.what());
    }

    const std::string model = request.model;
    q.request = std::move(request);
    q.enqueueTime = now;
    q.promise = std::move(promise);
    // `promise` was moved into q, so a failed push answers through
    // q.promise (push leaves q intact when it returns false).
    if (!queue_.push(std::move(q))) {
        InferenceResponse r;
        if (queue_.closed()) {
            stats_.onShutDown(model);
            r.status = ResponseStatus::ShuttingDown;
            r.error = "server is shutting down";
        } else {
            stats_.onRejected(model);
            r.status = ResponseStatus::Rejected;
            r.error = "admission queue full (" +
                      std::to_string(queue_.capacity()) +
                      " requests); retry later";
        }
        q.promise.set_value(std::move(r));
    }
    return future;
}

void
InferenceServer::start()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopped_)
        return;
    started_ = true;
    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
InferenceServer::shutdown(bool drain)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    if (drain) {
        queue_.close();
    } else {
        for (QueuedRequest &q : queue_.closeAndFlush()) {
            stats_.onShutDown(q.request.model);
            InferenceResponse r;
            r.status = ResponseStatus::ShuttingDown;
            r.error = "server shut down before execution";
            r.totalMs = msSince(q.enqueueTime);
            q.promise.set_value(std::move(r));
        }
    }
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

void
InferenceServer::workerLoop()
{
    const int maxBatch = options_.coalesce ? options_.maxBatch : 1;
    for (;;) {
        std::vector<QueuedRequest> batch = queue_.popBatch(maxBatch);
        if (batch.empty())
            return; // closed and drained
        execute(std::move(batch));
    }
}

std::map<ir::ValueId, exec::Tensor>
InferenceServer::inputsFor(const InferenceRequest &request,
                           const ir::Graph &graph1) const
{
    if (request.inputs.empty())
        return makeRequestInputs(graph1, options_.seed,
                                 request.inputSalt);
    const auto &ids = graph1.inputIds();
    SM_REQUIRE(request.inputs.size() == ids.size(),
               "request carries " +
                   std::to_string(request.inputs.size()) +
                   " inputs, graph declares " +
                   std::to_string(ids.size()));
    std::map<ir::ValueId, exec::Tensor> inputs;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const ir::Shape &want = graph1.value(ids[i]).shape;
        const ir::Shape &got = request.inputs[i].shape();
        SM_REQUIRE(got == want,
                   "input " + std::to_string(i) + " shape " +
                       got.toString() + " does not match declared " +
                       want.toString());
        inputs[ids[i]] = request.inputs[i];
    }
    return inputs;
}

void
InferenceServer::executeSingles(std::vector<QueuedRequest> &batch,
                                const runtime::ExecutionPlan &plan1,
                                runtime::PlanExecutor &executor)
{
    const std::string &model = batch.front().request.model;
    for (QueuedRequest &q : batch) {
        try {
            auto inputs = inputsFor(q.request, plan1.graph);
            const double queueMs = msSince(q.enqueueTime);
            const auto execStart = std::chrono::steady_clock::now();
            auto outputs = executor.run(plan1, inputs);
            InferenceResponse r;
            r.status = ResponseStatus::Ok;
            r.batchSize = 1;
            r.queueMs = queueMs;
            r.execMs = msSince(execStart);
            r.outputs = std::move(outputs);
            r.totalMs = msSince(q.enqueueTime);
            stats_.onBatchExecuted(model, 1);
            stats_.onServed(model, 1, r.totalMs, r.queueMs);
            respond(q, std::move(r));
        } catch (const std::exception &e) {
            stats_.onFailed(model);
            InferenceResponse r;
            r.status = ResponseStatus::Failed;
            r.error = e.what();
            r.totalMs = msSince(q.enqueueTime);
            respond(q, std::move(r));
        }
    }
}

void
InferenceServer::execute(std::vector<QueuedRequest> batch)
{
    const BatchKey key = batch.front().key;
    const std::string &model = key.model;

    auto failAll = [&](const std::string &error) {
        // respond() skips requests already answered (or moved into
        // the survivors vector), so this sweep is safe on any
        // exception path.
        for (QueuedRequest &q : batch) {
            InferenceResponse r;
            r.status = ResponseStatus::Failed;
            r.error = error;
            r.totalMs = msSince(q.enqueueTime);
            try {
                q.promise.set_value(std::move(r));
            } catch (const std::future_error &) {
                continue; // already answered elsewhere
            }
            stats_.onFailed(model);
        }
    };

    try {
        const core::Compiler &compiler =
            core::CompilerRegistry::builtins().find(key.compiler);
        core::CompileSession &session =
            sessionFor(key.deviceFingerprint);
        const models::GraphSource &source = sourceFor(model);
        runtime::PlanExecutor &executor =
            executorFor(key.deviceFingerprint);

        core::CompileOptions o1;
        o1.batch = 1;
        o1.stage = key.stage;
        core::CompilerResult r1 =
            compiler.compileSource(session, source, o1);
        if (!r1.supported) {
            failAll("compiler '" + key.compiler + "' does not support " +
                    model + ": " + r1.reason);
            return;
        }
        const runtime::ExecutionPlan &plan1 = *r1.plan;

        const int k = static_cast<int>(batch.size());
        std::shared_ptr<const runtime::ExecutionPlan> plank;
        if (k > 1) {
            const std::string memoKey = batchKeyFingerprint(key);
            bool tryBatch = true;
            {
                std::lock_guard<std::mutex> lock(mu_);
                auto memo = batchable_.find(memoKey);
                if (memo != batchable_.end())
                    tryBatch = memo->second;
            }
            if (tryBatch) {
                bool ok = false;
                try {
                    core::CompileOptions ok_ = o1;
                    ok_.batch = k;
                    core::CompilerResult rk =
                        compiler.compileSource(session, source, ok_);
                    if (rk.supported &&
                        stacksAlongBatch(plan1.graph, rk.plan->graph,
                                         k)) {
                        plank = rk.plan;
                        ok = true;
                    }
                } catch (const FatalError &) {
                    // Fixed-batch source (e.g. a .smgraph file):
                    // remember and serve the group individually.
                }
                if (!ok) {
                    std::lock_guard<std::mutex> lock(mu_);
                    batchable_.emplace(memoKey, false);
                }
            }
        }

        if (!plank) {
            executeSingles(batch, plan1, executor);
            return;
        }

        // Coalesced path: validate every request's inputs against the
        // batch-1 graph first.  Invalid ones are answered Failed in
        // place; if any fall out, the batch-k plan no longer matches
        // the group size, so the survivors run individually rather
        // than re-planning mid-batch.
        std::vector<std::map<ir::ValueId, exec::Tensor>> perRequest(
            batch.size());
        std::vector<char> valid(batch.size(), 1);
        bool allValid = true;
        for (std::size_t b = 0; b < batch.size(); ++b) {
            try {
                perRequest[b] =
                    inputsFor(batch[b].request, plan1.graph);
            } catch (const std::exception &e) {
                valid[b] = 0;
                allValid = false;
                stats_.onFailed(model);
                InferenceResponse r;
                r.status = ResponseStatus::Failed;
                r.error = e.what();
                r.totalMs = msSince(batch[b].enqueueTime);
                respond(batch[b], std::move(r));
            }
        }
        if (!allValid) {
            std::vector<QueuedRequest> rest;
            for (std::size_t b = 0; b < batch.size(); ++b)
                if (valid[b])
                    rest.push_back(std::move(batch[b]));
            if (!rest.empty())
                executeSingles(rest, plan1, executor);
            return;
        }

        // Stack per-request inputs along dim 0, execute the batch-k
        // plan once, slice the outputs back.
        const auto &ids1 = plan1.graph.inputIds();
        const auto &idsk = plank->graph.inputIds();
        const auto inCounts = elementCounts(plan1.graph, ids1);
        std::map<ir::ValueId, exec::Tensor> stacked;
        for (std::size_t j = 0; j < idsk.size(); ++j) {
            exec::Tensor t(plank->graph.value(idsk[j]).shape);
            for (std::size_t b = 0; b < batch.size(); ++b) {
                const exec::Tensor &part = perRequest[b].at(ids1[j]);
                std::memcpy(t.data() +
                                static_cast<std::size_t>(
                                    inCounts[j]) * b,
                            part.data(),
                            static_cast<std::size_t>(inCounts[j]) *
                                sizeof(float));
            }
            stacked[idsk[j]] = std::move(t);
        }

        std::vector<double> queueMs;
        queueMs.reserve(batch.size());
        for (const QueuedRequest &q : batch)
            queueMs.push_back(msSince(q.enqueueTime));
        const auto execStart = std::chrono::steady_clock::now();
        std::vector<exec::Tensor> outputs =
            executor.run(*plank, stacked);
        const double execMs = msSince(execStart);
        stats_.onBatchExecuted(model, k);

        const auto &outs1 = plan1.graph.outputIds();
        const auto outCounts = elementCounts(plan1.graph, outs1);
        for (std::size_t b = 0; b < batch.size(); ++b) {
            InferenceResponse r;
            r.status = ResponseStatus::Ok;
            r.batchSize = k;
            r.queueMs = queueMs[b];
            r.execMs = execMs;
            r.outputs.reserve(outs1.size());
            for (std::size_t j = 0; j < outs1.size(); ++j) {
                exec::Tensor t(plan1.graph.value(outs1[j]).shape);
                std::memcpy(t.data(),
                            outputs[j].data() +
                                static_cast<std::size_t>(
                                    outCounts[j]) * b,
                            static_cast<std::size_t>(outCounts[j]) *
                                sizeof(float));
                r.outputs.push_back(std::move(t));
            }
            r.totalMs = msSince(batch[b].enqueueTime);
            stats_.onServed(model, k, r.totalMs, r.queueMs);
            respond(batch[b], std::move(r));
        }
    } catch (const std::exception &e) {
        failAll(e.what());
    }
}

} // namespace smartmem::serve

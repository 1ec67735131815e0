/**
 * @file
 * InferenceServer: the multi-tenant request/response serving layer.
 *
 * Architecture (docs/SERVING.md):
 *
 *   submit() ──> AdmissionQueue (bounded) ──> worker threads
 *                                             (std::thread)
 *                                               │ popBatch():
 *                                               │ same-(model, device,
 *                                               │ compiler, stage)
 *                                               │ coalescing
 *                                               ▼
 *                                  CompileSession plan caches
 *                                  (per device, batch-k re-planning)
 *                                               │
 *                                               ▼
 *                                  one runtime::PlanExecutor per
 *                                  device, shared by the workers
 *                                  (each batch-k plan prepared once)
 *
 * The constructor checks the backend name: an unknown one raises the
 * catalog-listing FatalError runtime::makeExecutor raises, before any
 * compile.  submit() never blocks: it validates routing against the
 * existing registries (unknown names answer Failed with the
 * catalog-listing FatalError message), then either admits the request
 * or answers Rejected when the bounded queue is full (backpressure) --
 * every request gets exactly one typed response, never a silent drop.
 *
 * A free worker pops the queue head together with the same-key
 * requests already queued, up to maxBatch, and never waits for more
 * (see AdmissionQueue): batches form from the requests that queue
 * while every worker is executing.  The worker compiles a batch-k
 * plan through the per-device CompileSession -- so re-planning per
 * coalesced batch size is a plan cache hit after the first
 * occurrence, and concurrent first occurrences are single-flight --
 * stacks the requests' inputs along the batch dimension, executes
 * once on the device's shared executor, and slices the outputs back
 * into per-request responses.  Workers are plain threads, so an
 * execution with executorThreads > 1 splits its kernels across the
 * process-wide support::globalPool().  The shared executor keeps its
 * preparations for the life of the server, so each keyed batch-k plan
 * is prepared (constants resolved, reads lowered) once per server,
 * and the batch sizes of one model share its weights.  Sources that
 * cannot rebuild at batch k (fixed-batch `.smgraph` files) or whose
 * shapes do not stack fall back to per-request batch-1 execution of
 * the same group.
 */
#ifndef SMARTMEM_SERVE_SERVER_H
#define SMARTMEM_SERVE_SERVER_H

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compile_session.h"
#include "device/device_profile.h"
#include "models/model_registry.h"
#include "runtime/plan_executor.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/serve_stats.h"

namespace smartmem::serve {

/** Serving configuration; every knob has a usable default. */
struct ServerOptions
{
    /** Device for requests that leave `device` empty. */
    std::string defaultDevice = "adreno740";

    /** File-loaded profiles resolvable by DeviceProfile::name before
     *  the built-in registry is consulted (CLI --device-file). */
    std::vector<device::DeviceProfile> extraDevices;

    /** Worker threads draining the admission queue. */
    int workers = 2;

    /** Admission queue bound; a full queue rejects (backpressure). */
    std::size_t queueCapacity = 256;

    /** Largest coalesced batch (1 disables coalescing). */
    int maxBatch = 8;

    /** Master switch for coalescing (false forces batch size 1, for
     *  A/B comparison). */
    bool coalesce = true;

    /** Execution backend registry name (runtime::makeExecutor). */
    std::string backend = "cpu-blocked";

    /** Threads per plan execution; workers are the serving
     *  parallelism, so per-execution threading defaults to 1. */
    int executorThreads = 1;

    /** Seed for synthesized constants and salted request inputs;
     *  verification must execute with the same seed. */
    std::uint64_t seed = 1234;

    /** Spawn workers in the constructor; false = call start()
     *  explicitly (tests pre-load the queue, then start). */
    bool autoStart = true;

    /** Model catalog; null = ModelRegistry::builtins().  Must outlive
     *  the server. */
    const models::ModelRegistry *models = nullptr;
};

/** Multi-tenant inference server (see file header). */
class InferenceServer
{
  public:
    /** Throws FatalError, listing the registered backends, when
     *  options.backend names none. */
    explicit InferenceServer(ServerOptions options = ServerOptions());

    /** Equivalent to shutdown(true): drains admitted requests. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Submit one request; never blocks.  The future always becomes
     * ready with exactly one response: Ok after execution, Rejected
     * on a full admission queue, ShuttingDown when the server stopped
     * first, Failed on routing/compile/execution errors.
     */
    std::future<InferenceResponse> submit(InferenceRequest request);

    /** Spawn the worker threads; idempotent.  No-op after
     *  shutdown(). */
    void start();

    /**
     * Stop the server; idempotent.  drain=true serves everything
     * already admitted before returning; drain=false answers queued
     * requests ShuttingDown (in-flight batches still finish).  Either
     * way every admitted request has its response by return.
     */
    void shutdown(bool drain = true);

    StatsSnapshot stats() const { return stats_.snapshot(); }

    std::size_t queueDepth() const { return queue_.size(); }

    const ServerOptions &options() const { return options_; }

    /** Resolved compile stats of the session serving `deviceName`
     *  (for tests/diagnostics); zeros if that device never compiled
     *  anything. */
    core::CompileStats
    compileStats(const std::string &deviceName) const;

  private:
    const models::ModelRegistry &models() const;

    /** extraDevices by name, then DeviceRegistry::builtins(). */
    const device::DeviceProfile &
    resolveDevice(const std::string &name) const;

    /** Registry source, or the cached FileGraphSource for an
     *  "@<path>" token (loads the file on first use). */
    const models::GraphSource &sourceFor(const std::string &model);

    core::CompileSession &sessionFor(const std::string &deviceFp);

    /** The device's shared executor, created on first use with the
     *  device's GEMM tiles. */
    runtime::PlanExecutor &executorFor(const std::string &deviceFp);

    void workerLoop();
    void execute(std::vector<QueuedRequest> batch);
    void executeSingles(std::vector<QueuedRequest> &batch,
                        const runtime::ExecutionPlan &plan1,
                        runtime::PlanExecutor &executor);

    /** Per-request input map against the batch-1 graph: explicit
     *  tensors validated against the declared inputs, or synthesized
     *  from (options.seed, request.inputSalt).  Throws FatalError on
     *  count/shape mismatches. */
    std::map<ir::ValueId, exec::Tensor>
    inputsFor(const InferenceRequest &request,
              const ir::Graph &graph1) const;

    ServerOptions options_;
    AdmissionQueue queue_;
    ServerStats stats_;

    mutable std::mutex mu_;
    bool started_ = false;
    bool stopped_ = false;
    /** Device fingerprint -> profile seen at submit (so execute()
     *  needs no registry access). */
    std::map<std::string, device::DeviceProfile> devicesByFp_;
    /** Device fingerprint -> lazily created compile session. */
    std::map<std::string, std::unique_ptr<core::CompileSession>>
        sessions_;
    /** Device fingerprint -> lazily created executor, shared by every
     *  worker for the life of the server. */
    std::map<std::string, std::unique_ptr<runtime::PlanExecutor>>
        executors_;
    /** "@<path>" -> loaded graph source. */
    std::map<std::string, std::unique_ptr<models::FileGraphSource>>
        graphFiles_;
    /** Batch-key fingerprint -> "source rebuilds and stacks at
     *  batch > 1" memo, so fixed-batch sources don't retry a failing
     *  build on every batch. */
    std::map<std::string, bool> batchable_;
    /** Declared last: the workers use every member above.  Plain
     *  threads, not a support::ThreadPool: a pool worker runs every
     *  parallel loop inline, and these must fan out to the
     *  process-wide pool when executorThreads > 1.  Their loops never
     *  throw (execute() answers every failure as a response). */
    std::vector<std::thread> workers_;
};

} // namespace smartmem::serve

#endif // SMARTMEM_SERVE_SERVER_H

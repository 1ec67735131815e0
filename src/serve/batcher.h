/**
 * @file
 * Bounded admission queue with same-key batch coalescing.
 *
 * The queue is the single handoff point between submitters and server
 * workers.  Admission is bounded (push() fails when full -- the
 * server turns that into a typed Rejected response, never a silent
 * drop).  Workers pop *batches*: popBatch() takes the FIFO head, then
 * gathers the requests already queued with the same BatchKey --
 * (model, device fingerprint, compiler, stage) -- up to maxBatch.  It
 * is work-conserving: a worker waits only for a non-empty queue, never
 * for company, so a lone request runs at once.  Batches form under
 * load, from the requests that queue while every worker is executing.
 *
 * Multiple workers can sit in popBatch() concurrently; each pops a
 * disjoint set of requests, so distinct keys batch in parallel.
 */
#ifndef SMARTMEM_SERVE_BATCHER_H
#define SMARTMEM_SERVE_BATCHER_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.h"

namespace smartmem::serve {

/** Requests coalesce into one executed batch iff their keys match. */
struct BatchKey
{
    std::string model;
    std::string deviceFingerprint;
    std::string compiler;
    int stage = -1;

    bool operator==(const BatchKey &o) const
    {
        return model == o.model &&
               deviceFingerprint == o.deviceFingerprint &&
               compiler == o.compiler && stage == o.stage;
    }
    bool operator!=(const BatchKey &o) const { return !(*this == o); }
};

/** One admitted request waiting for (or undergoing) execution. */
struct QueuedRequest
{
    InferenceRequest request;
    BatchKey key;
    std::chrono::steady_clock::time_point enqueueTime;
    std::promise<InferenceResponse> promise;
};

/** Bounded FIFO queue with coalescing pop (see file header). */
class AdmissionQueue
{
  public:
    explicit AdmissionQueue(std::size_t capacity);

    /** Admit a request; false when the queue is at capacity or
     *  closed (the caller owns the rejection response). */
    bool push(QueuedRequest &&q);

    /**
     * Pop the next batch: the FIFO head plus up to maxBatch-1 same-key
     * requests already queued, in FIFO order; never waits for more to
     * arrive.  Blocks while the queue is empty and open.  Returns an
     * empty vector exactly once the queue is closed and fully drained.
     */
    std::vector<QueuedRequest> popBatch(int maxBatch);

    /** Stop admission; workers drain what is queued, then popBatch
     *  returns empty. */
    void close();

    /** Stop admission and return everything still queued (no-drain
     *  shutdown: the server answers these ShuttingDown). */
    std::vector<QueuedRequest> closeAndFlush();

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    bool closed() const;

  private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<QueuedRequest> queue_;
    bool closed_ = false;
};

} // namespace smartmem::serve

#endif // SMARTMEM_SERVE_BATCHER_H

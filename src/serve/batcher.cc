#include "serve/batcher.h"

#include "support/error.h"

namespace smartmem::serve {

AdmissionQueue::AdmissionQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

bool
AdmissionQueue::push(QueuedRequest &&q)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_ || queue_.size() >= capacity_)
            return false;
        queue_.push_back(std::move(q));
    }
    // popBatch waits only for a non-empty queue, so one waiter
    // suffices.
    cv_.notify_one();
    return true;
}

std::vector<QueuedRequest>
AdmissionQueue::popBatch(int maxBatch)
{
    SM_REQUIRE(maxBatch >= 1, "popBatch requires maxBatch >= 1");
    std::vector<QueuedRequest> batch;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty())
        return batch; // closed and drained

    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    // By value: growing `batch` reallocates, so a reference into it
    // would dangle after the first coalesced push_back.
    const BatchKey key = batch.front().key;
    // Gather the same-key requests already queued; other keys keep
    // their FIFO positions for other popBatch calls.
    for (auto it = queue_.begin();
         it != queue_.end() &&
         batch.size() < static_cast<std::size_t>(maxBatch);) {
        if (it->key == key) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    return batch;
}

void
AdmissionQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::vector<QueuedRequest>
AdmissionQueue::closeAndFlush()
{
    std::vector<QueuedRequest> rest;
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
        while (!queue_.empty()) {
            rest.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
    }
    cv_.notify_all();
    return rest;
}

std::size_t
AdmissionQueue::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

bool
AdmissionQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

} // namespace smartmem::serve

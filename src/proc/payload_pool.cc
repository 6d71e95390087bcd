#include "proc/payload_pool.hh"

#include <algorithm>
#include <cassert>
#include <exception>
#include <utility>

#include "sim/parallel.hh"

namespace halsim::proc {

namespace {

/** Jobs allocated up front: more than a server keeps in flight. */
constexpr std::size_t kInitialJobs = 64;

/** Pause rounds a worker spins on an empty ring before blocking:
 *  about 0.2 ms on a 4-vCPU Xeon, far longer than the gap between two
 *  submissions of a busy run. */
constexpr unsigned kIdleSpins = 8192;

/** Pause rounds a joiner spins before it also yields its CPU. */
constexpr unsigned kJoinSpins = 4000;

enum : std::uint8_t
{
    kFree,
    kQueued,
    kRunning,
    kDone,
};

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

thread_local std::optional<unsigned> t_workers;

} // namespace

struct alignas(64) PayloadPool::Job
{
    std::span<std::uint8_t> payload;
    funcs::KernelSummary summary;
    std::exception_ptr error;   //!< what run() threw, rethrown at join
    std::atomic<std::uint8_t> state{kFree};
};

std::optional<unsigned>
setPayloadWorkers(std::optional<unsigned> n)
{
    const std::optional<unsigned> prev = t_workers;
    t_workers = n;
    return prev;
}

unsigned
payloadWorkers()
{
    if (t_workers)
        return *t_workers;
    const unsigned hw = hardwareThreads();
    return hw > 1 ? std::min(hw - 1, kMaxPayloadWorkers) : 0;
}

PayloadPool::PayloadPool(funcs::KernelFunction &fn, unsigned workers)
    : fn_(fn), workers_(workers),
      ring_(std::make_unique<std::atomic<Job *>[]>(kRing))
{
    assert(workers > 0);
    for (std::size_t i = 0; i < kInitialJobs; ++i) {
        jobs_.push_back(std::make_unique<Job>());
        free_.push_back(jobs_.back().get());
    }
}

PayloadPool::~PayloadPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_.store(true, std::memory_order_relaxed);
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
PayloadPool::start()
{
    // Workspaces are built here, on the simulation thread, so the
    // workers start with everything they need.
    for (unsigned i = 0; i < workers_; ++i) {
        // halint: allow(HAL-W008) once per pool, at the first submit
        workspaces_.push_back(fn_.makeWorkspace());
    }
    for (unsigned i = 0; i < workers_; ++i) {
        // halint: allow(HAL-W008) once per pool, at the first submit
        threads_.emplace_back(
            [this, ws = workspaces_[i].get()] { workerLoop(ws); });
    }
}

// halint: hotpath
PayloadPool::Job *
PayloadPool::submit(net::Packet &pkt)
{
    if (free_.empty()) {
        // Past the in-flight peak: one more job, and room in free_
        // for every job to come back (join never reallocates).
        // halint: allow(HAL-W004) grows once past the in-flight peak
        jobs_.push_back(std::make_unique<Job>());
        // halint: allow(HAL-W004) grows once past the in-flight peak
        free_.reserve(jobs_.size());
        // halint: allow(HAL-W004) within the capacity just reserved
        free_.push_back(jobs_.back().get());
    }
    // The workers start with the first job, so building a server
    // costs no threads and nothing spins while it is set up.
    if (threads_.empty())
        start();
    Job *job = free_.back();
    free_.pop_back();
    job->payload = pkt.payload();
    job->summary = {};
    // Release: whoever claims the job sees its payload.
    job->state.store(kQueued, std::memory_order_release);

    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= kRing) {
        // Every entry is still unconsumed: run it here instead (or
        // let the worker that found a stale entry for it do so).
        if (claim(*job))
            run(*job, fn_.ownWorkspace());
        return job;
    }
    ring_[t % kRing].store(job, std::memory_order_relaxed);
    tail_.store(t + 1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
        // A worker that counted itself asleep either saw the new tail
        // or is waiting by the time the lock is free.
        { std::lock_guard<std::mutex> lk(mu_); }
        wake_.notify_one();
    }
    return job;
}

// halint: hotpath
void
PayloadPool::join(Job *job, const net::Packet &pkt)
{
    // The worker wrote through the span it was given: the frame must
    // not have been resized (or reallocated) underneath it.
    assert(pkt.payload().data() == job->payload.data() &&
           pkt.payload().size() == job->payload.size());
    (void)pkt;
    if (job->state.load(std::memory_order_acquire) != kDone) {
        if (claim(*job))
            run(*job, fn_.ownWorkspace());
        else
            helpUntilDone(*job);
    }
    const std::exception_ptr error = std::exchange(job->error, nullptr);
    if (!error)
        fn_.fold(job->summary);
    job->state.store(kFree, std::memory_order_relaxed);
    // halint: allow(HAL-W004) capacity reserved for every job
    free_.push_back(job);
    if (error)
        std::rethrow_exception(error);
}

void
PayloadPool::drain()
{
    // Run whatever no worker has taken, then wait out the rest.
    for (const std::unique_ptr<Job> &job : jobs_) {
        if (claim(*job))
            run(*job, fn_.ownWorkspace());
    }
    for (const std::unique_ptr<Job> &job : jobs_) {
        if (job->state.load(std::memory_order_acquire) == kRunning)
            awaitDone(*job);
    }
}

PayloadPool::Job *
PayloadPool::pop()
{
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    while (h != tail_.load(std::memory_order_acquire)) {
        Job *job = ring_[h % kRing].load(std::memory_order_relaxed);
        // Release: the slot read above happens before the producer
        // reuses the slot (it reads head_ with acquire first).
        if (head_.compare_exchange_weak(h, h + 1,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
            if (claim(*job))
                return job;
            ++h;   // claimed at join time: a stale entry
        }
    }
    return nullptr;
}

bool
PayloadPool::claim(Job &job)
{
    std::uint8_t queued = kQueued;
    return job.state.compare_exchange_strong(queued, kRunning,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed);
}

void
PayloadPool::run(Job &job, funcs::KernelWorkspace *ws)
{
    // A kernel that throws (bad_alloc while a workspace grows) must not
    // end a worker thread: the error travels to the joiner instead.
    try {
        job.summary = fn_.run(job.payload, ws);
    } catch (...) {
        job.error = std::current_exception();
    }
    job.state.store(kDone, std::memory_order_release);
}

void
PayloadPool::helpUntilDone(const Job &job)
{
    // A worker holds @p job. Rather than idle, run queued jobs here:
    // they are needed later anyway, and the workers are the
    // bottleneck whenever a backlog exists.
    while (job.state.load(std::memory_order_acquire) != kDone) {
        Job *other = pop();
        if (other == nullptr) {
            awaitDone(job);
            return;
        }
        run(*other, fn_.ownWorkspace());
    }
}

void
PayloadPool::awaitDone(const Job &job)
{
    for (unsigned spins = 0;
         job.state.load(std::memory_order_acquire) != kDone; ++spins) {
        if (spins < kJoinSpins)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

bool
PayloadPool::sleep()
{
    std::unique_lock<std::mutex> lk(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    wake_.wait(lk, [this] {
        return stop_.load(std::memory_order_relaxed) ||
               head_.load(std::memory_order_seq_cst) !=
                   tail_.load(std::memory_order_seq_cst);
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return !stop_.load(std::memory_order_relaxed);
}

void
PayloadPool::workerLoop(funcs::KernelWorkspace *ws)
{
    for (;;) {
        Job *job = pop();
        for (unsigned idle = 0; job == nullptr; job = pop()) {
            if (idle < kIdleSpins &&
                !stop_.load(std::memory_order_relaxed)) {
                ++idle;
                cpuRelax();
            } else if (sleep()) {
                idle = 0;
            } else {
                return;   // stopping
            }
        }
        run(*job, ws);
    }
}

} // namespace halsim::proc

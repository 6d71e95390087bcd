/**
 * @file
 * Payload worker pool: pure function kernels (funcs::KernelFunction)
 * run on worker threads while the simulation thread keeps executing
 * events. Only the simulation thread touches events, packets and
 * function totals; a worker sees nothing but the payload bytes of the
 * job it runs and its own workspace. No RunResult field reads those
 * bytes before the job is joined, so a run is bit-identical with any
 * worker count (DESIGN.md §8).
 */

#ifndef HALSIM_PROC_PAYLOAD_POOL_HH
#define HALSIM_PROC_PAYLOAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "funcs/function.hh"
#include "net/packet.hh"

namespace halsim::proc {

/** Ceiling of the default payload worker count. */
inline constexpr unsigned kMaxPayloadWorkers = 4;

/**
 * Select the payload workers of every ServerSystem built on the
 * calling thread from now on: @p n, or with nullopt the default
 * (hardware threads - 1, at most kMaxPayloadWorkers; 0 on one CPU).
 * Returns the previous selection. core::runSweep selects 0 on its
 * worker threads, because parallel sweep points already fill every
 * core.
 */
std::optional<unsigned> setPayloadWorkers(std::optional<unsigned> n);

/** The worker count the calling thread's selection resolves to. */
unsigned payloadWorkers();

/**
 * A fixed set of worker threads running one function's kernel.
 *
 * submit() hands a payload to the workers at service start; join()
 * at the first read of the bytes waits for the run (or claims it and
 * runs it on the calling thread when no worker has taken it yet),
 * folds its summary into the function and recycles the job.
 *
 * The hand-off takes no lock. The simulation thread is the one
 * producer of a ring of job pointers; workers (and a joiner with time
 * to spare) take entries by advancing the ring head, and take a job
 * by moving its state from queued to running. Whoever loses that
 * race skips the entry, so a job claimed at join time just leaves a
 * stale entry behind. Workers spin a while when the ring runs dry,
 * then block, so an idle pool costs no CPU.
 */
class PayloadPool
{
  public:
    /** One submitted kernel run. */
    struct Job;

    /** A pool of @p workers threads (>= 1), started at the first
     *  submit, each with its own workspace from @p fn.makeWorkspace(). */
    PayloadPool(funcs::KernelFunction &fn, unsigned workers);

    /** Runs every outstanding job, then stops the workers. */
    ~PayloadPool();

    PayloadPool(const PayloadPool &) = delete;
    PayloadPool &operator=(const PayloadPool &) = delete;

    /** Queue a kernel run over @p pkt's payload. The bytes belong to
     *  the job until join(); the packet must stay alive until then. */
    Job *submit(net::Packet &pkt);

    /** Wait for @p job over @p pkt, fold its summary and recycle it. */
    void join(Job *job, const net::Packet &pkt);

    /**
     * Wait until every submitted job has run, without folding or
     * recycling: for owners about to free packets whose jobs they
     * will never join (events still pending at teardown).
     */
    void drain();

    /** The function whose kernel the workers run. */
    const funcs::KernelFunction &function() const { return fn_; }

    unsigned workers() const { return workers_; }

  private:
    /** Ring entries; far more than a server keeps in flight. */
    static constexpr std::size_t kRing = 1024;

    /** Build the workspaces and start the threads. */
    void start();
    void workerLoop(funcs::KernelWorkspace *ws);
    /** Take the next ring entry and claim its job; null when the
     *  ring is empty (a stale entry is skipped). */
    Job *pop();
    /** Move @p job from queued to running; false when taken. */
    static bool claim(Job &job);
    void run(Job &job, funcs::KernelWorkspace *ws);
    /** Run queued jobs until a worker finishes @p job; spin once
     *  the ring is empty. */
    void helpUntilDone(const Job &job);
    /** Spin until a claimed job's runner marks it done. */
    static void awaitDone(const Job &job);
    /** Block until the ring has entries or the pool stops; false
     *  when stopping. */
    bool sleep();

    funcs::KernelFunction &fn_;
    unsigned workers_;
    std::vector<std::unique_ptr<funcs::KernelWorkspace>> workspaces_;

    // Job storage: only the simulation thread allocates and recycles.
    std::vector<std::unique_ptr<Job>> jobs_;
    std::vector<Job *> free_;

    // The ring: entries [head_, tail_) are unconsumed.
    std::unique_ptr<std::atomic<Job *>[]> ring_;
    alignas(64) std::atomic<std::uint64_t> tail_{0};   //!< producer only
    alignas(64) std::atomic<std::uint64_t> head_{0};   //!< consumers' CAS

    // Parking for idle workers.
    alignas(64) std::atomic<unsigned> sleepers_{0};
    std::mutex mu_;
    std::condition_variable wake_;
    /** Set under mu_; spinning workers also poll it. */
    std::atomic<bool> stop_{false};

    std::vector<std::thread> threads_;
};

} // namespace halsim::proc

#endif // HALSIM_PROC_PAYLOAD_POOL_HH

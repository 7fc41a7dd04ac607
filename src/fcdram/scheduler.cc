#include "fcdram/scheduler.hh"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "obs/telemetry.hh"

namespace fcdram {

namespace {

/**
 * Set while the current thread is a pool worker (of any Scheduler).
 * A task that itself calls Scheduler::run must not block on the pool
 * it is running on, so nested calls execute inline.
 */
thread_local bool tls_pool_worker = false;

/**
 * Shared task invocation wrapper: the pool drain loop and the inline
 * fallback both go through here so metrics and spans are identical
 * regardless of worker count.
 */
void
invokeTask(const std::function<void(std::size_t)> &task,
           std::size_t index)
{
    obs::Telemetry &tel = obs::global();
    if (tel.metricsOn())
        tel.add(tel.counter("scheduler.tasks"));
    if (tel.spansOn()) {
        obs::Span span(tel, "sched.task");
        span.arg("index", static_cast<std::uint64_t>(index));
        task(index);
        return;
    }
    task(index);
}

} // namespace

/**
 * One run() invocation. Heap-allocated and handed to workers as a
 * shared_ptr so that a worker still draining an old job can never
 * claim indices of (or otherwise touch) a newer job's state.
 */
struct Scheduler::Job
{
    std::size_t numTasks = 0;
    const std::function<void(std::size_t)> *task = nullptr;

    /** Next unclaimed task index (may overshoot numTasks). */
    std::atomic<std::size_t> next{0};

    /** Tasks finished so far; the job is done at numTasks. */
    std::atomic<std::size_t> completed{0};

    /**
     * Exception of the lowest-indexed failing task, which is the one
     * the inline path stops at, so the rethrown error does not depend
     * on the worker count or on which task failed first in time.
     */
    std::exception_ptr error;
    std::size_t errorIndex = 0;
    std::mutex errorMutex;
};

struct Scheduler::Pool
{
    std::mutex mutex;
    std::condition_variable workCv; ///< Workers wait for a new job.
    std::condition_variable doneCv; ///< run() waits for completion.
    std::shared_ptr<Job> job;       ///< Current job; null when idle.
    bool stop = false;
    std::vector<std::thread> threads;

    /** Serializes run() submissions (losers run inline). */
    std::mutex runMutex;

    /** Claim-and-execute loop shared by workers and the caller. */
    void drain(Job &active)
    {
        for (;;) {
            const std::size_t index =
                active.next.fetch_add(1, std::memory_order_relaxed);
            if (index >= active.numTasks)
                return;
            try {
                invokeTask(*active.task, index);
            } catch (...) {
                std::lock_guard<std::mutex> lock(active.errorMutex);
                if (!active.error || index < active.errorIndex) {
                    active.error = std::current_exception();
                    active.errorIndex = index;
                }
            }
            const std::size_t done =
                active.completed.fetch_add(1,
                                           std::memory_order_acq_rel) +
                1;
            if (done == active.numTasks) {
                // Lock-step with the waiter's predicate check so the
                // final notification cannot be lost.
                { std::lock_guard<std::mutex> lock(mutex); }
                doneCv.notify_all();
            }
        }
    }

    void workerLoop()
    {
        tls_pool_worker = true;
        std::shared_ptr<Job> last;
        for (;;) {
            std::shared_ptr<Job> current;
            {
                std::unique_lock<std::mutex> lock(mutex);
                workCv.wait(lock, [&] {
                    return stop || (job != nullptr && job != last);
                });
                if (stop)
                    return;
                current = job;
            }
            last = current;
            drain(*current);
        }
    }
};

int
Scheduler::hardwareWorkers()
{
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : static_cast<int>(hardware);
}

Scheduler::Scheduler(int workers) : workers_(workers)
{
    if (workers_ <= 0)
        workers_ = hardwareWorkers();
    if (workers_ > 1) {
        pool_ = std::make_unique<Pool>();
        // The calling thread drains jobs too, so workers_ - 1 pool
        // threads give workers_ concurrent lanes.
        pool_->threads.reserve(static_cast<std::size_t>(workers_ - 1));
        for (int t = 0; t < workers_ - 1; ++t)
            pool_->threads.emplace_back(
                [pool = pool_.get()] { pool->workerLoop(); });
    }
}

Scheduler::~Scheduler()
{
    if (!pool_)
        return;
    {
        std::lock_guard<std::mutex> lock(pool_->mutex);
        pool_->stop = true;
    }
    pool_->workCv.notify_all();
    for (std::thread &thread : pool_->threads)
        thread.join();
}

void
Scheduler::run(std::size_t numTasks,
               const std::function<void(std::size_t)> &task) const
{
    if (numTasks == 0)
        return;
    const auto run_inline = [&] {
        for (std::size_t i = 0; i < numTasks; ++i)
            invokeTask(task, i);
    };
    if (pool_ == nullptr || numTasks == 1 || tls_pool_worker) {
        run_inline();
        return;
    }
    std::unique_lock<std::mutex> submission(pool_->runMutex,
                                            std::try_to_lock);
    if (!submission.owns_lock()) {
        // Another thread is already driving the pool: overlapped
        // run() calls stay correct by executing inline.
        run_inline();
        return;
    }

    auto job = std::make_shared<Job>();
    job->numTasks = numTasks;
    job->task = &task;
    {
        std::lock_guard<std::mutex> lock(pool_->mutex);
        pool_->job = job;
    }
    pool_->workCv.notify_all();

    pool_->drain(*job);
    {
        std::unique_lock<std::mutex> lock(pool_->mutex);
        pool_->doneCv.wait(lock, [&] {
            return job->completed.load(std::memory_order_acquire) ==
                   numTasks;
        });
        pool_->job.reset();
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

std::uint64_t
Scheduler::taskSeed(std::uint64_t base, std::uint64_t index)
{
    return hashCombine(base, index);
}

} // namespace fcdram

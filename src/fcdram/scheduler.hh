/**
 * @file
 * Deterministic fan-out scheduler for fleet experiments.
 *
 * Experiments are decomposed into independent, index-addressed tasks;
 * the scheduler runs them on a persistent pool of worker threads
 * (created once per Scheduler, shut down in the destructor), so the
 * thousands of small mapReduce calls a figure sweep makes pay no
 * thread spawn/join churn. Determinism is the contract: tasks may
 * execute in any order and on any worker, so every task must derive
 * its randomness from an explicit per-task seed (Scheduler::taskSeed)
 * and write only task-private state. Callers merge per-task results
 * by task index, which makes single- and multi-threaded runs
 * bit-identical.
 */

#ifndef FCDRAM_FCDRAM_SCHEDULER_HH
#define FCDRAM_FCDRAM_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace fcdram {

/** Runs independent, index-addressed tasks across worker threads. */
class Scheduler
{
  public:
    /**
     * @param workers Worker-thread count; <= 0 selects the hardware
     *        concurrency (at least one). With more than one worker
     *        the pool threads start here and live until destruction.
     */
    explicit Scheduler(int workers = 0);

    /** Stops and joins the worker pool. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Resolved worker count. */
    int workers() const { return workers_; }

    /**
     * The hardware concurrency a default-constructed scheduler
     * resolves to (at least one). Shared by the serving tier to size
     * its default shard-thread count consistently with the pool.
     */
    static int hardwareWorkers();

    /**
     * Execute task(0) .. task(numTasks - 1) and block until all have
     * finished. Runs inline when one worker suffices (workers() == 1,
     * a single task, a nested call from a pool worker, or a
     * concurrent run() already draining the pool); otherwise the
     * calling thread drains tasks alongside the pool workers. Tasks
     * must be independent. If any task throws, the exception of the
     * lowest-indexed failing task is rethrown after the job drains,
     * whatever the worker count.
     */
    void run(std::size_t numTasks,
             const std::function<void(std::size_t)> &task) const;

    /**
     * Seed of task @p index under base seed @p base. Stable in the
     * worker count and the execution order by construction.
     */
    static std::uint64_t taskSeed(std::uint64_t base,
                                  std::uint64_t index);

  private:
    struct Job;
    struct Pool;

    int workers_;

    /** Persistent worker pool; null when workers_ == 1. */
    std::unique_ptr<Pool> pool_;
};

} // namespace fcdram

#endif // FCDRAM_FCDRAM_SCHEDULER_HH

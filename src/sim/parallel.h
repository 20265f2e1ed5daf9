// Thread-parallel replication and the shared worker pool.
//
// Because every replicate draws its randomness from its own derived stream
// (SeedSequence), results are IDENTICAL whether replicates run serially or
// across threads, in any interleaving — so parallelism is a pure wall-clock
// optimization with no reproducibility cost (tested). The sharded agent
// engine (engine/sharded.h) pushes the same guarantee down into a single
// run, and shares the pool below so per-round dispatch does not pay thread
// creation.
#ifndef BITSPREAD_SIM_PARALLEL_H_
#define BITSPREAD_SIM_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/experiment.h"
#include "telemetry/telemetry.h"

namespace bitspread {

// Pool utilization counters. Totals accumulate since process start or the
// last reset_telemetry(); read them between run() calls — the pool's join
// gives the happens-before that makes the numbers exact.
struct WorkerPoolTelemetry {
  std::uint64_t generations = 0;  // Dispatched fan-outs (inline runs excluded).
  std::uint64_t items = 0;        // Work items executed by pool workers.
  std::uint64_t dispatch_ns = 0;  // run() wall time, dispatch through join.
  std::uint64_t wake_ns = 0;      // Sum of per-worker dispatch->wake latency.

  struct Worker {
    std::uint64_t busy_ns = 0;      // Time inside the item loop.
    std::uint64_t items = 0;
    std::uint64_t generations = 0;  // Generations this worker participated in.
  };
  std::vector<Worker> workers;

  // Busy time across workers divided by the total worker-time the dispatched
  // generations paid for (0 when nothing was dispatched).
  double utilization() const noexcept;
};

// A persistent pool of worker threads with generation-based dispatch.
// Threads are created once (lazily, growing on demand up to kMaxWorkers)
// and parked between runs, so fine-grained work — e.g. one simulation round
// — can be fanned out every few microseconds without spawn/join cost.
//
// Scheduling never influences results anywhere in the library (work items
// own derived RNG streams), so the pool is a pure wall-clock device.
class WorkerPool {
 public:
  // Process-wide pool used by parallel_for and the sharded engine.
  static WorkerPool& shared();

  ~WorkerPool();

  // Runs fn(i) for i in [0, count), blocking until all items finish.
  // `threads` caps the number of participating workers (0 = hardware
  // concurrency); oversubscription beyond the hardware is honored up to
  // kMaxWorkers, which lets determinism tests exercise real interleaving
  // even on small machines. Calls from inside a pool worker run inline and
  // serially (no deadlock on nesting). fn must be safe to call concurrently
  // for distinct i.
  void run(int count, const std::function<void(int)>& fn,
           unsigned threads = 0);

  // Workers currently parked in the pool (grows on demand; for tests).
  unsigned worker_count() const;

  // Pool utilization since process start / the last reset. Call between
  // run() calls; inline-serial and nested executions are not counted (they
  // never touch pool threads).
  WorkerPoolTelemetry telemetry() const;
  void reset_telemetry();

  // Upper bound on pool size; requests beyond it are clamped.
  static constexpr unsigned kMaxWorkers = 64;

 private:
  WorkerPool() = default;

  void ensure_workers(unsigned target);
  void worker_main(unsigned slot, std::uint64_t spawn_generation);

  struct WorkerStats {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> generations{0};
  };
  // Fixed-capacity so recording never allocates or locks; slots beyond the
  // spawned workers stay zero.
  std::array<WorkerStats, kMaxWorkers> worker_stats_;
  std::atomic<std::uint64_t> generations_total_{0};
  std::atomic<std::uint64_t> items_total_{0};
  std::atomic<std::uint64_t> dispatch_ns_{0};
  std::atomic<std::uint64_t> wake_ns_{0};
  std::uint64_t gen_start_ns_ = 0;  // Guarded by mu_.

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::mutex run_mu_;  // Serializes concurrent run() callers.
  std::vector<std::thread> workers_;

  // Per-generation payload (guarded by mu_ except the atomic cursor).
  const std::function<void(int)>* fn_ = nullptr;
  std::atomic<int> next_{0};
  int count_ = 0;
  unsigned active_ = 0;   // Workers participating in this generation.
  unsigned pending_ = 0;  // Participants that have not finished yet.
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

// Runs fn(i) for i in [0, count) across up to max_threads threads
// (0 = hardware concurrency) on the shared pool. fn must be safe to call
// concurrently for distinct i.
void parallel_for(int count, const std::function<void(int)>& fn,
                  unsigned max_threads = 0);

// CPUs actually usable by this process: the scheduling-affinity mask when
// the OS exposes one (containers and cpusets shrink it), otherwise the
// online-CPU count, otherwise std::thread::hardware_concurrency(). Always
// >= 1. std::thread::hardware_concurrency() alone may return 0 ("unknown"),
// which bench reports used to record as a 1-core host — use this instead
// anywhere a human or the bench-history gate will read the number.
unsigned host_concurrency() noexcept;

// The worker count a WorkerPool::run(count, fn, threads) call would actually
// use after clamping (0 = host concurrency, capped by kMaxWorkers and by
// count). Lets bench rows report the thread count that really ran instead
// of the requested one.
unsigned planned_workers(int count, unsigned threads) noexcept;

// Drop-in parallel variant of measure_convergence: same inputs, identical
// output (per-replicate seed streams make the result schedule-independent).
ConvergenceMeasurement measure_convergence_parallel(
    const std::function<RunResult(Rng&)>& single_run,
    const SeedSequence& seeds, std::uint64_t cell, int replicates,
    unsigned max_threads = 0);

}  // namespace bitspread

#endif  // BITSPREAD_SIM_PARALLEL_H_

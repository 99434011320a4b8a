// Concurrent compile service: a fixed worker pool draining a bounded job
// queue, compiling IR/kernel programs against targets served by a shared
// single-flight TargetRegistry.
//
//                submit() / compile_batch()
//                          │ (bounded queue; submit blocks when full)
//                          ▼
//        ┌───────────── CompileService ─────────────┐
//        │  worker 0   worker 1   ...   worker N-1  │   one job =
//        │     │          │                 │       │   resolve target
//        │     └──────────┴───────┬─────────┘       │   -> parse kernel
//        │                        ▼                 │   -> Compiler::compile
//        │                 TargetRegistry           │
//        │        (LRU + single-flight retarget)    │
//        │                        │                 │
//        │                        ▼                 │
//        │            burstab::TargetCache          │
//        │            (persistent, optional)        │
//        └───────────────────────────────────────────┘
//
// Concurrency contract: each job runs with its own DiagnosticSink and its
// own Compiler/CodeSelector; all cross-job shared state (RetargetResult,
// BddManager, TargetTables) is immutable or internally synchronised — see
// core/record.h. TargetTables never change after construction: each job
// computes its table misses into its own overlay. Results are futures, so
// callers may pipeline submissions against collection.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "core/record.h"
#include "ir/program.h"
#include "obs/metrics.h"
#include "service/registry.h"
#include "util/timer.h"

namespace record::service {

/// One compile request. The target is named by `model` (built-in) or, when
/// `model` is empty, by raw HDL source in `hdl`. The program comes from
/// `program` (pre-built IR) or, when null, from kernel-language text in
/// `kernel`; with neither, the job is retarget-only and succeeds with an
/// empty listing (useful to pre-warm the registry or probe a model).
struct CompileJob {
  std::string tag;  // echoed in the result for client-side correlation
  std::string model;
  std::string hdl;
  std::string kernel;
  std::shared_ptr<const ir::Program> program;
  core::CompileOptions options;
  /// Per-request retargeting options; nullopt = the registry's defaults.
  std::optional<core::RetargetOptions> retarget;
  /// Materialise JobResult::listing. Off, the listing stays derivable from
  /// JobResult::compiled without paying the formatting cost per job.
  bool want_listing = true;
  /// After a successful compile, run the semantic oracle (sim/check.h):
  /// execute the emitted words on the RT-level simulator and compare the
  /// final machine state against the IR reference evaluator. Divergence
  /// (or a decoder rejection) fails the job.
  bool check_semantics = false;
  /// Wall-clock budget in milliseconds from submission, queue wait included;
  /// 0 = no deadline. An expired job returns a structured deadline_exceeded
  /// failure (with a retry_after_ms backoff hint) instead of occupying a
  /// worker: the check runs at dequeue and between pipeline phases.
  std::uint64_t deadline_ms = 0;
};

struct JobTimes {
  double queue_ms = 0;     // submission -> a worker picked the job up
  double target_ms = 0;    // registry resolution (0 when hot and uncontended)
  double frontend_ms = 0;  // kernel-language parsing
  double compile_ms = 0;   // selection + spills + compaction + encoding
};

/// Outcome of one job. Move-only (carries the CompileResult artifacts).
struct JobResult {
  bool ok = false;
  std::string tag;
  std::string processor;
  std::string error;        // first error when !ok
  std::string diagnostics;  // full diagnostic dump of the job's sink
  std::size_t code_size = 0;
  std::size_t rts = 0;
  std::string listing;
  /// Semantic-oracle outcome (CompileJob::check_semantics): whether state
  /// was actually compared, and why not when it was skipped.
  bool semantics_checked = false;
  std::string semantics_skipped;
  /// The job's deadline expired (in the queue or between pipeline phases);
  /// `error` then starts with "deadline_exceeded".
  bool deadline_exceeded = false;
  /// Backoff hint (milliseconds) on deadline expiry and shutdown/overload
  /// rejections; 0 = no hint. Clients that wait this long before retrying
  /// arrive when the current backlog has plausibly drained.
  std::uint64_t retry_after_ms = 0;
  JobTimes times;
  /// Keeps the target alive for consumers of `compiled` (whose selected RTs
  /// point into the target's template base) even after registry eviction.
  std::shared_ptr<const core::RetargetResult> target;
  std::optional<core::CompileResult> compiled;
};

/// Aggregate service counters plus a latency summary. The latency figures
/// are derived at stats() time from two per-service obs::Histogram instances
/// (nanosecond buckets, wait-free recording on the worker path), so
/// accumulation is TSan-clean by construction; `total_*` stay for
/// compatibility with older consumers (recordd --stats) and are the
/// histogram sums.
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;        // completed with !ok
  std::size_t peak_queue = 0;    // high-water mark of the request queue
  std::size_t semantics_checked = 0;   // jobs whose state comparison ran
  std::size_t semantics_failed = 0;    // ... and diverged / was rejected
  std::size_t deadline_exceeded = 0;   // jobs whose deadline expired
  double total_queue_ms = 0;     // = sum of the queue-wait histogram
  double total_compile_ms = 0;   // = sum of the compile-time histogram
  double mean_queue_ms = 0;
  double p50_queue_ms = 0;
  double p90_queue_ms = 0;
  double p99_queue_ms = 0;
  double mean_compile_ms = 0;
  double p50_compile_ms = 0;
  double p90_compile_ms = 0;
  double p99_compile_ms = 0;
};

class CompileService {
 public:
  struct Options {
    /// Worker threads; 0 = std::thread::hardware_concurrency (min 1).
    std::size_t workers = 0;
    /// Maximum queued (not yet running) jobs; submit() blocks beyond this.
    std::size_t queue_capacity = 256;
    TargetRegistry::Options registry;
  };

  CompileService() : CompileService(Options{}) {}
  explicit CompileService(Options options);
  ~CompileService();  // shutdown(): drains the queue, then joins workers

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Enqueues one job; blocks while the queue is at capacity. After
  /// shutdown() the returned future holds an immediate "service stopped"
  /// failure.
  [[nodiscard]] std::future<JobResult> submit(CompileJob job);

  /// Completion callback for try_submit_async; runs on the worker thread
  /// that finished the job, so it must be cheap and non-blocking (event-loop
  /// callers hand the result to their own wakeup mechanism).
  using Callback = std::function<void(JobResult)>;

  /// Non-blocking submit that delivers the result through `done` instead of
  /// a future: returns false — leaving `job` and `done` untouched — when the
  /// queue is at capacity, so an event loop can park the request and retry
  /// when a completion frees a slot. After shutdown() the callback fires
  /// inline with a "service stopped" failure. Backpressure rejections are
  /// counted under "service.queue_full"; when `retry_after_ms` is non-null a
  /// rejection fills it with the backoff hint (suggested_backoff_ms) the
  /// caller should forward to its client.
  [[nodiscard]] bool try_submit_async(CompileJob& job, Callback& done,
                                      std::uint64_t* retry_after_ms = nullptr);

  /// Submits all jobs and waits; results are in submission order.
  [[nodiscard]] std::vector<JobResult> compile_batch(
      std::vector<CompileJob> jobs);

  /// Stops accepting jobs, lets the workers drain what is queued, joins.
  /// Idempotent; also run by the destructor.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;

  /// Backoff hint for rejected/expired work: roughly how long the current
  /// backlog needs to drain (queue depth x mean compile time / workers),
  /// clamped to [1, 1000] ms. Deterministic given the queue state, so load
  /// shedding under saturation is reproducible.
  [[nodiscard]] std::uint64_t suggested_backoff_ms() const;

  [[nodiscard]] TargetRegistry& registry() { return registry_; }
  [[nodiscard]] std::size_t worker_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

  /// The synchronous job core every worker runs (target resolution, kernel
  /// parsing, compilation). Public so sequential baselines — tests, the
  /// throughput bench's 1-worker reference — share the exact code path.
  /// `times.queue_ms` is left zero. `scratch` (optional) is the caller's
  /// reusable selection scratch; pool workers pass their per-thread one.
  /// `deadline` (default-constructed = none) is the job's cancellation
  /// token: it is checked between pipeline phases and an expired job stops
  /// with a structured deadline_exceeded failure.
  [[nodiscard]] static JobResult run_job(
      const CompileJob& job, TargetRegistry& registry,
      select::SelectScratch* scratch = nullptr,
      std::chrono::steady_clock::time_point deadline = {});

 private:
  /// suggested_backoff_ms with the queue depth already sampled; lock-free
  /// (the histogram is atomic), so callers may hold mu_.
  [[nodiscard]] std::uint64_t backoff_ms(std::size_t queue_depth) const;

  struct Pending {
    CompileJob job;
    std::promise<JobResult> promise;  // used when callback is empty
    Callback callback;                // async path: invoked on the worker
    util::Timer enqueued;
    /// Absolute deadline from CompileJob::deadline_ms; epoch = none.
    std::chrono::steady_clock::time_point deadline{};

    /// Delivers the result through the callback, else the promise.
    void complete(JobResult result);
  };

  /// The one way into the queue. Waits for space when `block`; otherwise a
  /// full queue returns false with `pending` untouched (and `retry_after_ms`
  /// filled when non-null). After shutdown() `pending` completes at once
  /// with a "service stopped" failure, which counts as accepted.
  bool enqueue(Pending& pending, bool block, std::uint64_t* retry_after_ms);

  void worker_loop();

  Options options_;
  TargetRegistry registry_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  ServiceStats stats_;  // counter fields only; latency derives from below

  /// Per-service latency distributions (wait-free recording; see
  /// obs/metrics.h). Per-instance rather than process-global so concurrent
  /// services — tests, the oracle's throwaway pools — don't pollute each
  /// other's percentiles; the process-wide obs::metrics() registry gets the
  /// same recordings under "service.*" for daemon-level introspection.
  obs::Histogram queue_ns_;
  obs::Histogram compile_ns_;

  /// Resolved worker count (Options::workers with 0 expanded); workers_
  /// itself empties on shutdown, but the backoff math still needs it.
  std::size_t worker_n_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace record::service

// Minimal parallel-for over independent work items (snapshots are
// embarrassingly parallel: each builds its own graph and routes its own
// pairs). Used by TemporalSweep (core/temporal_sweep.hpp), which fans
// out every slot-parallel study; harmless with 1 thread.
#pragma once

#include <functional>

namespace leosim::core {

// Worker-count resolution, shared by both entry points below:
//   num_threads > 0  — exactly that many workers (clamped to `count`).
//   num_threads == 0 — the LEOSIM_THREADS environment variable when set
//                      (clamped to [1, 1024]; "0" or garbage falls back to
//                      hardware concurrency), else hardware concurrency.
// LEOSIM_THREADS lets CI/sanitizer jobs pin thread counts without
// touching call sites; it is re-read at the start of every run (from
// the launching thread, before workers spawn), so a process can vary it
// between runs — the sweep determinism tests rely on this.
//
// Exception semantics: the first exception captured from any worker is
// rethrown to the caller after all workers have joined. Capturing an
// exception also raises a shared stop flag, so iterations that have not
// yet been claimed by a worker are skipped rather than drained —
// callers must not assume every index ran when ParallelFor throws.
// Iterations already in flight on other workers still run to
// completion; at most one additional iteration per worker may start
// after the failure due to the relaxed flag check.

// Invokes body(0..count-1) across the resolved number of worker threads.
// The body must be thread-safe for distinct indices. `count <= 0` is a
// no-op.
void ParallelFor(int count, const std::function<void(int)>& body,
                 int num_threads = 0);

// The worker count ParallelFor would resolve for unbounded work with
// num_threads == 0 (i.e. LEOSIM_THREADS or hardware concurrency).
// Exposed so run manifests can record the effective parallelism.
int DefaultWorkerCount();

// As ParallelFor, additionally passing the worker's index (0..workers-1)
// so the body can keep per-worker scratch state (e.g. snapshot/Dijkstra
// workspaces) alive across the iterations that worker claims. Worker
// indices are dense; the worker count is capped at `count`.
void ParallelForWorkers(int count,
                        const std::function<void(int worker, int index)>& body,
                        int num_threads = 0);

}  // namespace leosim::core

//! The refinement loop's sweeps, executed by one or more workers in
//! lockstep with results bit-identical to serial.
//!
//! All workers process the graph together, one wavefront level (see
//! [`levels`](crate::refine::levels)) at a time. The serial sweep's
//! Gauss-Seidel semantics — a read of a lower-indexed mid-path IR sees this
//! sweep's value, a read of a higher-indexed one sees the pre-sweep value —
//! are reproduced exactly with a versioned view: current values for lower
//! indices (their level has already completed), a pre-sweep snapshot for
//! higher ones. Within one level no IR reads another's output, so commits
//! are immediate and order-free.
//!
//! One routine, `converge`, is the loop for every crew size; a crew of
//! one is the serial engine. Parallelism changes only who executes which
//! slice of a level, never what any slice computes. That is the whole
//! equivalence argument: results are identical for every thread count by
//! construction, and the determinism suite (`tests/determinism.rs`) checks
//! it end to end.
//!
//! Annotation values live in `AtomicU32` cells so workers can share them
//! without locks; all data accesses are `Relaxed` (disjoint by the level
//! discipline) with a spin barrier providing the ordering between levels.

use crate::graph::{IfIdx, IrGraph, IrId};
use crate::refine::engine::{StateHasher, CONVERGENCE_HASH_SEED};
use crate::refine::{interface, router};
use crate::{AnnotationState, Config};
use as_rel::{AsRelationships, CustomerCones, RelQueryCache};
use net_types::Asn;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Mid-path population below which the graph is not worth lockstep
/// scheduling and is instead converged by a single worker.
pub(crate) const LOCKSTEP_MIN_MID_PATH: usize = 16;

/// Shared annotation cells for one refinement run.
///
/// `prev` holds, for every IR, its annotation as of the start of the current
/// router sweep (non-mid-path IRs never change, so they are written once at
/// construction).
pub(crate) struct SweepCells {
    pub router: Vec<AtomicU32>,
    pub prev: Vec<AtomicU32>,
    pub iface: Vec<AtomicU32>,
    pub frozen: Vec<bool>,
}

impl SweepCells {
    pub fn new(state: &AnnotationState) -> SweepCells {
        SweepCells {
            router: state.router.iter().map(|a| AtomicU32::new(a.0)).collect(),
            prev: state.router.iter().map(|a| AtomicU32::new(a.0)).collect(),
            iface: state.iface.iter().map(|a| AtomicU32::new(a.0)).collect(),
            frozen: state.frozen.clone(),
        }
    }

    /// Copies the final annotations back into the plain state vectors.
    pub fn write_back(&self, state: &mut AnnotationState) {
        for (dst, cell) in state.router.iter_mut().zip(&self.router) {
            *dst = Asn(cell.load(Ordering::Relaxed));
        }
        for (dst, cell) in state.iface.iter_mut().zip(&self.iface) {
            *dst = Asn(cell.load(Ordering::Relaxed));
        }
    }
}

/// Read-only context threaded through the annotation routines. Each worker
/// owns one, so the memoized relationship/cone cache is contention-free —
/// and so is the telemetry sheet, which the engine merges in worker order
/// after the pool joins (telemetry is write-only: nothing here reads it).
pub(crate) struct SweepCtx<'a> {
    pub graph: &'a IrGraph,
    pub cfg: &'a Config,
    pub cache: RelQueryCache<'a>,
    pub sheet: obs::MetricSheet,
    /// Per-worker event track (disabled by default; the engine installs a
    /// live one when the recorder traces). Write-only, like the sheet.
    pub tracer: obs::WorkerTracer,
}

impl<'a> SweepCtx<'a> {
    pub fn new(
        graph: &'a IrGraph,
        cfg: &'a Config,
        rels: &'a AsRelationships,
        cones: &'a CustomerCones,
    ) -> Self {
        SweepCtx {
            graph,
            cfg,
            cache: RelQueryCache::new(rels, cones),
            sheet: obs::MetricSheet::new(),
            tracer: obs::WorkerTracer::default(),
        }
    }

    /// Moves the accumulated cache hit/miss tallies into the sheet (called
    /// once per worker, after its last sweep). Execution-dependent class:
    /// each worker's cache sees a different slice of the work, so the split
    /// varies with the thread count.
    pub fn flush_cache_stats(&mut self) {
        let stats = self.cache.stats();
        self.sheet.add_exec(obs::names::EXEC_CACHE_HITS, stats.hits);
        self.sheet
            .add_exec(obs::names::EXEC_CACHE_MISSES, stats.misses);
    }
}

/// Versioned view of the annotation state as seen while annotating IR `me`
/// during a router sweep: lower-indexed IRs expose this sweep's value,
/// higher-indexed ones the pre-sweep snapshot — exactly what the serial
/// in-place sweep observes at `me`'s turn.
pub(crate) struct RouterView<'a> {
    cells: &'a SweepCells,
    me: u32,
}

impl<'a> RouterView<'a> {
    pub fn at(cells: &'a SweepCells, me: u32) -> Self {
        RouterView { cells, me }
    }

    /// A view of the fully committed state (used between sweeps, e.g. by
    /// the interface sweep, which runs after the router sweep completes).
    pub fn committed(cells: &'a SweepCells) -> Self {
        RouterView {
            cells,
            me: u32::MAX,
        }
    }

    /// The router annotation of `jr` as the serial sweep would see it.
    pub fn router(&self, jr: IrId) -> Asn {
        let cell = if jr.0 < self.me {
            &self.cells.router[jr.0 as usize]
        } else {
            &self.cells.prev[jr.0 as usize]
        };
        // detlint::allow(relaxed-atomic-output): cells are written only at barrier-separated level boundaries; within a level every read is a stable snapshot
        Asn(cell.load(Ordering::Relaxed))
    }

    /// The interface annotation of `j` (never written during a router
    /// sweep, so unversioned).
    pub fn iface(&self, j: IfIdx) -> Asn {
        // detlint::allow(relaxed-atomic-output): iface cells are never written during a router sweep, so the load is a stable snapshot
        Asn(self.cells.iface[j.0 as usize].load(Ordering::Relaxed))
    }
}

/// `worker`'s contiguous share of `0..len` when `workers` cooperate.
fn share(len: usize, worker: usize, workers: usize) -> Range<usize> {
    len * worker / workers..len * (worker + 1) / workers
}

/// `worker`'s contiguous slice of a level when `workers` cooperate.
fn chunk(items: &[u32], worker: usize, workers: usize) -> &[u32] {
    &items[share(items.len(), worker, workers)]
}

/// Stable hash of the global annotation state: every IR's router
/// annotation, then every interface annotation, in ascending index order.
pub(crate) fn state_hash(cells: &SweepCells) -> u64 {
    let mut h = StateHasher::new(CONVERGENCE_HASH_SEED);
    for cell in &cells.router {
        // detlint::allow(relaxed-atomic-output): hashed after the sweep's final barrier, when cells are quiescent; determinism suite pins the trace
        h.write_u32(cell.load(Ordering::Relaxed));
    }
    for cell in &cells.iface {
        h.write_u32(cell.load(Ordering::Relaxed));
    }
    h.finish()
}

/// What one convergence run produced: the iteration count and the full
/// convergence hash trace (pre-sweep state hash, then one hash per
/// iteration). The trace is part of the determinism contract: serial and
/// parallel execution must produce identical traces, not merely identical
/// fixpoints, so an ordering bug that happens to converge to the right
/// answer still shows up.
#[derive(Debug)]
pub(crate) struct Convergence {
    /// Iterations executed before the first repeated state (or the cap).
    pub iterations: usize,
    /// `[h_0, h_1, ..., h_n]`: state hash before refinement and after each
    /// iteration.
    pub trace: Vec<u64>,
}

/// Runs the graph to convergence (§6.3): sweep routers level by level,
/// sweep interfaces, and stop at the first repeated global state, with
/// `max_iterations` as the backstop.
///
/// This single routine *is* the refinement algorithm for every crew size.
/// Called with `workers == 1` it is the serial engine; called by `workers`
/// threads in lockstep (same barrier, each with a distinct `worker` index)
/// the per-level chunks partition each wavefront and every participant
/// returns the same [`Convergence`]. All workers hash the whole state
/// redundantly, so their stop decisions agree without communicating.
pub(crate) fn converge(
    levels: &[Vec<u32>],
    cells: &SweepCells,
    ctx: &mut SweepCtx<'_>,
    max_iterations: usize,
    worker: usize,
    workers: usize,
    barrier: &SpinBarrier,
) -> Convergence {
    let mut trace = vec![state_hash(cells)];
    let mut iterations = 0;
    for i in 0..max_iterations {
        ctx.tracer.begin(obs::names::EV_REFINE_WAVE, i as u64);
        // Snapshot the mid-path annotations (only those can change) so
        // higher-index reads see pre-sweep values.
        for level in levels {
            for &ir in chunk(level, worker, workers) {
                cells.prev[ir as usize].store(
                    // detlint::allow(relaxed-atomic-output): barrier-delimited snapshot copy; each cell has exactly one writer per level, pinned by the determinism suite
                    cells.router[ir as usize].load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
            }
        }
        barrier.wait();
        // Router sweep (§6.1), one wavefront level at a time.
        for level in levels {
            for &iri in chunk(level, worker, workers) {
                if cells.frozen[iri as usize] {
                    continue;
                }
                let ir = &ctx.graph.irs[iri as usize];
                let view = RouterView::at(cells, iri);
                let a = router::annotate_ir(ir, &view, ctx);
                if a.is_some() {
                    // Each IR is written by exactly one worker (its chunk
                    // owner), so counting changed values per worker sums to
                    // the serial total for every thread count.
                    if cells.router[iri as usize].load(Ordering::Relaxed) != a.0 {
                        ctx.sheet.inc(obs::names::REFINE_VOTES_CHANGED);
                    }
                    cells.router[iri as usize].store(a.0, Ordering::Relaxed);
                }
            }
            barrier.wait();
        }
        // Interface sweep (§6.2): reads only committed router annotations,
        // writes only its own cell, so one barrier at the end suffices.
        for j in share(cells.iface.len(), worker, workers) {
            if let Some(a) = interface::annotate_iface_one(j, cells, ctx) {
                cells.iface[j].store(a.0, Ordering::Relaxed);
            }
        }
        barrier.wait();
        let h = state_hash(cells);
        iterations = i + 1;
        // At most `max_iterations` hashes: a linear scan is cheaper than a
        // set and has no iteration order to reason about.
        let repeated = trace.contains(&h);
        trace.push(h);
        // Everyone must finish reading the state for the hash before the
        // next iteration starts overwriting it.
        barrier.wait();
        ctx.tracer.end(obs::names::EV_REFINE_WAVE);
        if repeated {
            break;
        }
    }
    Convergence { iterations, trace }
}

/// A sense-reversing spin barrier.
///
/// Refinement synchronizes once per wavefront level — far too often for an
/// OS-futex barrier — so waiters spin briefly and then yield (degrading
/// gracefully when threads exceed cores).
pub(crate) struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    pub fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    pub fn wait(&self) {
        if self.total == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
            self.count.store(0, Ordering::SeqCst);
            self.generation
                .store(generation.wrapping_add(1), Ordering::SeqCst);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::SeqCst) == generation {
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition() {
        let items: Vec<u32> = (0..13).collect();
        for workers in 1..=5 {
            let mut rebuilt = Vec::new();
            for w in 0..workers {
                rebuilt.extend_from_slice(chunk(&items, w, workers));
            }
            assert_eq!(rebuilt, items, "workers={workers}");
        }
        assert!(chunk(&[], 0, 3).is_empty());
    }

    #[test]
    fn spin_barrier_synchronizes() {
        let threads = 4;
        let barrier = SpinBarrier::new(threads);
        let counter = AtomicUsize::new(0);
        // The same broadcast primitive the engine uses: one concurrent,
        // unstealable crew slot per barrier participant.
        pool::WorkerPool::new(threads).broadcast("pool.busy_us.test", threads, |_| {
            for round in 1..=50usize {
                counter.fetch_add(1, Ordering::SeqCst);
                barrier.wait();
                // Between barriers every thread observes the full round's
                // increments.
                assert_eq!(counter.load(Ordering::SeqCst), round * threads);
                barrier.wait();
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 50 * threads);
    }

    #[test]
    fn single_thread_barrier_is_noop() {
        let barrier = SpinBarrier::new(1);
        barrier.wait();
        barrier.wait();
    }
}

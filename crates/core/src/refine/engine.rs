//! The refinement loop (§6.3): iterate router and interface annotation
//! until the annotation state repeats.
//!
//! The paper stops at a *repeated* state rather than an unchanged one —
//! annotation dynamics can enter short cycles (Fig. 14 shows a two-step
//! correction) — so every post-iteration state is hashed and the loop exits
//! on the first recurrence of the global state, with a configurable
//! iteration cap as a backstop.
//!
//! The sweeps run on a crew broadcast from the worker pool, one wavefront
//! level at a time ([`parallel`]); every crew size
//! executes the identical routine and produces bit-identical annotations.

use crate::graph::IrGraph;
use crate::refine::levels::wavefront_levels;
use crate::refine::parallel::{self, SpinBarrier, SweepCells, SweepCtx, LOCKSTEP_MIN_MID_PATH};
use crate::{AnnotationState, Config};
use as_rel::{AsRelationships, CustomerCones};

/// Seed of the convergence hash. Fixed (rather than `DefaultHasher`'s
/// per-process randomness) so convergence traces are reproducible across
/// runs, toolchains, and platforms — CI logs the per-iteration hashes and
/// two runs of the same corpus must show the same trace.
pub const CONVERGENCE_HASH_SEED: u64 = 0xbd12_a917_2018_0603;

/// FNV-1a with an explicit seed: small, allocation-free, and — unlike
/// `std::collections::hash_map::DefaultHasher` — specified, so hashes never
/// change under a different standard library.
#[derive(Clone, Copy, Debug)]
pub struct StateHasher(u64);

impl StateHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a hash folding `seed` into the FNV offset basis.
    pub fn new(seed: u64) -> StateHasher {
        let mut h = StateHasher(Self::OFFSET);
        h.write_u64(seed);
        h
    }

    /// Absorbs one little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs one little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Runs phase 3 to completion on `wp`, reporting convergence telemetry
/// through the pool's recorder. The worker budget comes from the pool
/// ([`Config::threads`] only feeds a pool's construction), then shrinks to
/// what the wavefront levels can occupy. Telemetry is write-only: every
/// annotation, iteration count, and convergence trace is bit-identical for
/// every pool size and whether the recorder is enabled, disabled, or shared
/// with other phases — the determinism suite checks this at thread counts
/// 1/2/8.
pub fn refine(
    graph: &IrGraph,
    rels: &AsRelationships,
    cones: &CustomerCones,
    cfg: &Config,
    state: &mut AnnotationState,
    wp: &pool::WorkerPool,
) {
    use obs::names;

    let rec = wp.recorder();
    let levels = wavefront_levels(&graph.irs, &graph.iface_ir);
    let cells = SweepCells::new(state);
    let crew = crew_size(wp.workers(), &levels);
    let barrier = SpinBarrier::new(crew);
    let tracer = rec.tracer();
    // One unstealable crew slot per lockstep participant; a crew of one
    // runs inline on the calling thread.
    let runs = wp.broadcast(names::EXEC_POOL_BUSY_REFINE, crew, |w| {
        let mut ctx = SweepCtx::new(graph, cfg, rels, cones);
        ctx.tracer = tracer.worker(names::TRACK_REFINE_WORKER, w);
        let run = parallel::converge(
            &levels,
            &cells,
            &mut ctx,
            cfg.max_iterations,
            w,
            crew,
            &barrier,
        );
        ctx.flush_cache_stats();
        (run, ctx.sheet, ctx.tracer)
    });
    // Merge telemetry and event tracks in crew order, so the combined sheet
    // and the trace document are identical run to run. Every participant
    // computed the identical convergence run; keep the first.
    let mut sheet = obs::MetricSheet::new();
    let mut converged = None;
    for (run, worker_sheet, worker_tracer) in runs {
        sheet.merge(&worker_sheet);
        tracer.submit(worker_tracer);
        converged.get_or_insert(run);
    }
    let converged = converged.expect("the crew has at least one worker");
    cells.write_back(state);
    state.iterations = converged.iterations;
    state.convergence_trace = converged.trace;

    sheet.inc(names::REFINE_RUNS);
    sheet.add(names::REFINE_ITERATIONS, state.iterations as u64);
    sheet.add(
        names::REFINE_ROUTERS_ANNOTATED,
        state
            .router
            .iter()
            .filter(|a| **a != net_types::Asn::NONE)
            .count() as u64,
    );
    sheet.add_exec(names::EXEC_REFINE_WORKERS, crew as u64);
    rec.absorb(&sheet);
}

/// Resolves the pool's worker budget against the wavefront levels: a graph
/// too small to be worth a barrier per level runs on one worker, and more
/// workers than the widest level would only ever wait at barriers.
fn crew_size(workers: usize, levels: &[Vec<u32>]) -> usize {
    let mid_path: usize = levels.iter().map(Vec::len).sum();
    if mid_path < LOCKSTEP_MIN_MID_PATH {
        return 1;
    }
    let widest = levels.iter().map(Vec::len).max().unwrap_or(1);
    workers.clamp(1, widest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_stable_across_runs_and_platforms() {
        // CI runs this test with --nocapture to record the active seed in
        // the build log next to the golden hash it implies.
        println!("convergence hash seed: {CONVERGENCE_HASH_SEED:#018x}");
        // Golden value: any change to the hashing scheme shows up here
        // (and would invalidate recorded convergence traces).
        let mut h = StateHasher::new(CONVERGENCE_HASH_SEED);
        for v in [1u32, 2, 3, 0, u32::MAX] {
            h.write_u32(v);
        }
        assert_eq!(h.finish(), 0x05c2_d6bc_0506_dcbd);
        // Distinct inputs hash apart; same input hashes the same.
        let one = |vals: &[u32]| {
            let mut h = StateHasher::new(CONVERGENCE_HASH_SEED);
            vals.iter().for_each(|&v| h.write_u32(v));
            h.finish()
        };
        assert_eq!(one(&[7, 8]), one(&[7, 8]));
        assert_ne!(one(&[7, 8]), one(&[8, 7]));
        assert_ne!(one(&[0]), one(&[]));
    }

    #[test]
    fn seed_changes_the_hash() {
        let mut a = StateHasher::new(1);
        let mut b = StateHasher::new(2);
        a.write_u32(42);
        b.write_u32(42);
        assert_ne!(a.finish(), b.finish());
    }
}

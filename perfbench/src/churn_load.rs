//! The `default-churn` workload: one `churn::run_churn` per timed unit.
//!
//! `run_churn` generates its own topology from the workload seed, steps a
//! fixed event schedule over it and proves every epoch byte-identical to a
//! full recompute; an `Err` is a failed epoch. Set-up builds the same map
//! from scratch through the pipeline: its snapshot must equal the churn
//! run's baseline epoch, and it is what the ground-truth scores judge.
//!
//! Unlike the other workloads, the timed unit here holds topology
//! generation and the RIB, relationship and cone builds, because
//! `run_churn` — the public entry point — does them itself. The traced
//! run's `topo-gen.generate_ms`, `bgp.rib_ms` and `as-rel.infer_ms` still
//! describe set-up (what `setup_s` times); the same work inside the unit
//! shows as the `topo.generate` span and the baseline epoch in the churn
//! run's span tree, and is part of `op_ms`.

use crate::layers::{self, LayerMap, Traced};
use crate::pipeline;
use crate::stats::{median, Tally};
use crate::{default_scale, host, Args, Outcome, Stopwatch, THREADS};
use churn::{run_churn, ChurnOptions, ChurnRun};

/// Churn epochs after the baseline. Schedules add routers and re-announce
/// prefixes from `churn::GROWTH_EPOCH` on, so a run covers RIB-stable and
/// RIB-changing epochs.
const EPOCHS: usize = 6;

/// The schedule seed (`ChurnOptions::seed`: events, vantage points and
/// alias randomness). A RIB-changing epoch costs about twice a full
/// recompute, so letting the workload seed pick how many a run gets would
/// make the run's cost swing with the draw. The seed is fixed instead —
/// which event kinds fire in which epoch is part of the workload, like the
/// serve verb mix — and the workload seed varies the topology the events
/// land on.
const SCHEDULE_SEED: u64 = 2018;

/// One timed `run_churn` and its wall time in seconds.
fn unit(args: &Args, rec: &obs::Recorder, threads: usize) -> (Result<ChurnRun, String>, f64) {
    let (cfg, vps) = default_scale(args.seed);
    let opts = ChurnOptions::new(EPOCHS, vps, threads, SCHEDULE_SEED);
    let clock = Stopwatch::start();
    let run = {
        let _s = rec.span(layers::SPAN_UNIT);
        run_churn(cfg, &opts, rec)
    };
    (run, clock.secs())
}

/// FNV-1a over every epoch's snapshot bytes, in epoch order.
fn run_hash(run: &ChurnRun) -> u64 {
    let all: Vec<u8> = run
        .epochs
        .iter()
        .flat_map(|e| e.snapshot.iter().copied())
        .collect();
    snapshot::fnv1a64(&all)
}

/// Counts the run's epochs and its checks: every epoch present, the
/// baseline equal to the from-scratch map, and the output hash equal to
/// the first run's. Returns the run if it succeeded.
fn check_unit(
    run: Result<ChurnRun, String>,
    baseline: &[u8],
    first_hash: &mut Option<u64>,
    tally: &mut Tally,
) -> Option<ChurnRun> {
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: run_churn failed: {e}");
            tally.record(false);
            return None;
        }
    };
    for _ in &run.epochs {
        tally.record(true);
    }
    tally.check(run.epochs.len() == EPOCHS + 1, "churn epoch count");
    tally.check(
        run.epochs.first().is_some_and(|e| e.snapshot == baseline),
        "churn baseline epoch differs from the from-scratch pipeline",
    );
    let hash = run_hash(&run);
    let first = *first_hash.get_or_insert(hash);
    tally.check(hash == first, "churn output hash differs between runs");
    Some(run)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let disabled = obs::Recorder::disabled();
    let ((p, map), setup_s, setups) = pipeline::timed_setups(|| {
        pipeline::default_map(args.seed, SCHEDULE_SEED, false, &disabled)
    });
    let scores = p.score(&map, &mut out.tally);
    out.scale = p.scale(&map);
    let baseline = map.bytes.clone();
    drop((p, map));
    if args.trace {
        traced(args, &baseline, &mut out);
        return out;
    }
    pipeline::insert_scores(&mut out, scores);

    // The warm-up unit: checked, but not timed.
    let mut first_hash = None;
    let (run, wall_s) = unit(args, &disabled, THREADS);
    eprintln!("perfbench: warm-up unit took {wall_s:.3} s");
    check_unit(run, &baseline, &mut first_hash, &mut out.tally);
    if let Some(mb) = host::peak_rss_mb() {
        out.metrics.insert("peak_rss_mb", mb);
    }

    let mut walls = Vec::new();
    let mut epoch_ms = Vec::new();
    let clock = Stopwatch::start();
    while pipeline::more_units(&walls, clock.secs(), args.seconds) {
        let (run, wall_s) = unit(args, &disabled, THREADS);
        eprintln!("perfbench: unit {} took {wall_s:.3} s", walls.len());
        walls.push(wall_s);
        if let Some(run) = check_unit(run, &baseline, &mut first_hash, &mut out.tally) {
            epoch_ms.extend(run.epochs.iter().skip(1).map(|e| e.incremental.wall_ms));
            let rib_epochs = run.epochs.iter().filter(|e| e.rib_changed).count();
            out.extra.insert("rib_epochs".into(), rib_epochs as f64);
        }
    }
    out.metrics.insert("setup_s", setup_s);
    let churn_s = pipeline::insert_timings(&mut out, &walls);
    out.extra.insert("setup_samples".into(), setups as f64);
    out.extra.insert("churn_s".into(), churn_s);
    if let Some(ms) = median(&epoch_ms) {
        out.extra.insert("epoch_ms".into(), ms);
        out.extra
            .insert("epoch_samples".into(), epoch_ms.len() as f64);
    }
    out.extra.insert("epochs".into(), (EPOCHS + 1) as f64);
    out
}

/// The churn layer figures of one run. Epoch 0 is the cold baseline and is
/// left out; RIB-stable epochs are the incremental path's home ground,
/// RIB-changing ones force a full re-probe.
fn churn_layers(run: &ChurnRun) -> LayerMap {
    let epochs = run.epochs.get(1..).unwrap_or_default();
    let stable: Vec<_> = epochs.iter().filter(|e| !e.rib_changed).collect();
    let inc = |es: &[&churn::EpochOutcome]| {
        median(&es.iter().map(|e| e.incremental.wall_ms).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let sum = |f: &dyn Fn(&churn::EpochOutcome) -> f64| stable.iter().map(|e| f(e)).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let changed: Vec<_> = epochs.iter().filter(|e| e.rib_changed).collect();
    LayerMap::from([
        ("churn.epoch_ms", inc(&epochs.iter().collect::<Vec<_>>())),
        ("churn.incremental_ms", inc(&stable)),
        (
            "churn.full_ms",
            median(&stable.iter().map(|e| e.full.wall_ms).collect::<Vec<_>>()).unwrap_or(0.0),
        ),
        ("churn.rib_epoch_ms", inc(&changed)),
        (
            "churn.dirty_pair_share",
            ratio(
                sum(&|e| e.dirty_pairs as f64),
                sum(&|e| e.total_pairs as f64),
            ),
        ),
        (
            "churn.inc_over_full",
            ratio(sum(&|e| e.incremental.wall_ms), sum(&|e| e.full.wall_ms)),
        ),
    ])
}

fn traced(args: &Args, baseline: &[u8], out: &mut Outcome) {
    let (cfg, _) = default_scale(args.seed);
    let (setup_layers, setup_forest) = layers::setup_breakdown(&cfg, &mut out.tally);
    layers::print_tree("set-up layers", &setup_forest);

    let disabled = obs::Recorder::disabled();
    let mut first_hash = None;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut many: Vec<Traced> = Vec::new();
    let mut maps: Vec<LayerMap> = Vec::new();
    for (i, step) in pipeline::TRACE_PLAN.into_iter().enumerate() {
        let rec = step.map_or_else(|| disabled.clone(), |_| layers::traced_recorder());
        let threads = step.unwrap_or(THREADS);
        let (run, wall_s) = unit(args, &rec, threads);
        let run = check_unit(run, baseline, &mut first_hash, &mut out.tally);
        if i == 0 {
            if let Some(mb) = host::peak_rss_mb() {
                out.metrics
                    .insert("mem.bytes_per_hop", pipeline::bytes_per_hop(mb, out));
            }
            continue;
        }
        if step.is_none() {
            untraced_s.push(wall_s);
            continue;
        }
        let Some(run) = run else { continue };
        let traced = match Traced::collect(&rec) {
            Ok(t) => t,
            Err(e) => {
                out.tally.check(false, &format!("trace: {e}"));
                continue;
            }
        };
        traced.check_tree(&mut out.tally);
        if threads == 1 {
            out.metrics.extend(layers::speedups(&traced, &many));
            continue;
        }
        if many.is_empty() {
            layers::print_tree("one traced churn run", &traced.forest);
        }
        traced_s.push(wall_s);
        // Churn's delta campaigns count no hops, so per-hop figures stay 0.
        let mut map = traced.pipeline_layers(0, threads);
        map.extend(churn_layers(&run));
        maps.push(map);
        many.push(traced);
    }
    out.metrics.extend(layers::median_of(&maps));
    out.metrics.extend(setup_layers);
    if let (Some(t), Some(u)) = (median(&traced_s), median(&untraced_s)) {
        out.metrics.insert("trace.overhead_share", t / u - 1.0);
    }
    pipeline::zero_other_layers(&mut out.metrics);
}

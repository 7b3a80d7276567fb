//! The `itdk-pipeline` workload, and the pipeline unit and ground-truth
//! scoring the churn workload's set-up shares.

use crate::layers::{self, LayerMap, Traced};
use crate::serve_batch::{self, Batch};
use crate::stats::{median, percentile, quartiles, tail, Tally};
use crate::{
    host, itdk_scale, Args, Outcome, ScaleRecord, Stopwatch, SETUP_REPS, SETUP_SECONDS, THREADS,
};
use bdrmapit_core::{Annotated, Bdrmapit, Config};
use eval::experiments::heuristics::annotation_accuracy;
use eval::truth::{bdrmapit_pairs, true_pairs, visible_pairs_all, LinkScore};
use eval::{CorpusBundle, Scenario};
use snapshot::{Snapshot, SnapshotData};
use std::sync::Arc;
use topo_gen::GeneratorConfig;
use traceroute::Trace;

/// Timed units a run makes at least, however long they take: the median
/// of fewer is one sample.
const MIN_UNITS: usize = 3;

/// The units of a traced run: `None` is untraced, `Some(t)` traced on `t`
/// threads. The first, cold unit gives peak memory and the scores; traced
/// and untraced units then alternate so host drift hits both sides of
/// `trace.overhead_share` alike; the single-thread unit for the speedups
/// comes last.
pub const TRACE_PLAN: [Option<usize>; 6] =
    [None, Some(THREADS), None, Some(THREADS), None, Some(1)];

/// The lowest ground-truth score a correct map may have. Floors, not
/// goldens: output-changing work stays free to move the scores, but not
/// to wreck them.
const ROUTER_ACCURACY_FLOOR: f64 = 0.85;
const LINK_PRECISION_FLOOR: f64 = 0.9;
const LINK_RECALL_FLOOR: f64 = 0.9;

/// Router accuracy, link precision and link recall of `result` against
/// the generator's ground truth, each counted as a check against its floor.
pub fn score(s: &Scenario, traces: &[Trace], result: &Annotated, tally: &mut Tally) -> [f64; 3] {
    let accuracy = annotation_accuracy(s, result);
    let links = LinkScore::compute(
        &bdrmapit_pairs(result, None, true),
        &true_pairs(&s.net),
        &visible_pairs_all(&s.net, traces, true),
    );
    let scores = [accuracy, links.precision(), links.recall()];
    for ((what, floor), value) in [
        ("router accuracy", ROUTER_ACCURACY_FLOOR),
        ("link precision", LINK_PRECISION_FLOOR),
        ("link recall", LINK_RECALL_FLOOR),
    ]
    .into_iter()
    .zip(scores)
    {
        tally.check(value >= floor, &format!("{what} {value:.4} below {floor}"));
    }
    scores
}

/// Inserts the three ground-truth scores under their metric names.
pub fn insert_scores(out: &mut Outcome, scores: [f64; 3]) {
    for (name, value) in ["router_accuracy", "link_precision", "link_recall"]
        .into_iter()
        .zip(scores)
    {
        out.metrics.insert(name, value);
    }
}

/// Total hop slots across a corpus.
pub fn corpus_hops(traces: &[Trace]) -> u64 {
    traces.iter().map(|t| t.hops.len() as u64).sum()
}

/// Installs a fresh `threads`-sized pool reporting into `rec` on the
/// scenario, so the campaign and `Bdrmapit::run` share it.
pub fn install(s: &mut Scenario, rec: &obs::Recorder, threads: usize) -> Arc<pool::WorkerPool> {
    let wp = Arc::new(pool::WorkerPool::with_recorder(threads, rec.clone()));
    s.obs = rec.clone();
    s.threads = threads;
    s.pool = Some(Arc::clone(&wp));
    wp
}

/// One timed unit's products. The corpus comes back out so it is freed
/// after the clock stops, as a process that exits would never free it.
pub struct Unit {
    pub wall_s: f64,
    corpus: CorpusBundle,
    pub result: Annotated,
    pub data: SnapshotData,
    pub bytes: Vec<u8>,
    hash: u64,
    loaded: Option<Result<Arc<Snapshot>, snapshot::SnapshotError>>,
    serve: Option<Batch>,
}

/// A workload's scenario, ready for timed units. A unit runs the campaign,
/// `Bdrmapit::run` and the snapshot encode; a serving unit (`itdk-pipeline`)
/// then loads the snapshot and serves a fixed batch of queries from it.
pub struct Prepared {
    pub s: Scenario,
    scale: &'static str,
    vps: usize,
    vp_seed: u64,
    exclude_validation: bool,
    serving: bool,
}

impl Prepared {
    /// Builds the scenario of `cfg`, to be probed from `vps` vantage points
    /// drawn (with the alias randomness) from `vp_seed`.
    pub fn build(
        scale: &'static str,
        (cfg, vps): (GeneratorConfig, usize),
        vp_seed: u64,
        exclude_validation: bool,
        serving: bool,
    ) -> Prepared {
        let mut s = Scenario::build(cfg);
        install(&mut s, &obs::Recorder::disabled(), THREADS);
        Prepared {
            s,
            scale,
            vps,
            vp_seed,
            exclude_validation,
            serving,
        }
    }

    /// Runs one timed unit on `threads` pool threads, recording into `rec`.
    pub fn unit(&mut self, rec: &obs::Recorder, threads: usize) -> Unit {
        let wp = install(&mut self.s, rec, threads);
        let cfg = Config {
            threads,
            ..Config::default()
        };
        let clock = Stopwatch::start();
        let span = rec.span(layers::SPAN_UNIT);
        let corpus = {
            let _s = rec.span(layers::SPAN_CAMPAIGN);
            self.s
                .campaign(self.vps, self.exclude_validation, self.vp_seed)
        };
        let result = {
            let _s = rec.span(layers::SPAN_RUN);
            Bdrmapit::new(cfg).with_obs(rec.clone()).with_pool(wp).run(
                &corpus.traces,
                &corpus.aliases,
                &self.s.ip2as,
                &self.s.rels,
            )
        };
        let (data, bytes) = {
            let _s = rec.span(layers::SPAN_ENCODE);
            let data = SnapshotData::from_annotated(&result, &self.s.rib.origin_table());
            let bytes = snapshot::to_bytes(&data);
            (data, bytes)
        };
        let loaded = self.serving.then(|| {
            let _s = rec.span(layers::SPAN_LOAD);
            Snapshot::from_bytes(&bytes).map(Arc::new)
        });
        let serve = match &loaded {
            Some(Ok(snap)) => {
                let _s = rec.span(layers::SPAN_SERVE);
                Some(serve_batch::run(snap, self.vp_seed, rec))
            }
            _ => None,
        };
        drop(span);
        let wall_s = clock.secs();
        Unit {
            wall_s,
            corpus,
            result,
            data,
            hash: snapshot::fnv1a64(&bytes),
            bytes,
            loaded,
            serve,
        }
    }

    /// Counts the unit and its checks: the load succeeded (serving units),
    /// the bytes decode to the data they encode, every serve reply equals
    /// the direct query (serving units), and the output hash equals the
    /// run's first.
    fn check_unit(&self, unit: &Unit, first_hash: u64, tally: &mut Tally) {
        tally.record(!matches!(unit.loaded, Some(Err(_))));
        let round_trip = match &unit.loaded {
            Some(Ok(snap)) => snap.data() == &unit.data,
            Some(Err(_)) => false,
            None => matches!(snapshot::from_bytes(&unit.bytes), Ok(d) if d == unit.data),
        };
        tally.check(
            round_trip,
            "snapshot round trip: from_bytes(to_bytes(d)) != d",
        );
        tally.check(unit.hash == first_hash, "output hash differs between units");
        if let (Some(Ok(snap)), Some(batch)) = (&unit.loaded, &unit.serve) {
            batch.check(snap, tally);
        }
    }

    /// The unit's ground-truth scores, counted as checks.
    pub fn score(&self, unit: &Unit, tally: &mut Tally) -> [f64; 3] {
        score(&self.s, &unit.corpus.traces, &unit.result, tally)
    }

    pub fn scale(&self, unit: &Unit) -> ScaleRecord {
        let traces = &unit.corpus.traces;
        ScaleRecord {
            name: self.scale,
            routers: self.s.net.topology.routers.len() as u64,
            traces: traces.len() as u64,
            hops: corpus_hops(traces),
            irs: unit.result.graph.irs.len() as u64,
        }
    }
}

/// The `itdk-pipeline` set-up: the scenario.
fn prepare_itdk(args: &Args) -> Prepared {
    Prepared::build("itdk", itdk_scale(args.seed), args.seed, true, true)
}

/// A `default`-scale map built in set-up exactly as a pipeline unit
/// builds one; the churn workload starts from it.
pub fn default_map(
    seed: u64,
    vp_seed: u64,
    exclude_validation: bool,
    rec: &obs::Recorder,
) -> (Prepared, Unit) {
    let mut p = Prepared::build(
        "default",
        crate::default_scale(seed),
        vp_seed,
        exclude_validation,
        false,
    );
    let unit = p.unit(rec, THREADS);
    (p, unit)
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut p, setup_s, setups) = timed_setups(|| prepare_itdk(args));
    let disabled = obs::Recorder::disabled();

    // The warm-up unit: checked and scored, but not timed.
    let warm = p.unit(&disabled, THREADS);
    eprintln!("perfbench: warm-up unit took {:.3} s", warm.wall_s);
    let first_hash = warm.hash;
    p.check_unit(&warm, first_hash, &mut out.tally);
    // Set-up plus one unit: later units only re-use freed memory.
    if let Some(mb) = host::peak_rss_mb() {
        out.metrics.insert("peak_rss_mb", mb);
    }
    let scores = p.score(&warm, &mut out.tally);
    insert_scores(&mut out, scores);
    out.scale = p.scale(&warm);
    drop(warm);

    let mut walls = Vec::new();
    let mut batches = Vec::new();
    let clock = Stopwatch::start();
    while more_units(&walls, clock.secs(), args.seconds) {
        let mut unit = p.unit(&disabled, THREADS);
        eprintln!("perfbench: unit {} took {:.3} s", walls.len(), unit.wall_s);
        walls.push(unit.wall_s);
        p.check_unit(&unit, first_hash, &mut out.tally);
        batches.extend(unit.serve.take());
    }
    out.metrics.insert("setup_s", setup_s);
    let op_s = insert_timings(&mut out, &walls);
    out.extra.insert("setup_samples".into(), setups as f64);
    out.extra.insert("pipeline_s".into(), op_s);
    insert_serve_figures(&mut out, &batches);
    out
}

/// Records the serve figures of the units' batches: the median over units
/// of each batch's throughput, p50 and p99, and the tail percentile of all
/// samples pooled.
fn insert_serve_figures(out: &mut Outcome, batches: &[Batch]) {
    let per_batch = |f: &dyn Fn(&Batch) -> Option<f64>| {
        median(&batches.iter().filter_map(f).collect::<Vec<_>>())
    };
    let figures = [
        ("serve_rps", per_batch(&|b| Some(b.rps()))),
        ("serve_p50_us", per_batch(&|b| median(&b.us(None)))),
        (
            "serve_p99_us",
            per_batch(&|b| percentile(&b.us(None), 99.0)),
        ),
    ];
    for (name, value) in figures {
        if let Some(v) = value {
            out.extra.insert(name.into(), v);
        }
    }
    let all: Vec<f64> = batches.iter().flat_map(|b| b.us(None)).collect();
    if all.is_empty() {
        return;
    }
    out.extra.insert("serve_samples".into(), all.len() as f64);
    if let Some((p, v)) = tail(&all) {
        out.extra.insert("serve_tail_percentile".into(), p);
        out.extra.insert("serve_tail_us".into(), v);
    }
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (cfg, _) = itdk_scale(args.seed);
    let (setup_layers, setup_forest) = layers::setup_breakdown(&cfg, &mut out.tally);
    layers::print_tree("set-up layers", &setup_forest);
    let mut p = prepare_itdk(args);

    let disabled = obs::Recorder::disabled();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first_hash = None;
    let mut peak_mb = None;
    let mut runs: Vec<Traced> = Vec::new();
    let mut maps: Vec<LayerMap> = Vec::new();
    let mut single: Option<Traced> = None;
    for (i, step) in TRACE_PLAN.into_iter().enumerate() {
        let rec = step.map_or_else(|| disabled.clone(), |_| layers::traced_recorder());
        let threads = step.unwrap_or(THREADS);
        let unit = p.unit(&rec, threads);
        let first = *first_hash.get_or_insert(unit.hash);
        p.check_unit(&unit, first, &mut out.tally);
        if i == 0 {
            peak_mb = host::peak_rss_mb();
            p.score(&unit, &mut out.tally);
            out.scale = p.scale(&unit);
            continue;
        }
        if step.is_none() {
            untraced_walls.push(unit.wall_s);
            continue;
        }
        let traced = match Traced::collect(&rec) {
            Ok(t) => t,
            Err(e) => {
                out.tally.check(false, &format!("trace: {e}"));
                continue;
            }
        };
        traced.check_tree(&mut out.tally);
        if threads == 1 {
            single = Some(traced);
            continue;
        }
        traced_walls.push(unit.wall_s);
        let mut layers = traced.pipeline_layers(corpus_hops(&unit.corpus.traces), threads);
        layers.insert("snapshot.bytes", unit.bytes.len() as f64);
        if let Some(batch) = &unit.serve {
            layers.extend(batch.layers());
        }
        maps.push(layers);
        runs.push(traced);
    }
    if let Some(t) = runs.first() {
        layers::print_tree("one traced unit", &t.forest);
    }

    out.metrics = layers::median_of(&maps);
    out.metrics.extend(setup_layers);
    if let Some(one) = &single {
        out.metrics.extend(layers::speedups(one, &runs));
    }
    if let Some(mb) = peak_mb {
        out.metrics
            .insert("mem.bytes_per_hop", bytes_per_hop(mb, &out));
    }
    if let (Some(t), Some(u)) = (median(&traced_walls), median(&untraced_walls)) {
        out.metrics.insert("trace.overhead_share", t / u - 1.0);
    }
    zero_other_layers(&mut out.metrics);
    out
}

/// Whether a run should start another timed unit: always until
/// [`MIN_UNITS`], then while the run would end nearer to `seconds` with
/// one more unit of the median length than without it.
pub fn more_units(walls: &[f64], elapsed: f64, seconds: f64) -> bool {
    let typical = median(walls).unwrap_or(0.0);
    walls.len() < MIN_UNITS || elapsed + typical / 2.0 < seconds
}

/// Peak memory in bytes per hop of the run's corpus.
pub fn bytes_per_hop(peak_mb: f64, out: &Outcome) -> f64 {
    peak_mb * 1024.0 * 1024.0 / out.scale.hops.max(1) as f64
}

/// Inserts `op_ms` (median unit wall time) and records the units' count
/// and quartiles. Returns the median in seconds.
pub fn insert_timings(out: &mut Outcome, walls_s: &[f64]) -> f64 {
    let op_s = median(walls_s).expect("units ran");
    out.metrics.insert("op_ms", op_s * 1e3);
    out.extra.insert("op_samples".into(), walls_s.len() as f64);
    if let Some((q1, q3)) = quartiles(walls_s) {
        out.extra.insert("op_q1_ms".into(), q1 * 1e3);
        out.extra.insert("op_q3_ms".into(), q3 * 1e3);
    }
    op_s
}

/// Fills every per-layer metric this workload does not exercise with 0.
pub fn zero_other_layers(metrics: &mut std::collections::BTreeMap<&'static str, f64>) {
    for &(name, _) in crate::PER_LAYER {
        metrics.entry(name).or_insert(0.0);
    }
}

/// Runs `build` at least [`SETUP_REPS`] times and until
/// [`SETUP_SECONDS`] have passed, freeing each result before the next
/// starts so peak memory holds one; returns the last result, the median
/// set-up time in seconds and the number of set-ups.
pub fn timed_setups<T>(mut build: impl FnMut() -> T) -> (T, f64, usize) {
    let mut walls = Vec::new();
    let mut kept: Option<T> = None;
    let total = Stopwatch::start();
    while walls.len() < SETUP_REPS || total.secs() < SETUP_SECONDS {
        drop(kept.take());
        let clock = Stopwatch::start();
        kept = Some(build());
        walls.push(clock.secs());
    }
    (
        kept.expect("at least one set-up"),
        median(&walls).expect("set-ups ran"),
        walls.len(),
    )
}

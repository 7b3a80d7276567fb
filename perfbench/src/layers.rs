//! Per-layer figures from a traced run.
//!
//! A traced unit runs on a recorder with trace rings on. Its span tree
//! comes from the `main` track (see [`crate::tree`]); counters and pool
//! busy time come from the recorder's run report. The benchmark opens its
//! own spans around each call into a layer (`bench.*`, `snapshot.*` and
//! the set-up layers below); the spans inside the campaign and
//! `Bdrmapit::run` are the ones `obs` already emits.

use crate::stats::{median, Tally};
use crate::tree::{self, Mark, Node};
use as_rel::infer::{infer_relationships, InferenceConfig};
use as_rel::CustomerCones;
use bgp::IpToAs;
use obs::names;
use obs::trace::EventKind;
use std::collections::BTreeMap;
use topo_gen::{GeneratorConfig, Internet};

/// Root span of one timed unit.
pub const SPAN_UNIT: &str = "bench.unit";
/// Around `Scenario::campaign` (probing plus alias resolution).
pub const SPAN_CAMPAIGN: &str = "bench.campaign";
/// Around `Bdrmapit::run`.
pub const SPAN_RUN: &str = "bench.bdrmapit_run";
/// Around `SnapshotData::from_annotated` plus `snapshot::to_bytes`.
pub const SPAN_ENCODE: &str = "snapshot.encode";
/// Around `Snapshot::from_bytes`.
pub const SPAN_LOAD: &str = "snapshot.load";
/// Around the unit's batch of `serve` queries.
pub const SPAN_SERVE: &str = "bench.serve";
/// Root span of the set-up layer breakdown.
pub const SPAN_SETUP: &str = "bench.setup";
const SPAN_GENERATE: &str = "topo-gen.generate";
const SPAN_RIB: &str = "bgp.rib";
const SPAN_INFER: &str = "as-rel.infer";

/// Events each trace track keeps. The `main` track, the only one the span
/// tree is built from, holds a few dozen phase spans per unit and fails the
/// run if it ever drops one; worker tracks may wrap.
const TRACK_CAPACITY: usize = 1 << 14;

/// Layer metrics by name (see [`crate::PER_LAYER`]).
pub type LayerMap = BTreeMap<&'static str, f64>;

/// A recorder with the trace rings on.
pub fn traced_recorder() -> obs::Recorder {
    obs::Recorder::with_tracing(false, TRACK_CAPACITY)
}

/// What one traced stretch recorded.
pub struct Traced {
    pub forest: Vec<Node>,
    pub report: obs::RunReport,
}

impl Traced {
    /// Collects the span tree and run report of `rec`. Fails if the `main`
    /// track lost events or does not nest.
    pub fn collect(rec: &obs::Recorder) -> Result<Traced, String> {
        let doc = rec.tracer().finish();
        let main = doc
            .tracks
            .iter()
            .find(|t| t.name == names::TRACK_MAIN)
            .ok_or("trace has no main track")?;
        if main.dropped > 0 {
            return Err(format!("main track dropped {} events", main.dropped));
        }
        let marks: Vec<Mark<'_>> = main
            .events
            .iter()
            .filter(|e| e.kind != EventKind::Instant)
            .map(|e| Mark {
                name: e.name,
                begin: e.kind == EventKind::Begin,
                t_nanos: e.t_nanos,
            })
            .collect();
        Ok(Traced {
            forest: tree::build(&marks)?,
            report: rec.report(),
        })
    }

    /// Total wall time of every span named `name`, milliseconds.
    pub fn wall_ms(&self, name: &str) -> f64 {
        tree::totals(&self.forest)
            .get(name)
            .map_or(0.0, |&(wall, _)| wall as f64 / 1e6)
    }

    fn counter(&self, name: &str) -> f64 {
        self.report.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn exec(&self, name: &str) -> f64 {
        self.report.exec.get(name).copied().unwrap_or(0) as f64
    }

    /// Counts the no-double-count self-check: no span's children cover
    /// more than its own wall time.
    pub fn check_tree(&self, tally: &mut Tally) {
        let bad = tree::overfull(&self.forest);
        tally.check(bad.is_empty(), &format!("span tree overfull: {bad:?}"));
    }

    /// The layer metrics of the pipeline layers (campaign, alias, phases
    /// 1–3, snapshot) in this stretch. `corpus_hops` is the hop count of
    /// the corpus `Bdrmapit::run` read; `threads` the pool size.
    pub fn pipeline_layers(&self, corpus_hops: u64, threads: usize) -> LayerMap {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let campaign_ms = self.wall_ms(names::PHASE_TRACEROUTE);
        let hops = self.counter(names::TRACEROUTE_HOPS);
        let graph_ms = self.wall_ms(names::PHASE_GRAPH);
        let refine_ms = self.wall_ms(names::PHASE_REFINE);
        let iterations = self.counter(names::REFINE_ITERATIONS);
        let busy =
            |counter: &str, wall_ms: f64| ratio(self.exec(counter), wall_ms * 1e3 * threads as f64);
        BTreeMap::from([
            ("traceroute.campaign_ms", campaign_ms),
            ("traceroute.us_per_hop", ratio(campaign_ms * 1e3, hops)),
            ("traceroute.hops", hops),
            (
                "traceroute.responsive_share",
                ratio(self.counter(names::TRACEROUTE_RESPONSIVE_HOPS), hops),
            ),
            (
                "traceroute.busy_share",
                busy(names::EXEC_POOL_BUSY_CAMPAIGN, campaign_ms),
            ),
            ("alias.resolve_ms", self.wall_ms(names::PHASE_ALIAS)),
            ("alias.groups", self.counter(names::ALIAS_GROUPS)),
            ("core.graph_ms", graph_ms),
            (
                "core.graph_ns_per_hop",
                ratio(graph_ms * 1e6, corpus_hops as f64),
            ),
            ("core.reduce_ms", self.wall_ms(names::PHASE1_REDUCE)),
            (
                "core.graph_busy_share",
                busy(names::EXEC_POOL_BUSY_GRAPH, graph_ms),
            ),
            ("core.lasthop_ms", self.wall_ms(names::PHASE_LASTHOP)),
            ("core.refine_ms", refine_ms),
            ("core.refine_ms_per_iter", ratio(refine_ms, iterations)),
            ("core.refine_iterations", iterations),
            ("snapshot.encode_ms", self.wall_ms(SPAN_ENCODE)),
            ("snapshot.load_ms", self.wall_ms(SPAN_LOAD)),
        ])
    }
}

/// Wall time at one thread over wall time at [`crate::THREADS`] for the
/// campaign, the phase-1 graph build and refinement; 0 for a layer that
/// did not run.
pub fn speedups(one: &Traced, many: &[Traced]) -> LayerMap {
    let mut out = LayerMap::new();
    for (metric, span) in [
        ("traceroute.speedup_2t", names::PHASE_TRACEROUTE),
        ("core.graph.speedup_2t", names::PHASE_GRAPH),
        ("core.refine.speedup_2t", names::PHASE_REFINE),
    ] {
        let walls: Vec<f64> = many.iter().map(|t| t.wall_ms(span)).collect();
        let base = one.wall_ms(span);
        let now = median(&walls).unwrap_or(0.0);
        out.insert(metric, if now > 0.0 { base / now } else { 0.0 });
    }
    out
}

/// Per-metric median across several traced units.
pub fn median_of(maps: &[LayerMap]) -> LayerMap {
    let mut out = LayerMap::new();
    for &key in maps.iter().flat_map(BTreeMap::keys) {
        let values: Vec<f64> = maps.iter().filter_map(|m| m.get(key).copied()).collect();
        out.insert(key, median(&values).unwrap_or(0.0));
    }
    out
}

/// Times the set-up layers one by one under the benchmark's own spans —
/// topology generation, the collector RIB plus the IP→AS oracle, and
/// relationship inference plus customer cones — the work
/// `Scenario::build` and `Bdrmapit::run` do before any pipeline phase.
pub fn setup_breakdown(cfg: &GeneratorConfig, tally: &mut Tally) -> (LayerMap, Vec<Node>) {
    let rec = traced_recorder();
    {
        let _setup = rec.span(SPAN_SETUP);
        let net = {
            let _s = rec.span(SPAN_GENERATE);
            Internet::generate(cfg.clone())
        };
        let rib = {
            let _s = rec.span(SPAN_RIB);
            let rib = net.build_rib();
            let ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
            std::hint::black_box(&ip2as);
            rib
        };
        let _s = rec.span(SPAN_INFER);
        let rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());
        std::hint::black_box(CustomerCones::compute(&rels));
    }
    let traced = match Traced::collect(&rec) {
        Ok(t) => t,
        Err(e) => {
            tally.check(false, &format!("set-up trace: {e}"));
            return (LayerMap::new(), Vec::new());
        }
    };
    traced.check_tree(tally);
    let layers = BTreeMap::from([
        ("topo-gen.generate_ms", traced.wall_ms(SPAN_GENERATE)),
        ("bgp.rib_ms", traced.wall_ms(SPAN_RIB)),
        ("as-rel.infer_ms", traced.wall_ms(SPAN_INFER)),
    ]);
    (layers, traced.forest)
}

/// Prints a merged span tree to stderr under a heading.
pub fn print_tree(title: &str, forest: &[Node]) {
    eprintln!("-- span tree: {title} --");
    eprint!("{}", tree::render(&tree::merge(forest)));
}

//! The bdrmapit benchmark: one command, two workloads, one wall clock per
//! timed unit, per-layer costs from a separate traced run, and every
//! output checked against generator ground truth.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload itdk-pipeline --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Workloads (why each exists is in `BENCHMARK.json`):
//!
//! * `itdk-pipeline` — campaign → alias → `Bdrmapit::run` → snapshot
//!   encode → `Snapshot::from_bytes` → a fixed batch of `serve` queries
//!   over loopback, on the ITDK-sized scenario built in set-up.
//! * `default-churn` — one `churn::run_churn` over a fixed epoch count.
//!
//! Each workload runs one untimed warm-up unit after set-up; peak memory
//! and the ground-truth scores come from it.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run. Both
//! carry `correct`, `attempted` and `failed`: timed operations and
//! correctness checks alike count as operations, and a failed check is a
//! failed operation. The line before it is a JSON record of the host and
//! the input scale. Progress, the metric table and the span tree go to
//! stderr.

#![forbid(unsafe_code)]

mod churn_load;
mod host;
mod layers;
mod pipeline;
mod serve_batch;
mod stats;
mod tree;

use serde::Serialize;
use stats::Tally;
use std::collections::BTreeMap;
use std::process::ExitCode;
use topo_gen::GeneratorConfig;

/// Pool threads and client connections every workload uses. Fixed rather
/// than taken from the host so a workload means the same work everywhere;
/// the host's parallelism is recorded next to the result.
pub const THREADS: usize = 2;

/// Set-ups per run at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Cheap set-ups repeat until this much time has passed, so their median
/// rests on more than three samples.
pub const SETUP_SECONDS: f64 = 4.0;

/// End-to-end metrics and their units, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("router_accuracy", "share"),
    ("link_precision", "share"),
    ("link_recall", "share"),
];

/// Per-layer metrics and their units, reported by every traced run. A
/// layer that does no work in a workload's timed unit reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topo-gen.generate_ms", "ms"),
    ("bgp.rib_ms", "ms"),
    ("as-rel.infer_ms", "ms"),
    ("traceroute.campaign_ms", "ms"),
    ("traceroute.us_per_hop", "us"),
    ("traceroute.hops", "count"),
    ("traceroute.responsive_share", "share"),
    ("traceroute.busy_share", "share"),
    ("traceroute.speedup_2t", "x"),
    ("alias.resolve_ms", "ms"),
    ("alias.groups", "count"),
    ("core.graph_ms", "ms"),
    ("core.graph_ns_per_hop", "ns"),
    ("core.reduce_ms", "ms"),
    ("core.graph_busy_share", "share"),
    ("core.graph.speedup_2t", "x"),
    ("core.lasthop_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.refine_ms_per_iter", "ms"),
    ("core.refine_iterations", "count"),
    ("core.refine.speedup_2t", "x"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("serve.client_p99_us", "us"),
    ("serve.server_p99_us.lookup_addr", "us"),
    ("serve.server_p99_us.lookup_prefix", "us"),
    ("serve.server_p99_us.router", "us"),
    ("serve.server_p99_us.links_of_as", "us"),
    ("serve.transport_us", "us"),
    ("churn.epoch_ms", "ms"),
    ("churn.incremental_ms", "ms"),
    ("churn.full_ms", "ms"),
    ("churn.rib_epoch_ms", "ms"),
    ("churn.dirty_pair_share", "share"),
    ("churn.inc_over_full", "x"),
    ("mem.bytes_per_hop", "B"),
    ("trace.overhead_share", "share"),
];

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ItdkPipeline,
    DefaultChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "itdk-pipeline" => Workload::ItdkPipeline,
            "default-churn" => Workload::DefaultChurn,
            _ => return None,
        })
    }
}

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<(Args, String), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let args = Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((args, name))
}

/// Wall time since construction, read through the workspace's one
/// sanctioned monotonic clock.
pub struct Stopwatch(obs::MonotonicClock);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(obs::MonotonicClock::new())
    }

    pub fn nanos(&self) -> u64 {
        obs::Clock::now_nanos(&self.0)
    }

    pub fn secs(&self) -> f64 {
        self.nanos() as f64 / 1e9
    }
}

/// The ITDK-sized scale: 60 VPs, about 378 k traces.
pub fn itdk_scale(seed: u64) -> (GeneratorConfig, usize) {
    (GeneratorConfig::itdk_scale(seed), 60)
}

/// The `default` scale: 20 VPs.
pub fn default_scale(seed: u64) -> (GeneratorConfig, usize) {
    (
        GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        },
        20,
    )
}

/// Input-size figures of a run, so unit costs compare across scales.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ScaleRecord {
    pub name: &'static str,
    pub routers: u64,
    pub traces: u64,
    pub hops: u64,
    pub irs: u64,
}

/// What a workload run produced: operation accounting, the metrics of the
/// requested mode, the input scale, and extra figures for the record line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub scale: ScaleRecord,
    pub extra: BTreeMap<String, f64>,
}

#[derive(Serialize)]
struct Record<'a> {
    record: &'static str,
    workload: &'a str,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    host: host::Host,
    scale: &'a ScaleRecord,
    extra: &'a BTreeMap<String, f64>,
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, Metric>,
}

fn main() -> ExitCode {
    let (args, name) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload itdk-pipeline|default-churn \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload {
        Workload::ItdkPipeline => pipeline::run(&args),
        Workload::DefaultChurn => churn_load::run(&args),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = BTreeMap::new();
    for &(metric, unit) in table {
        let value = out.metrics.get(metric).copied();
        let ok = value.is_some_and(f64::is_finite);
        out.tally
            .check(ok, &format!("metric {metric} missing or not finite"));
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        eprintln!("  {metric:<36} {value:>16.6} {unit}");
        metrics.insert(metric, Metric { value, unit });
    }
    let record = Record {
        record: "perfbench/v1",
        workload: &name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: THREADS,
        host: host::Host::probe(),
        scale: &out.scale,
        extra: &out.extra,
    };
    let line = ResultLine {
        correct: out.tally.all_ok(),
        attempted: out.tally.attempted,
        failed: out.tally.failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&record).expect("record serializes")
    );
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    /// The metric tables here and the declaration in `BENCHMARK.json`
    /// list the same names with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: BenchmarkJson = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |v: &[Declared]| {
            v.iter()
                .map(|d| (d.name.clone(), d.unit.clone()))
                .collect::<Vec<_>>()
        };
        let table = |t: &[(&str, &str)]| {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&doc.end_to_end), table(END_TO_END));
        assert_eq!(pairs(&doc.per_layer), table(PER_LAYER));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (a, name) =
            parse_args(argv("--workload default-churn --seed 7 --seconds 3 --trace 1").into_iter())
                .unwrap();
        assert_eq!(name, "default-churn");
        assert_eq!(a.workload, Workload::DefaultChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload itdk-annotate --seed 1 --seconds 1 --trace 0",
            "--workload itdk-pipeline --seed 1 --seconds 0 --trace 0",
            "--workload itdk-pipeline --seed 1 --seconds 1 --trace 2",
            "--workload itdk-pipeline --seed 1 --seconds 1",
            "--workload itdk-pipeline --seed x --seconds 1 --trace 0",
        ] {
            assert!(parse_args(argv(bad).into_iter()).is_err(), "{bad}");
        }
    }
}

//! The two-phase workspace analysis: cross-file order-taint propagation
//! (phase B) on a purpose-built fixture workspace, the `--baseline`
//! suppression path, and the pooled-scan determinism contract.

use detlint::{analyze_sources, Report};
use pool::WorkerPool;
use std::path::{Path, PathBuf};

/// A three-file fixture workspace: `gather` returns `HashMap::keys()`
/// order (the seed, with both in-file hazards justified by allows),
/// `relay` launders it through a second crate, `emit` consumes it.
fn fixture_workspace() -> Vec<(String, String)> {
    let collect = "\
use std::collections::HashMap;

// detlint::allow(unordered-collection): order policed by the order-taint-flow rule
pub fn gather(m: &HashMap<u32, u32>) -> Vec<u32> {
    // detlint::allow(unordered-iter): order escapes by design; the taint flow rule reports every caller
    m.keys().copied().collect()
}
";
    let mid = "\
pub fn relay(m: &Map) -> Vec<u32> {
    gather(m)
}
";
    let top = "\
pub fn emit(m: &Map) {
    // detlint::allow(order-taint-flow): output sorted before rendering
    let v = relay(m);
    render(v);
}
";
    vec![
        (
            "crates/demo-a/src/collect.rs".to_string(),
            collect.to_string(),
        ),
        ("crates/demo-b/src/mid.rs".to_string(), mid.to_string()),
        ("crates/demo-c/src/top.rs".to_string(), top.to_string()),
    ]
}

#[test]
fn order_taint_propagates_across_files_with_full_chain() {
    let report = analyze_sources(&fixture_workspace());

    assert_eq!(report.index.fns, 3);
    assert_eq!(report.index.taint_sources, 1, "gather seeds the taint");
    assert_eq!(
        report.index.tainted_fns, 2,
        "relay (returning caller) inherits; emit (no return) does not"
    );

    // Unallowed: the gather call inside relay. Its chain walks seed -> site.
    assert_eq!(report.findings.len(), 1, "{}", report.to_table());
    let f = &report.findings[0];
    assert_eq!(f.rule, "order-taint-flow");
    assert_eq!((f.file.as_str(), f.line), ("crates/demo-b/src/mid.rs", 2));
    let chain = f
        .chain
        .as_ref()
        .expect("cross-file finding carries a chain");
    let hops: Vec<(&str, &str)> = chain
        .iter()
        .map(|c| (c.fn_name.as_str(), c.file.as_str()))
        .collect();
    assert_eq!(
        hops,
        vec![
            ("gather", "crates/demo-a/src/collect.rs"),
            ("relay", "crates/demo-b/src/mid.rs"),
        ]
    );
    assert!(
        f.message.contains("chain: gather -> relay"),
        "{}",
        f.message
    );

    // Allowed: emit's relay call (annotated) plus collect.rs's two
    // justified in-file hazards.
    let allowed_rules: Vec<&str> = report.allowed.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(
        allowed_rules,
        vec!["unordered-collection", "unordered-iter", "order-taint-flow"]
    );
    let emit_call = &report.allowed[2];
    assert_eq!(emit_call.file, "crates/demo-c/src/top.rs");
    let chain = emit_call.chain.as_ref().expect("chain on allowed finding");
    assert_eq!(chain.len(), 3, "gather -> relay -> emit call site");
    assert_eq!(chain[2].fn_name, "emit");

    // v2 schema markers survive serialization.
    let json = report.to_json();
    assert!(json.contains("bdrmapit.detlint-report/v2"), "{json}");
    assert!(json.contains("\"chain\""), "{json}");
    assert!(json.contains("\"taint_sources\": 1"), "{json}");
}

#[test]
fn baseline_suppresses_known_findings_only() {
    let files = fixture_workspace();
    let mut first = analyze_sources(&files);
    assert_eq!(first.findings.len(), 1);
    let baseline_json = first.to_json();

    // Same scan against its own baseline: nothing new, the known finding
    // moves to the baselined bucket, and the run is clean.
    let mut rescanned = analyze_sources(&files);
    let suppressed = rescanned
        .apply_baseline(&baseline_json)
        .expect("valid baseline");
    assert_eq!(suppressed, 1);
    assert!(rescanned.is_clean());
    assert_eq!(rescanned.baselined.len(), 1);
    assert!(rescanned.to_json().contains("\"baselined\""));

    // A new hazard not in the baseline still fails.
    let mut files2 = files.clone();
    files2.push((
        "crates/demo-d/src/extra.rs".to_string(),
        "pub fn reemit(m: &Map) -> Vec<u32> { relay(m) }\n".to_string(),
    ));
    let mut second = analyze_sources(&files2);
    second
        .apply_baseline(&baseline_json)
        .expect("valid baseline");
    assert!(!second.is_clean(), "new finding must survive the baseline");
    assert!(second
        .findings
        .iter()
        .all(|f| f.file == "crates/demo-d/src/extra.rs"));

    // Garbage baselines are a hard error, not silent acceptance.
    assert!(first.apply_baseline("not json").is_err());
    assert!(first.apply_baseline("[1, 2]").is_err());
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/detlint")
        .to_path_buf()
}

/// detlint dogfoods the WorkerPool for phase A; the report must be
/// byte-identical at every pool width (the same contract the pool gives
/// the pipeline phases it hosts).
#[test]
fn pooled_scan_is_thread_count_invariant() {
    let root = workspace_root();
    let render = |r: &Report| r.to_json();
    let serial = detlint::analyze_workspace(&root, &WorkerPool::new(1));
    let pooled = detlint::analyze_workspace(&root, &WorkerPool::new(4));
    assert!(serial.files_scanned > 50);
    assert_eq!(render(&serial), render(&pooled));
}

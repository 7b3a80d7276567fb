//! Fixture tests: every rule firing (positive), staying quiet (negative),
//! and being silenced by an allow annotation — with exact diagnostic spans.
//!
//! Fixtures live under `tests/fixtures/` (excluded from workspace scans);
//! each is analyzed under a *logical* path so the path-scoped rules
//! (float-accum, unscoped-thread exemption, crate-root detection) can be
//! exercised independently of where the fixture sits on disk.

use detlint::analyze_source;
use std::fs;
use std::path::Path;

/// Loads a fixture by file name.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// `(rule, line, col, allowed)` for every finding, in report order.
fn spans(logical_path: &str, name: &str) -> Vec<(String, u32, u32, bool)> {
    analyze_source(logical_path, &fixture(name))
        .findings
        .into_iter()
        .map(|f| (f.rule, f.line, f.col, f.allowed.is_some()))
        .collect()
}

fn s(rule: &str, line: u32, col: u32, allowed: bool) -> (String, u32, u32, bool) {
    (rule.to_string(), line, col, allowed)
}

#[test]
fn unordered_iter_positive_spans() {
    assert_eq!(
        spans("crates/demo/src/iter_positive.rs", "iter_positive.rs"),
        vec![
            s("unordered-collection", 6, 16, false), // let mut m: HashMap
            s("unordered-iter", 8, 20, false),       // for (k, v) in &m
            s("unordered-iter", 11, 25, false),      // m.values()
            s("unordered-collection", 12, 15, false), // let memo: Memo (alias)
            s("unordered-collection", 14, 17, false), // let mut s = HashSet::new()
            s("unordered-iter", 16, 16, false),      // s.drain()
        ]
    );
}

#[test]
fn unordered_iter_allowed_is_silenced() {
    let found = spans("crates/demo/src/iter_allowed.rs", "iter_allowed.rs");
    assert_eq!(
        found,
        vec![
            s("unordered-collection", 5, 16, true), // annotated above
            s("unordered-iter", 8, 32, true),       // annotated above
            s("unordered-iter", 10, 16, true),      // trailing annotation
        ]
    );
}

#[test]
fn btreemap_iteration_is_clean() {
    assert_eq!(
        spans("crates/demo/src/iter_negative.rs", "iter_negative.rs"),
        vec![]
    );
}

#[test]
fn nondet_sources_fire_with_spans() {
    assert_eq!(
        spans("crates/demo/src/nondet_positive.rs", "nondet_positive.rs"),
        vec![
            s("nondet-source", 1, 34, false), // use ... DefaultHasher
            s("nondet-source", 1, 49, false), // use ... RandomState
            s("nondet-source", 5, 14, false), // DefaultHasher::new()
            s("nondet-source", 6, 14, false), // RandomState::new()
            s("nondet-source", 7, 15, false), // Instant::now()
            s("nondet-source", 8, 17, false), // SystemTime::now()
        ]
    );
}

#[test]
fn nondet_allowed_is_silenced() {
    assert_eq!(
        spans("crates/demo/src/nondet_allowed.rs", "nondet_allowed.rs"),
        vec![s("nondet-source", 3, 26, true)]
    );
}

#[test]
fn thread_use_outside_parallel_fires() {
    assert_eq!(
        spans("crates/demo/src/thread_positive.rs", "thread_positive.rs"),
        vec![
            s("unscoped-thread", 2, 18, false), // std::thread::spawn
            s("unscoped-thread", 4, 5, false),  // rayon::join
            s("unscoped-thread", 5, 5, false),  // crossbeam::scope
        ]
    );
}

#[test]
fn thread_use_inside_pool_is_exempt() {
    // The pool crate root is the one thread-exempt file: none of the
    // unscoped-thread findings fire. (The fixture is a crate root without
    // `#![forbid(unsafe_code)]`, so that unrelated rule still does.)
    assert_eq!(
        spans("crates/pool/src/lib.rs", "thread_positive.rs"),
        vec![s("missing-forbid-unsafe", 1, 1, false)]
    );
}

#[test]
fn float_accumulation_fires_in_eval_paths() {
    assert_eq!(
        spans("crates/eval/src/float_positive.rs", "float_positive.rs"),
        vec![
            s("float-accum", 8, 13, false),  // acc += r
            s("float-accum", 11, 14, false), // t.weight += 1.5
        ]
    );
}

#[test]
fn float_accumulation_is_scoped_to_refine_and_eval() {
    assert_eq!(
        spans("crates/bgp/src/float_positive.rs", "float_positive.rs"),
        vec![]
    );
}

#[test]
fn crate_root_missing_forbid_fires() {
    assert_eq!(
        spans("crates/demo/src/lib.rs", "forbid_missing.rs"),
        vec![s("missing-forbid-unsafe", 1, 1, false)]
    );
    // The same file is fine when it is not a crate root.
    assert_eq!(
        spans("crates/demo/src/helper.rs", "forbid_missing.rs"),
        vec![]
    );
}

#[test]
fn crate_root_with_forbid_is_clean() {
    assert_eq!(
        spans("crates/demo/src/main.rs", "forbid_present.rs"),
        vec![]
    );
}

#[test]
fn malformed_allows_are_findings() {
    assert_eq!(
        spans("crates/demo/src/invalid_allow.rs", "invalid_allow.rs"),
        vec![
            s("invalid-allow", 2, 1, false), // missing `: reason`
            s("invalid-allow", 4, 1, false), // unknown rule name
        ]
    );
}

#[test]
fn pool_rules_positive_spans() {
    assert_eq!(
        spans("crates/demo/src/pool_rules.rs", "pool_rules.rs"),
        vec![
            s("pool-shared-capture", 10, 9, false), // total += i inside worker
            s("interior-mut-in-worker", 11, 15, false), // cache.lock()
            s("relaxed-atomic-output", 19, 7, false), // counter_value's load
        ]
    );
}

#[test]
fn pool_rules_negative_shapes_are_clean() {
    // stats/account-named reporters, a no-return fn, a never-mutated
    // capture, and a closure-local let: none fire.
    assert_eq!(
        spans("crates/demo/src/lib.rs", "pool_rules_negative.rs"),
        vec![]
    );
}

#[test]
fn pool_shared_capture_is_scoped_to_the_enclosing_fn() {
    // `&mut ir.links` in `reduce` does not make `annotate`'s read-only `ir`
    // a shared capture, and `relabel`'s `for (i, ir)` binding is local to
    // its closure; `seen += …` in `relabel` itself still fires.
    assert_eq!(
        spans("crates/demo/src/capture_scope.rs", "pool_capture_scope.rs"),
        vec![s("pool-shared-capture", 28, 13, false)]
    );
}

#[test]
fn pool_crate_is_exempt_from_interior_mut_only() {
    // Under the pool's own path the interior-mutability rule stands down
    // (the pool IS the synchronization layer), but shared captures and
    // relaxed loads in returning fns are still hazards there.
    assert_eq!(
        spans("crates/pool/src/lib.rs", "pool_rules.rs"),
        vec![
            s("missing-forbid-unsafe", 1, 1, false), // fixture has no header
            s("pool-shared-capture", 10, 9, false),
            s("relaxed-atomic-output", 19, 7, false),
        ]
    );
}

#[test]
fn raw_byte_and_c_strings_never_leak_identifier_tokens() {
    // br#"…"#/cr#"…"# contents are literal text: no nondet-source or
    // unscoped-thread findings, and no identifier token at all.
    assert_eq!(
        spans("crates/demo/src/rawstr.rs", "rawstr_negative.rs"),
        vec![]
    );
    let (toks, _) = detlint::lexer::lex(&fixture("rawstr_negative.rs"));
    for banned in [
        "thread_rng",
        "DefaultHasher",
        "RandomState",
        "rayon",
        "crossbeam",
    ] {
        assert!(
            !toks
                .iter()
                .any(|t| t.kind == detlint::lexer::TokKind::Ident && t.text == banned),
            "`{banned}` leaked out of a raw string as an identifier token"
        );
    }
}

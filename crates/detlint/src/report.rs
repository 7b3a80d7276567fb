//! Workspace walking, the two-phase analysis driver, and report rendering.
//!
//! Phase A lexes and analyzes every file independently — rules plus the
//! symbol index — and is embarrassingly parallel, so the workspace driver
//! dispatches it on the shared [`pool::WorkerPool`] (detlint dogfoods the
//! concurrency substrate it polices; results are reassembled in file-index
//! order, so the report is byte-identical at every thread count). Phase B
//! ([`crate::dataflow`]) is a serial fixpoint over the joined indexes.
//!
//! The JSON report follows schema [`SCHEMA`] (`bdrmapit.detlint-report/v2`):
//! v1's `{version, files_scanned, findings, allowed}` plus the `schema`
//! discriminator, the `index` taint summary, per-finding `chain` arrays on
//! cross-file findings, and a `baselined` bucket populated when the caller
//! supplies `--baseline` (known findings are suppressed; only new ones
//! fail the run).

use crate::dataflow::{self, TaintSummary};
use crate::index::FileIndex;
use crate::rules::{AllowCover, FileAnalysis, Finding};
use pool::WorkerPool;
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// The report schema identifier embedded in every JSON report.
pub const SCHEMA: &str = "bdrmapit.detlint-report/v2";

/// Directories never scanned (build output, vendored deps, VCS metadata).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github"];

/// Paths containing this segment hold intentional rule violations for the
/// detlint fixture tests and are excluded from workspace scans.
const FIXTURE_SEGMENT: &str = "detlint/tests/fixtures";

/// The whole-workspace analysis result.
#[derive(Clone, Debug, Serialize)]
pub struct Report {
    /// Report schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Report schema version.
    pub version: u32,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Workspace symbol-index / taint-propagation statistics (phase B).
    pub index: TaintSummary,
    /// Findings not covered by an allow annotation (CI fails on any).
    pub findings: Vec<Finding>,
    /// Findings silenced by `detlint::allow` annotations.
    pub allowed: Vec<Finding>,
    /// Findings suppressed by a `--baseline` file (present in the committed
    /// baseline; not failures, but still reported).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub baselined: Vec<Finding>,
}

impl Report {
    /// True when the workspace is clean (no unannotated, non-baselined
    /// findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The human-readable table form.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.findings.is_empty() {
            out.push_str("determinism hazards (unannotated):\n");
            render_rows(&mut out, &self.findings);
            out.push('\n');
        }
        if !self.baselined.is_empty() {
            out.push_str("baselined findings (suppressed by --baseline):\n");
            for f in &self.baselined {
                out.push_str(&format!("  {}:{}:{}  {}\n", f.file, f.line, f.col, f.rule));
            }
            out.push('\n');
        }
        if !self.allowed.is_empty() {
            out.push_str("allowed (annotated) findings:\n");
            for f in &self.allowed {
                out.push_str(&format!(
                    "  {}:{}:{}  {}  [{}]\n",
                    f.file,
                    f.line,
                    f.col,
                    f.rule,
                    f.allowed.as_deref().unwrap_or("")
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} files scanned; index: {} fns, {} call edges, {} taint sources, \
             {} tainted fns\n",
            self.files_scanned,
            self.index.fns,
            self.index.call_edges,
            self.index.taint_sources,
            self.index.tainted_fns,
        ));
        out.push_str(&format!(
            "{} finding(s), {} allowed, {} baselined\n",
            self.findings.len(),
            self.allowed.len(),
            self.baselined.len()
        ));
        if self.is_clean() {
            out.push_str("workspace is determinism-clean\n");
        }
        out
    }

    /// Applies a committed baseline (a previous JSON report): findings also
    /// present in the baseline move to [`Report::baselined`], so only *new*
    /// findings fail the run. Matching is on `(rule, file, snippet)` — not
    /// line numbers — so unrelated edits above a known finding don't
    /// invalidate the baseline. Returns the number suppressed.
    pub fn apply_baseline(&mut self, baseline_json: &str) -> Result<usize, String> {
        use serde::json::Value;
        let v = serde::json::parse(baseline_json).map_err(|e| format!("invalid baseline: {e}"))?;
        let Value::Object(top) = v else {
            return Err("invalid baseline: not a JSON object".to_string());
        };
        let mut known: Vec<(String, String, String)> = Vec::new();
        for (key, val) in &top {
            if key != "findings" && key != "baselined" {
                continue;
            }
            let Value::Array(items) = val else { continue };
            for item in items {
                let Value::Object(fields) = item else {
                    continue;
                };
                let s = |k: &str| {
                    fields
                        .iter()
                        .find(|(name, _)| name == k)
                        .and_then(|(_, v)| match v {
                            Value::String(s) => Some(s.clone()),
                            _ => None,
                        })
                        .unwrap_or_default()
                };
                known.push((s("rule"), s("file"), s("snippet")));
            }
        }
        let before = self.findings.len();
        let (suppressed, kept): (Vec<Finding>, Vec<Finding>) = std::mem::take(&mut self.findings)
            .into_iter()
            .partition(|f| {
                known
                    .iter()
                    .any(|(r, p, s)| *r == f.rule && *p == f.file && *s == f.snippet)
            });
        self.findings = kept;
        self.baselined.extend(suppressed);
        Ok(before - self.findings.len())
    }
}

fn render_rows(out: &mut String, findings: &[Finding]) {
    let loc_w = findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.file, f.line, f.col).len())
        .max()
        .unwrap_or(0);
    let rule_w = findings.iter().map(|f| f.rule.len()).max().unwrap_or(0);
    for f in findings {
        let loc = format!("{}:{}:{}", f.file, f.line, f.col);
        out.push_str(&format!(
            "  {loc:<loc_w$}  {rule:<rule_w$}  {msg}\n      | {snippet}\n",
            rule = f.rule,
            msg = f.message,
            snippet = f.snippet,
        ));
    }
}

/// Recursively collects `.rs` files under `root` in sorted (deterministic)
/// order, skipping build output, vendored code, and the fixture corpus.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if SKIP_DIRS.contains(&name) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if rel.contains(FIXTURE_SEGMENT) {
                    continue;
                }
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Phase A for one file: lex once, run the per-file rules, build the
/// symbol index over the same token stream.
fn analyze_file(rel_path: &str, source: &str) -> (FileAnalysis, FileIndex) {
    let (toks, allow_sites) = crate::lexer::lex(source);
    let analysis = crate::rules::analyze_lexed(rel_path, source, &toks, &allow_sites);
    let index = crate::index::index_file(rel_path, source, &toks, &analysis.findings);
    (analysis, index)
}

/// Joins per-file phase-A results, runs the phase-B taint fixpoint, and
/// assembles the report. `per_file` must be in sorted-path order.
fn assemble(files_scanned: usize, per_file: Vec<(FileAnalysis, FileIndex)>) -> Report {
    let indexes: Vec<(FileIndex, Vec<AllowCover>)> = per_file
        .iter()
        .map(|(fa, idx)| (idx.clone(), fa.allows.clone()))
        .collect();
    let (flow_findings, summary) = dataflow::propagate(&indexes);

    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    for f in per_file
        .into_iter()
        .flat_map(|(fa, _)| fa.findings)
        .chain(flow_findings)
    {
        if f.allowed.is_some() {
            allowed.push(f);
        } else {
            findings.push(f);
        }
    }
    let key = |f: &Finding| (f.file.clone(), f.line, f.col, f.rule.clone());
    findings.sort_by_key(key);
    allowed.sort_by_key(key);

    Report {
        schema: SCHEMA.to_string(),
        version: 2,
        files_scanned,
        index: summary,
        findings,
        allowed,
        baselined: Vec::new(),
    }
}

/// Analyzes an in-memory set of `(workspace-relative path, source)` files —
/// the entry point the fixture tests use to exercise cross-file
/// propagation without touching the filesystem. Files are sorted by path
/// first, matching the workspace walk.
pub fn analyze_sources(files: &[(String, String)]) -> Report {
    let mut sorted: Vec<&(String, String)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let per_file = sorted
        .iter()
        .map(|(rel, src)| analyze_file(rel, src))
        .collect();
    assemble(sorted.len(), per_file)
}

/// Analyzes every `.rs` file under `root`, dispatching phase A on `wp` and
/// reporting `detlint.*` index statistics (plus pool busy time) into the
/// pool's recorder. Output is independent of the pool's thread count:
/// per-file results come back in file-index order and phase B is serial.
pub fn analyze_workspace(root: &Path, wp: &WorkerPool) -> Report {
    let files = collect_rs_files(root);
    let sources: Vec<(String, String)> = files
        .iter()
        .filter_map(|path| {
            fs::read_to_string(path)
                .ok()
                .map(|src| (rel_path(root, path), src))
        })
        .collect();
    let per_file = wp.run(obs::names::EXEC_POOL_BUSY_DETLINT, sources.len(), |i| {
        let (rel, src) = &sources[i];
        analyze_file(rel, src)
    });
    let report = assemble(sources.len(), per_file);
    let rec = wp.recorder();
    rec.add(obs::names::DETLINT_FILES, report.files_scanned as u64);
    rec.add(obs::names::DETLINT_FNS, report.index.fns as u64);
    rec.add(
        obs::names::DETLINT_CALL_EDGES,
        report.index.call_edges as u64,
    );
    rec.add(
        obs::names::DETLINT_TAINT_SOURCES,
        report.index.taint_sources as u64,
    );
    rec.add(
        obs::names::DETLINT_TAINTED_FNS,
        report.index.tainted_fns as u64,
    );
    report
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

//! Span trees with self time.
//!
//! The recorder's run report sums each span name's wall time with no
//! notion of nesting, so adding up its phases counts a nested span (the
//! `phase1.*` passes inside `phase1.graph`) twice. The benchmark instead
//! rebuilds the nesting from the begin/end events on the trace's `main`
//! track and charges every span only its self time: its wall time minus
//! the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One begin or end mark on a single track, in recording order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark<'a> {
    /// Span name.
    pub name: &'a str,
    /// True for a span opening, false for a close.
    pub begin: bool,
    /// Timestamp, nanoseconds.
    pub t_nanos: u64,
}

/// A span and the spans nested inside it. Siblings never overlap: they
/// were recorded on one track, where an end always closes the innermost
/// open span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// Span name.
    pub name: String,
    /// Times this span ran (above 1 only after [`merge`]).
    pub count: u64,
    /// Wall time, nanoseconds.
    pub wall_ns: u64,
    /// Nested spans, in recording order.
    pub children: Vec<Node>,
}

impl Node {
    /// Wall time covered by the direct children.
    pub fn children_ns(&self) -> u64 {
        self.children.iter().map(|c| c.wall_ns).sum()
    }

    /// Wall time not covered by any child.
    pub fn self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.children_ns())
    }
}

/// Rebuilds the span forest from one track's marks. Fails on an end that
/// does not close the innermost open span, or on spans left open.
pub fn build(marks: &[Mark<'_>]) -> Result<Vec<Node>, String> {
    let mut roots = Vec::new();
    let mut open: Vec<(Node, u64)> = Vec::new();
    for m in marks {
        if m.begin {
            let node = Node {
                name: m.name.to_string(),
                count: 1,
                wall_ns: 0,
                children: Vec::new(),
            };
            open.push((node, m.t_nanos));
            continue;
        }
        let (mut node, start) = open
            .pop()
            .ok_or_else(|| format!("end of {} with no open span", m.name))?;
        if node.name != m.name {
            return Err(format!("end of {} closes open span {}", m.name, node.name));
        }
        node.wall_ns = m.t_nanos.saturating_sub(start);
        match open.last_mut() {
            Some((parent, _)) => parent.children.push(node),
            None => roots.push(node),
        }
    }
    match open.last() {
        Some((node, _)) => Err(format!("span {} never closed", node.name)),
        None => Ok(roots),
    }
}

/// Every span, anywhere in the forest, whose direct children cover more
/// wall time than the span itself — a double count if it ever happens.
pub fn overfull(forest: &[Node]) -> Vec<String> {
    let mut out = Vec::new();
    for node in forest {
        if node.children_ns() > node.wall_ns {
            out.push(format!(
                "{}: children {} ns > wall {} ns",
                node.name,
                node.children_ns(),
                node.wall_ns
            ));
        }
        out.extend(overfull(&node.children));
    }
    out
}

/// Total wall and self time per span name across the forest, as
/// `name -> (wall_ns, self_ns)`.
pub fn totals(forest: &[Node]) -> BTreeMap<String, (u64, u64)> {
    fn walk(nodes: &[Node], out: &mut BTreeMap<String, (u64, u64)>) {
        for n in nodes {
            let e = out.entry(n.name.clone()).or_default();
            e.0 += n.wall_ns;
            e.1 += n.self_ns();
            walk(&n.children, out);
        }
    }
    let mut out = BTreeMap::new();
    walk(forest, &mut out);
    out
}

/// Folds same-named siblings together (summing counts and wall times,
/// recursively), so repeated iterations render as one path per layer.
pub fn merge(forest: &[Node]) -> Vec<Node> {
    let mut out: Vec<Node> = Vec::new();
    for n in forest {
        match out.iter_mut().find(|m| m.name == n.name) {
            Some(m) => {
                m.count += n.count;
                m.wall_ns += n.wall_ns;
                m.children.extend(n.children.iter().cloned());
            }
            None => out.push(n.clone()),
        }
    }
    for m in &mut out {
        m.children = merge(&m.children);
    }
    out
}

/// Indented text rendering: one line per span with count, wall and self
/// time in milliseconds.
pub fn render(forest: &[Node]) -> String {
    fn walk(nodes: &[Node], depth: usize, out: &mut String) {
        for n in nodes {
            let _ = writeln!(
                out,
                "{:indent$}{:<w$} x{:<3} wall {:>10.3} ms  self {:>10.3} ms",
                "",
                n.name,
                n.count,
                n.wall_ns as f64 / 1e6,
                n.self_ns() as f64 / 1e6,
                indent = depth * 2,
                w = 30usize.saturating_sub(depth * 2),
            );
            walk(&n.children, depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(forest, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(name: &str, t: u64) -> Mark<'_> {
        Mark {
            name,
            begin: true,
            t_nanos: t,
        }
    }

    fn e(name: &str, t: u64) -> Mark<'_> {
        Mark {
            name,
            begin: false,
            t_nanos: t,
        }
    }

    /// `graph` holds two passes; a flat sum over names would count their
    /// 60 ns twice.
    fn sample() -> Vec<Node> {
        build(&[
            b("run", 0),
            b("graph", 10),
            b("intern", 10),
            e("intern", 30),
            b("links", 40),
            e("links", 80),
            e("graph", 100),
            b("refine", 100),
            e("refine", 130),
            e("run", 150),
        ])
        .unwrap()
    }

    #[test]
    fn self_time_excludes_children() {
        let forest = sample();
        assert_eq!(forest.len(), 1);
        let run = &forest[0];
        assert_eq!(run.wall_ns, 150);
        assert_eq!(run.self_ns(), 150 - 90 - 30);
        let graph = &run.children[0];
        assert_eq!((graph.wall_ns, graph.self_ns()), (90, 30));
        // Self times partition the root's wall time exactly.
        let t = totals(&forest);
        let self_sum: u64 = t.values().map(|v| v.1).sum();
        assert_eq!(self_sum, run.wall_ns);
        assert_eq!(t["intern"], (20, 20));
        assert!(overfull(&forest).is_empty());
    }

    #[test]
    fn overfull_parent_is_reported() {
        let mut forest = sample();
        forest[0].children[0].wall_ns = 50; // children now cover 60 > 50
        let bad = overfull(&forest);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("graph:"), "{bad:?}");
        assert_eq!(forest[0].children[0].self_ns(), 0);
    }

    #[test]
    fn malformed_marks_are_rejected() {
        assert!(build(&[b("a", 0), e("b", 1)]).is_err());
        assert!(build(&[e("a", 1)]).is_err());
        assert!(build(&[b("a", 0)]).is_err());
    }

    #[test]
    fn merge_folds_repeated_siblings() {
        let forest = build(&[
            b("iter", 0),
            b("campaign", 0),
            e("campaign", 5),
            e("iter", 6),
            b("iter", 10),
            b("campaign", 10),
            e("campaign", 17),
            e("iter", 20),
        ])
        .unwrap();
        let merged = merge(&forest);
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].count, merged[0].wall_ns), (2, 16));
        assert_eq!(merged[0].children.len(), 1);
        assert_eq!(merged[0].children[0].wall_ns, 12);
        assert_eq!(merged[0].self_ns(), 4);
        assert!(render(&merged).contains("campaign"));
    }
}

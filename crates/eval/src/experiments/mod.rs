//! Experiment drivers — one per paper figure/table.
//!
//! | Driver | Paper artifact |
//! |---|---|
//! | [`single_vp::fig15`] | Fig. 15: single in-network VP, bdrmapIT vs bdrmap |
//! | [`snapshots::fig15_dual`], [`snapshots::fig16_dual`] | the same figures with the paper's 2016/2018 snapshot groups |
//! | [`internet_wide::run`] | Figs. 16 & 17: Internet-wide, bdrmapIT vs MAP-IT |
//! | [`vps::sweep`] | Figs. 18 & 19: varying the number of VPs |
//! | [`aliases::fig20`] | Fig. 20 + §7.4: alias-resolution impact |
//! | [`heuristics::ablation`] | DESIGN.md ablations: each heuristic toggled |
//! | [`stats::corpus_stats`] | Table 3 distribution + §5 coverage claims |

pub mod aliases;
pub mod heuristics;
pub mod internet_wide;
pub mod single_vp;
pub mod snapshots;
pub mod stats;
pub mod vps;

use crate::scenario::{CorpusBundle, Scenario};
use bdrmapit_core::{Annotated, Bdrmapit, Config};

/// Runs bdrmapIT on a corpus under a scenario, on the scenario's worker
/// pool — the scenario's shared pool if one is installed, so campaign and
/// inference accumulate scheduling stats together — and reporting
/// telemetry through that pool's recorder (disabled unless the scenario
/// was built with [`Scenario::build_with_obs`] or given a recording pool).
pub fn run_bdrmapit(s: &Scenario, bundle: &CorpusBundle, cfg: Config) -> Annotated {
    Bdrmapit::new(cfg).with_pool(s.worker_pool()).run(
        &bundle.traces,
        &bundle.aliases,
        &s.ip2as,
        &s.rels,
    )
}

/// Renders an aligned text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = format!("== {title} ==\n");
    let header_cells: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            "Demo",
            &["net", "value"],
            &[
                vec!["Tier 1".into(), "0.98".into()],
                vec!["L Access".into(), "0.91".into()],
            ],
        );
        assert!(t.contains("== Demo =="));
        assert!(t.contains("Tier 1"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }
}

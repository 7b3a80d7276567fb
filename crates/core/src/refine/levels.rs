//! Wavefront levels: the router sweep's dependency order.
//!
//! During a router sweep (§6.1), annotating IR *i* reads only the state of
//! IRs reachable through *i*'s links (`state.router` of the subsequent
//! router, `state.iface` of the subsequent interface). The serial sweep is
//! Gauss-Seidel: IRs are processed in ascending index order, and a read of
//! a *lower*-indexed mid-path IR sees the value written earlier in the same
//! sweep. Those "reads new value" edges always point from a lower index to
//! a higher one, so they form a DAG, and scheduling IRs by longest-path
//! depth (**wavefront levels**) exposes the sweep's parallelism: all IRs in
//! one level can be annotated concurrently while reproducing the serial
//! sweep bit for bit (reads of higher-indexed IRs go to the pre-sweep
//! snapshot either way — see `refine::parallel`).

use crate::graph::{Ir, IrId};

/// The wavefront levels of the mid-path IRs (those with outgoing links):
/// `levels[d]` holds, ascending, the IRs whose longest same-sweep
/// dependency chain has depth `d`. Concatenated, the levels contain every
/// mid-path IR exactly once, and every same-sweep dependency of an IR sits
/// in a strictly lower level.
pub fn wavefront_levels(irs: &[Ir], iface_ir: &[IrId]) -> Vec<Vec<u32>> {
    // depth(i) = 1 + max depth over same-sweep dependencies (mid-path link
    // destinations with a lower index). Ascending order means every
    // dependency is resolved before use.
    let mut depth = vec![0u32; irs.len()];
    let mut levels: Vec<Vec<u32>> = Vec::new();
    for ir in irs {
        if ir.links.is_empty() {
            continue;
        }
        let i = ir.id.0;
        let mut d = 0;
        for link in &ir.links {
            let jr = iface_ir[link.dst.0 as usize].0;
            if jr < i && !irs[jr as usize].links.is_empty() {
                d = d.max(depth[jr as usize] + 1);
            }
        }
        depth[i as usize] = d;
        if levels.len() <= d as usize {
            levels.resize(d as usize + 1, Vec::new());
        }
        levels[d as usize].push(i);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{IfIdx, Link, LinkLabel};
    use std::collections::BTreeSet;

    /// Builds `n` IRs each owning one interface, wired by `edges`
    /// (src IR → dst IR, through the dst IR's interface).
    fn levels_of(n: u32, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut irs: Vec<Ir> = (0..n)
            .map(|i| Ir {
                id: IrId(i),
                ifaces: vec![IfIdx(i)],
                links: Vec::new(),
                origins: BTreeSet::new(),
                dests: BTreeSet::new(),
            })
            .collect();
        for &(src, dst) in edges {
            irs[src as usize].links.push(Link {
                dst: IfIdx(dst),
                label: LinkLabel::Nexthop,
                origins: BTreeSet::new(),
                dests: BTreeSet::new(),
            });
        }
        let iface_ir: Vec<IrId> = (0..n).map(IrId).collect();
        wavefront_levels(&irs, &iface_ir)
    }

    #[test]
    fn levels_partition_mid_path_and_respect_dependencies() {
        // 0→1→2→3 chain plus 1→0 back-edge: mid-path IRs are 0,1,2.
        // Same-sweep dependencies point at *lower-indexed mid-path* IRs
        // only: 0 reads nothing below it (depth 0); 1 reads 0 via the
        // back-edge (depth 1); 2 reads only IR 3, which is higher-indexed
        // and not mid-path (depth 0).
        let levels = levels_of(4, &[(0, 1), (1, 2), (2, 3), (1, 0)]);
        assert_eq!(levels, vec![vec![0, 2], vec![1]]);
        // Destination-only IRs (3) are in no level.
        let mut flat: Vec<u32> = levels.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(flat, vec![0, 1, 2]);
    }

    #[test]
    fn wide_level_for_independent_irs() {
        // 1..=4 all link only to 0, which has no links of its own: no
        // mid-path IR reads another, so all sit in level 0.
        let levels = levels_of(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        assert_eq!(levels, vec![vec![1, 2, 3, 4]]);
    }
}

//! Compiled intra-domain forwarding: one predecessor table per AS.
//!
//! Forwarding inside an AS follows a breadth-first search over the internal
//! adjacency, neighbours visited in ascending router id, first discovery
//! winning. Rather than search once per AS crossing, every AS's table holds
//! the full BFS tree from each of its routers: for every `(from, to)` pair,
//! the predecessor of `to` on the path from `from` and the interface of `to`
//! facing that predecessor (the probe's ingress). A full tree records the
//! same predecessors as a search that stops at `to`, since a node's
//! predecessor is fixed the moment it is discovered. The path `from → to`
//! is the predecessor chain read back from `to`.
//!
//! Tables are indexed by dense AS-local router positions (the AS's router
//! list is ascending, so local order is id order). Every AS's table is
//! built at generation; a topology event rebuilds only its AS's table
//! (see [`crate::routers::RouterTopology::fail_internal_link`] and
//! siblings).

use crate::routers::RouterTopology;
use crate::{IfaceId, RouterId};

/// Marks an unreachable cell's predecessor or a missing ingress interface.
const NONE: u32 = u32::MAX;

/// One `(from, to)` entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    /// Local index of `to`'s predecessor on the path from `from` (`from`
    /// itself on the diagonal, [`NONE`] when unreachable).
    pred: u32,
    /// Interface on `to` facing `pred`, or [`NONE`].
    ingress: u32,
}

/// Every AS's table, plus each router's place in them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Plane {
    /// Per router id: `(table index, local index)`.
    slot: Vec<(u32, u32)>,
    /// One table per AS, in ascending ASN order.
    tables: Vec<AsTable>,
}

impl Plane {
    /// Compiles every AS's table.
    pub(crate) fn compile(topo: &RouterTopology) -> Plane {
        let mut plane = Plane::default();
        for routers in topo.as_routers.values() {
            let t = plane.tables.len() as u32;
            plane.tables.push(AsTable::default());
            plane.install(t, AsTable::compile(topo, routers), topo.router_count());
        }
        plane
    }

    /// The table index of the AS `router` belongs to.
    pub(crate) fn table_of(&self, router: RouterId) -> u32 {
        self.slot[router.0 as usize].0
    }

    /// Replaces table `t` and points its routers' slots at it; `routers` is
    /// the topology's router count.
    pub(crate) fn install(&mut self, t: u32, table: AsTable, routers: usize) {
        self.slot.resize(routers, (NONE, NONE));
        for (i, r) in table.routers.iter().enumerate() {
            self.slot[r.0 as usize] = (t, i as u32);
        }
        self.tables[t as usize] = table;
    }

    /// The internal path `from → to`, last hop first (see
    /// [`AsTable::walk_back`]); `None` across ASes or when unreachable.
    pub(crate) fn walk_back(&self, from: RouterId, to: RouterId) -> Option<WalkBack<'_>> {
        let (tf, lf) = self.slot[from.0 as usize];
        let (tt, lt) = self.slot[to.0 as usize];
        if tf != tt {
            return None;
        }
        self.tables[tf as usize].walk_back(lf, lt)
    }
}

/// One AS's table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AsTable {
    /// The AS's routers, ascending; a router's local index is its position.
    routers: Vec<RouterId>,
    /// Row-major `routers.len()²` cells, row `from`, column `to`.
    cells: Vec<Cell>,
}

impl AsTable {
    /// Compiles the table of the AS whose (ascending) router list is
    /// `routers`.
    pub(crate) fn compile(topo: &RouterTopology, routers: &[RouterId]) -> AsTable {
        let n = routers.len();
        let local = |r: RouterId| -> u32 {
            routers
                .binary_search(&r)
                .expect("internal neighbour belongs to the same AS") as u32
        };
        // Directed edges `cur → nb` with the interface on `nb` facing `cur`,
        // neighbours ascending: the BFS visit order.
        let adj: Vec<Vec<(u32, u32)>> = routers
            .iter()
            .map(|&cur| {
                let mut edges: Vec<(u32, u32)> = topo.internal_adj[cur.0 as usize]
                    .iter()
                    .map(|&nb| (local(nb), ingress_facing(topo, nb, cur)))
                    .collect();
                edges.sort_unstable();
                edges
            })
            .collect();
        let mut cells = vec![
            Cell {
                pred: NONE,
                ingress: NONE
            };
            n * n
        ];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for (from, row) in cells.chunks_exact_mut(n.max(1)).enumerate() {
            row[from].pred = from as u32;
            queue.clear();
            queue.push(from as u32);
            let mut head = 0;
            while let Some(&cur) = queue.get(head) {
                head += 1;
                for &(nb, ingress) in &adj[cur as usize] {
                    let cell = &mut row[nb as usize];
                    if cell.pred == NONE {
                        *cell = Cell { pred: cur, ingress };
                        queue.push(nb);
                    }
                }
            }
        }
        AsTable {
            routers: routers.to_vec(),
            cells,
        }
    }

    /// The internal path `from → to` (local indices) read back from `to`:
    /// `(router, ingress)` for every hop after `from`, last hop first.
    /// `None` when `to` is unreachable from `from`.
    fn walk_back(&self, from: u32, to: u32) -> Option<WalkBack<'_>> {
        let row = &self.cells[from as usize * self.routers.len()..][..self.routers.len()];
        (row[to as usize].pred != NONE).then_some(WalkBack {
            table: self,
            row,
            from,
            cur: to,
        })
    }
}

/// The first interface on `router` whose link peer sits on `toward`.
fn ingress_facing(topo: &RouterTopology, router: RouterId, toward: RouterId) -> u32 {
    topo.router(router)
        .ifaces
        .iter()
        .copied()
        .find(|&i| {
            topo.iface(i)
                .neighbor
                .is_some_and(|n| topo.iface(n).router == toward)
        })
        .map_or(NONE, |i| i.0)
}

/// Iterator over an internal path's hops, last hop first (see
/// [`AsTable::walk_back`]).
pub(crate) struct WalkBack<'a> {
    table: &'a AsTable,
    row: &'a [Cell],
    from: u32,
    cur: u32,
}

impl Iterator for WalkBack<'_> {
    type Item = (RouterId, Option<IfaceId>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == self.from {
            return None;
        }
        let cell = self.row[self.cur as usize];
        let hop = (
            self.table.routers[self.cur as usize],
            (cell.ingress != NONE).then_some(IfaceId(cell.ingress)),
        );
        self.cur = cell.pred;
        Some(hop)
    }
}

#[cfg(test)]
mod tests {
    use crate::{GeneratorConfig, Internet, RouterId, TopologyEvent};
    use net_types::Asn;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// The search the tables replace, kept as their oracle: a BFS from
    /// `from` that sorts each visited router's neighbours and stops when it
    /// discovers `to`.
    fn bfs_path(net: &Internet, from: RouterId, to: RouterId) -> Option<Vec<RouterId>> {
        let adj = &net.topology.internal_adj;
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: BTreeMap<RouterId, RouterId> = BTreeMap::from([(from, from)]);
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            let mut neighbors = adj[cur.0 as usize].clone();
            neighbors.sort_unstable();
            for n in neighbors {
                if prev.contains_key(&n) {
                    continue;
                }
                prev.insert(n, cur);
                if n == to {
                    let mut path = vec![to];
                    let mut c = to;
                    while c != from {
                        c = prev[&c];
                        path.push(c);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(n);
            }
        }
        None
    }

    /// Asserts every compiled table (intra-domain plane and route trees)
    /// equals one compiled from scratch off the current topology, and that
    /// every router pair of each AS in `ases` forwards along the oracle
    /// path with oracle ingress interfaces.
    fn assert_fresh(net: &Internet, ases: &BTreeSet<Asn>) {
        let topo = &net.topology;
        assert_eq!(
            topo.plane,
            super::Plane::compile(topo),
            "stale intra-domain table"
        );
        let fresh = crate::routing::Routing::new(
            net.graph.relationships.clone(),
            net.addressing.announce_via.clone(),
        );
        for asn in net.graph.nodes.keys() {
            assert_eq!(net.routing.tree(*asn), fresh.tree(*asn), "stale tree {asn}");
        }
        for asn in ases {
            let routers = &topo.as_routers[asn];
            for &from in routers {
                for &to in routers {
                    let oracle = bfs_path(net, from, to).expect("AS is connected");
                    assert_eq!(topo.internal_path(from, to), Some(oracle.clone()));
                    let mut hops = Vec::new();
                    net.extend_internal(&mut hops, from, to);
                    assert_eq!(hops.len() + 1, oracle.len());
                    for (h, w) in hops.iter().zip(oracle.windows(2)) {
                        assert_eq!(h.router, w[1]);
                        let ingress = h.ingress.expect("internal hop has an ingress");
                        assert_eq!(topo.iface(ingress).router, w[1]);
                        let peer = topo.iface(ingress).neighbor.expect("p2p link");
                        assert_eq!(topo.iface(peer).router, w[0]);
                    }
                }
            }
        }
    }

    /// Applies one event of each kind, asserting after each that no table
    /// went stale and that the touched AS forwards like the oracle.
    fn sweep(net: &mut Internet) {
        let all: BTreeSet<Asn> = net.graph.nodes.keys().copied().collect();
        assert_fresh(net, &all);
        let (asn, a, b) = net
            .internal_links()
            .into_iter()
            .find(|&(_, a, b)| net.topology.clone().fail_internal_link(a, b))
            .expect("a removable internal link");
        let attach = net.topology.as_routers[&asn][0];
        let multi = net
            .graph
            .relationships
            .ases()
            .into_iter()
            .find(|&x| net.graph.relationships.providers_of(x).count() >= 2)
            .expect("a multi-homed AS");
        for ev in [
            TopologyEvent::LinkDown { asn, a, b },
            TopologyEvent::LinkUp { asn, a, b },
            TopologyEvent::RouterAdd { asn, attach },
            TopologyEvent::RouterAdd { asn, attach },
            TopologyEvent::LinkDown { asn, a, b },
            TopologyEvent::Reannounce { asn: multi },
        ] {
            let out = net.apply_event(&ev);
            assert!(out.applied, "{}", ev.describe());
            assert_fresh(net, &out.touched);
        }
    }

    #[test]
    fn tables_match_a_fresh_compile_and_the_bfs_oracle_after_events() {
        for seed in [1, 2, 3] {
            sweep(&mut Internet::generate(GeneratorConfig::tiny(seed)));
        }
    }

    /// The same sweep at ITDK scale, all pairs of every AS (release mode;
    /// CI runs it with `--include-ignored`).
    #[test]
    #[ignore = "ITDK scale; run in release mode"]
    fn tables_match_the_bfs_oracle_at_itdk_scale() {
        sweep(&mut Internet::generate(GeneratorConfig::itdk_scale(1)));
    }
}

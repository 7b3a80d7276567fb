//! Gao-Rexford AS-level routing.
//!
//! Routes propagate the way BGP export policies make them propagate:
//!
//! * an AS exports its own prefixes (and routes learned from customers) to
//!   everyone — customers, peers, providers;
//! * routes learned from peers or providers are exported *only to
//!   customers*.
//!
//! Selection prefers customer routes over peer routes over provider routes,
//! then shortest AS path, then lowest next-hop ASN — all deterministic. The
//! resulting per-destination next-hop trees drive both the traceroute
//! forwarding plane and the synthetic route-collector RIB, so data and
//! control plane agree by construction (modulo the deliberate reallocation
//! pathologies layered on top by [`crate::Internet`]).
//!
//! `announce_via` restrictions model selective announcement: a customer that
//! announces its block through only one of its providers (the reallocation
//! scenario of §4.4 needs the provider–customer adjacency invisible in BGP).

use as_rel::AsRelationships;
use net_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// How an AS learned its best route toward a destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RouteClass {
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider (least preferred).
    Provider,
    /// The destination itself.
    Origin,
}

/// One AS's routing entry toward a destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Next-hop AS (self for the origin).
    pub next: Asn,
    /// AS-path length to the destination.
    pub dist: u32,
    /// Preference class of the selected route.
    pub class: RouteClass,
}

/// A per-destination routing tree: every AS's selected route.
pub type RouteTree = BTreeMap<Asn, RouteEntry>;

/// The routing oracle: computes and caches per-destination route trees.
///
/// Every AS of the relationship graph owns one write-once tree slot, fixed
/// at construction. A tree is computed on first use and immutable after, so
/// readers share it without a lock.
#[derive(Debug)]
pub struct Routing {
    rels: AsRelationships,
    announce_via: BTreeMap<Asn, Vec<Asn>>,
    trees: BTreeMap<Asn, OnceLock<RouteTree>>,
}

impl Routing {
    /// Creates the oracle from ground-truth relationships and selective
    /// announcement restrictions.
    pub fn new(rels: AsRelationships, announce_via: BTreeMap<Asn, Vec<Asn>>) -> Self {
        let trees = rels
            .ases()
            .into_iter()
            .chain(announce_via.keys().copied())
            .map(|a| (a, OnceLock::new()))
            .collect();
        Routing {
            rels,
            announce_via,
            trees,
        }
    }

    /// The relationships this oracle routes over.
    pub fn relationships(&self) -> &AsRelationships {
        &self.rels
    }

    /// The routing tree toward destination AS `dst` (computed once, then
    /// shared); `None` for an AS outside the relationship graph, which no
    /// other AS can reach.
    pub fn tree(&self, dst: Asn) -> Option<&RouteTree> {
        let slot = self.trees.get(&dst)?;
        Some(slot.get_or_init(|| self.compute_tree(dst)))
    }

    fn compute_tree(&self, dst: Asn) -> RouteTree {
        let mut tree: RouteTree = BTreeMap::new();
        tree.insert(
            dst,
            RouteEntry {
                next: dst,
                dist: 0,
                class: RouteClass::Origin,
            },
        );

        // ---- Phase A: customer routes climb provider edges ----
        // Deterministic Dijkstra with unit weights: process (dist, asn) in
        // ascending order so ties resolve toward the lowest ASN.
        let mut frontier: BTreeSet<(u32, Asn)> = BTreeSet::from([(0, dst)]);
        while let Some(&(d, u)) = frontier.iter().next() {
            frontier.remove(&(d, u));
            // Selective announcement: the origin exports only to the listed
            // providers (if restricted).
            let providers: Vec<Asn> = if u == dst {
                match self.announce_via.get(&dst) {
                    Some(via) => via.clone(),
                    None => self.rels.providers_of(u).collect(),
                }
            } else {
                self.rels.providers_of(u).collect()
            };
            for p in providers {
                if let std::collections::btree_map::Entry::Vacant(e) = tree.entry(p) {
                    e.insert(RouteEntry {
                        next: u,
                        dist: d + 1,
                        class: RouteClass::Customer,
                    });
                    frontier.insert((d + 1, p));
                }
            }
        }

        // ---- Phase B: peer routes, one hop off the customer tree ----
        let customer_routed: Vec<(Asn, u32)> = tree.iter().map(|(&a, e)| (a, e.dist)).collect();
        let mut peer_routes: Vec<(Asn, RouteEntry)> = Vec::new();
        for &(a, d) in &customer_routed {
            for peer in self.rels.peers_of(a) {
                if !tree.contains_key(&peer) {
                    peer_routes.push((
                        peer,
                        RouteEntry {
                            next: a,
                            dist: d + 1,
                            class: RouteClass::Peer,
                        },
                    ));
                }
            }
        }
        // An AS with several peer offers takes the shortest, ties to lowest
        // next-hop ASN.
        peer_routes.sort_by_key(|&(peer, e)| (peer, e.dist, e.next));
        for (peer, entry) in peer_routes {
            tree.entry(peer).or_insert(entry);
        }

        // ---- Phase C: provider routes flood down p2c edges ----
        let mut frontier: BTreeSet<(u32, Asn)> = tree.iter().map(|(&a, e)| (e.dist, a)).collect();
        while let Some(&(d, u)) = frontier.iter().next() {
            frontier.remove(&(d, u));
            // Skip if u's recorded route got replaced by a shorter one (we
            // never replace, so dist is stable; this is just defensive).
            for c in self.rels.customers_of(u) {
                if let std::collections::btree_map::Entry::Vacant(e) = tree.entry(c) {
                    e.insert(RouteEntry {
                        next: u,
                        dist: d + 1,
                        class: RouteClass::Provider,
                    });
                    frontier.insert((d + 1, c));
                }
            }
        }

        tree
    }

    /// The AS path from `src` to `dst` (inclusive), or `None` if `src` has
    /// no route.
    pub fn as_path(&self, src: Asn, dst: Asn) -> Option<Vec<Asn>> {
        let mut path = vec![src];
        walk(self.tree(dst), src, dst, |_, next| path.push(next))?;
        Some(path)
    }

    /// Number of computed trees (for tests / diagnostics).
    pub fn cached_trees(&self) -> usize {
        self.trees.values().filter(|t| t.get().is_some()).count()
    }
}

/// Walks `tree` (the route tree toward `dst`, if any) from `src`, calling
/// `step(here, next)` for every AS-level hop. Returns `None` when `src` has
/// no route; the visited prefix of the walk is then meaningless.
pub(crate) fn walk(
    tree: Option<&RouteTree>,
    src: Asn,
    dst: Asn,
    mut step: impl FnMut(Asn, Asn),
) -> Option<()> {
    let mut cur = src;
    for _ in 0..64 {
        if cur == dst {
            return Some(());
        }
        let next = tree?.get(&cur)?.next;
        step(cur, next);
        cur = next;
    }
    None // routing loop guard; unreachable by construction
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rel::valley_free;

    /// 1 ─peer─ 2 ; 3 customer of 1 ; 4 customer of 2 ; 5 customer of 3 and 4.
    fn rels() -> AsRelationships {
        let mut r = AsRelationships::new();
        r.add_p2p(Asn(1), Asn(2));
        r.add_p2c(Asn(1), Asn(3));
        r.add_p2c(Asn(2), Asn(4));
        r.add_p2c(Asn(3), Asn(5));
        r.add_p2c(Asn(4), Asn(5));
        r
    }

    #[test]
    fn prefers_customer_routes() {
        let routing = Routing::new(rels(), BTreeMap::new());
        // 3 reaches 5 via its customer directly, never via 1.
        assert_eq!(routing.as_path(Asn(3), Asn(5)), Some(vec![Asn(3), Asn(5)]));
        // 1 reaches 5 via customer 3 (customer route), not peer 2.
        assert_eq!(
            routing.as_path(Asn(1), Asn(5)),
            Some(vec![Asn(1), Asn(3), Asn(5)])
        );
    }

    #[test]
    fn peer_routes_used_when_no_customer_route() {
        let routing = Routing::new(rels(), BTreeMap::new());
        // 3 → 4: no customer path (5 doesn't transit!), so 3 climbs to 1,
        // peers to 2, descends to 4.
        assert_eq!(
            routing.as_path(Asn(3), Asn(4)),
            Some(vec![Asn(3), Asn(1), Asn(2), Asn(4)])
        );
    }

    #[test]
    fn paths_are_valley_free() {
        let r = rels();
        let routing = Routing::new(r.clone(), BTreeMap::new());
        for src in [1u32, 2, 3, 4, 5] {
            for dst in [1u32, 2, 3, 4, 5] {
                let path = routing.as_path(Asn(src), Asn(dst)).unwrap();
                assert!(
                    valley_free(&r, &path),
                    "path {path:?} from {src} to {dst} has a valley"
                );
            }
        }
    }

    #[test]
    fn customers_never_transit() {
        let routing = Routing::new(rels(), BTreeMap::new());
        // Route from 3 to 4 must not pass through their shared customer 5.
        let path = routing.as_path(Asn(3), Asn(4)).unwrap();
        assert!(!path[1..path.len() - 1].contains(&Asn(5)));
    }

    #[test]
    fn announce_via_restriction_respected() {
        // 5 announces only via 4: 3 must now route 3→1→2→4→5.
        let via = BTreeMap::from([(Asn(5), vec![Asn(4)])]);
        let routing = Routing::new(rels(), via);
        assert_eq!(
            routing.as_path(Asn(3), Asn(5)),
            Some(vec![Asn(3), Asn(1), Asn(2), Asn(4), Asn(5)])
        );
        // ...even though 3 is directly connected to 5, it holds no customer
        // route (5 withheld the announcement).
        let tree = routing.tree(Asn(5)).unwrap();
        assert_ne!(tree[&Asn(3)].class, RouteClass::Customer);
    }

    #[test]
    fn tree_caching() {
        let routing = Routing::new(rels(), BTreeMap::new());
        assert_eq!(routing.cached_trees(), 0);
        let t1 = routing.tree(Asn(5)).unwrap();
        let t2 = routing.tree(Asn(5)).unwrap();
        assert!(std::ptr::eq(t1, t2));
        assert_eq!(routing.cached_trees(), 1);
    }

    #[test]
    fn unreachable_when_no_relationship_graph() {
        let routing = Routing::new(AsRelationships::new(), BTreeMap::new());
        // src == dst is trivially reachable.
        assert_eq!(routing.as_path(Asn(9), Asn(9)), Some(vec![Asn(9)]));
        assert_eq!(routing.as_path(Asn(8), Asn(9)), None);
        assert!(routing.tree(Asn(9)).is_none());
    }

    #[test]
    fn dist_monotone_along_path() {
        let routing = Routing::new(rels(), BTreeMap::new());
        let tree = routing.tree(Asn(5)).unwrap();
        for (&asn, entry) in tree {
            if asn == Asn(5) {
                assert_eq!(entry.dist, 0);
                continue;
            }
            let next_entry = &tree[&entry.next];
            assert_eq!(entry.dist, next_entry.dist + 1);
        }
    }
}

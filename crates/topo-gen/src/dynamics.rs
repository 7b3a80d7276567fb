//! Topology dynamics: the event vocabulary for churn simulation.
//!
//! A generated [`Internet`] is immutable under the original pipeline; the
//! churn workload (crates/churn) steps it through epochs by applying
//! [`TopologyEvent`]s. Every event is deterministic — applying the same
//! event sequence to the same topology always yields the same mutated
//! topology — and each application reports which ASes it *touched* so the
//! incremental pipeline can limit re-probing to the affected slice (see
//! DESIGN.md §16).
//!
//! Event semantics:
//!
//! * **Link failure/recovery** edits the internal adjacency of one AS only.
//!   The failed link's interfaces remain registered (their addresses still
//!   answer probes — a down link does not unnumber a router); forwarding
//!   simply routes around the adjacency. Failures that would disconnect the
//!   AS's internal topology are refused, because route expansion assumes
//!   internal connectivity.
//! * **Router addition** appends one router (all response-behaviour
//!   pathologies off) with a router-id interface and a point-to-point link
//!   to an existing router of the same AS, numbered from the first free
//!   addresses of the AS's infrastructure region. It touches only the
//!   owning AS — but note `router_for_addr` hashes host addresses over the
//!   AS's router list, so *every* path terminating in that AS's space may
//!   shift.
//! * **Prefix reannouncement** rotates which provider a multi-homed AS
//!   announces through (`announce_via`) and rebuilds the routing oracle.
//!   This changes BGP paths globally, so it reports `rib_changed` and the
//!   caller must rebuild the RIB-derived inputs.

use crate::{Internet, RouterId};
use net_types::Asn;
use std::collections::BTreeSet;

/// One timed topology mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyEvent {
    /// Fail the internal link between two routers of `asn`.
    LinkDown {
        /// Owning AS.
        asn: Asn,
        /// One endpoint.
        a: RouterId,
        /// The other endpoint.
        b: RouterId,
    },
    /// Recover a previously failed internal link.
    LinkUp {
        /// Owning AS.
        asn: Asn,
        /// One endpoint.
        a: RouterId,
        /// The other endpoint.
        b: RouterId,
    },
    /// Add a router to `asn`, linked to `attach`.
    RouterAdd {
        /// Owning AS.
        asn: Asn,
        /// Existing router of `asn` the new one connects to.
        attach: RouterId,
    },
    /// Rotate the provider `asn` announces its prefix through.
    Reannounce {
        /// The reannouncing AS (must have at least two providers to apply).
        asn: Asn,
    },
}

impl TopologyEvent {
    /// Compact display form for logs and the churn report.
    pub fn describe(&self) -> String {
        match *self {
            TopologyEvent::LinkDown { asn, a, b } => {
                format!("link-down AS{} r{}-r{}", asn.0, a.0, b.0)
            }
            TopologyEvent::LinkUp { asn, a, b } => {
                format!("link-up AS{} r{}-r{}", asn.0, a.0, b.0)
            }
            TopologyEvent::RouterAdd { asn, attach } => {
                format!("router-add AS{} @r{}", asn.0, attach.0)
            }
            TopologyEvent::Reannounce { asn } => format!("reannounce AS{}", asn.0),
        }
    }
}

/// What applying one event did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventOutcome {
    /// Whether the event took effect. Events are *skipped* (deterministically)
    /// when preconditions fail: a link failure that would disconnect an AS, a
    /// recovery of a link that is up, a router addition with an exhausted
    /// address region, a reannouncement by an AS without two providers.
    pub applied: bool,
    /// ASes whose forwarding behaviour may have changed. A traceroute path
    /// can only change if it traverses (or terminates in) a touched AS.
    pub touched: BTreeSet<Asn>,
    /// The event changed interdomain routing: every BGP-derived input (RIB,
    /// IP→AS, inferred relationships) must be rebuilt, and every path is
    /// suspect.
    pub rib_changed: bool,
}

impl EventOutcome {
    fn skipped() -> EventOutcome {
        EventOutcome::default()
    }

    fn local(asn: Asn) -> EventOutcome {
        EventOutcome {
            applied: true,
            touched: BTreeSet::from([asn]),
            rib_changed: false,
        }
    }
}

impl Internet {
    /// Applies one topology event in place. Deterministic: outcome and
    /// mutated state depend only on the current topology and the event.
    pub fn apply_event(&mut self, ev: &TopologyEvent) -> EventOutcome {
        match *ev {
            TopologyEvent::LinkDown { asn, a, b } => {
                if self.topology.owner(a) != asn || self.topology.owner(b) != asn {
                    return EventOutcome::skipped();
                }
                if self.topology.fail_internal_link(a, b) {
                    EventOutcome::local(asn)
                } else {
                    EventOutcome::skipped()
                }
            }
            TopologyEvent::LinkUp { asn, a, b } => {
                if self.topology.owner(a) != asn || self.topology.owner(b) != asn {
                    return EventOutcome::skipped();
                }
                if self.topology.restore_internal_link(a, b) {
                    EventOutcome::local(asn)
                } else {
                    EventOutcome::skipped()
                }
            }
            TopologyEvent::RouterAdd { asn, attach } => {
                if self.topology.owner(attach) != asn {
                    return EventOutcome::skipped();
                }
                let Some(addrs) = self.carve_router_addrs(asn) else {
                    return EventOutcome::skipped(); // region exhausted
                };
                self.topology.add_router(asn, attach, addrs);
                EventOutcome::local(asn)
            }
            TopologyEvent::Reannounce { asn } => {
                let providers: Vec<Asn> = {
                    let mut p: Vec<Asn> = self.graph.relationships.providers_of(asn).collect();
                    p.sort_unstable();
                    p
                };
                if providers.len() < 2 {
                    return EventOutcome::skipped();
                }
                let via = self.addressing.announce_via.entry(asn).or_default();
                let next = match via.as_slice() {
                    // Previously announcing through all providers: restrict
                    // to the first.
                    [] => providers[0],
                    // Rotate to the next provider in ASN order.
                    [cur, ..] => {
                        let i = providers.iter().position(|p| p == cur).unwrap_or(0);
                        providers[(i + 1) % providers.len()]
                    }
                };
                *via = vec![next];
                // A fresh oracle drops every cached route tree.
                self.routing = crate::routing::Routing::new(
                    self.graph.relationships.clone(),
                    self.addressing.announce_via.clone(),
                );
                EventOutcome {
                    applied: true,
                    touched: BTreeSet::from([asn]),
                    rib_changed: true,
                }
            }
        }
    }

    /// Every internal link as `(owner, a, b)` with `a < b`, sorted — the
    /// candidate set for link failure events.
    pub fn internal_links(&self) -> Vec<(Asn, RouterId, RouterId)> {
        let mut out = Vec::new();
        for r in &self.topology.routers {
            for &n in &self.topology.internal_adj[r.id.0 as usize] {
                if r.id < n {
                    out.push((r.owner, r.id, n));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Carves three fresh infrastructure addresses for a router addition:
    /// `[router-id, p2p low, p2p high]`, continuing past the highest address
    /// the generator (or an earlier addition) used in the AS's infrastructure
    /// region, with the pair /31-aligned like every generated p2p link.
    /// `None` when the region cannot fit them (the event is then skipped).
    fn carve_router_addrs(&self, asn: Asn) -> Option<[u32; 3]> {
        let region = self.addressing.infra_pool(asn).region();
        // Reallocated /24s are carved from the top of the same upper-half
        // region; never grow into them.
        let ceiling: u64 = self
            .addressing
            .reallocs
            .iter()
            .filter(|r| r.prefix.len() > region.len() && region.contains(r.prefix.addr()))
            .map(|r| u64::from(r.prefix.addr()))
            .min()
            .unwrap_or(u64::from(region.last_addr()) + 1);
        let used_max = self
            .topology
            .addr_to_iface
            .range(region.addr()..)
            .map(|(&a, _)| u64::from(a))
            .rev()
            .find(|&a| a < ceiling);
        let rid = used_max.map_or(u64::from(region.addr()), |m| m + 1);
        // /31-align the p2p pair (an odd leading address is burned, exactly
        // like `AddrPool::take_p2p_pair`).
        let lo = (rid + 1).next_multiple_of(2);
        if lo + 1 >= ceiling {
            return None;
        }
        Some([rid as u32, lo as u32, (lo + 1) as u32])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneratorConfig;

    fn net(seed: u64) -> Internet {
        Internet::generate(GeneratorConfig::tiny(seed))
    }

    /// A removable link: one whose failure keeps its AS connected.
    fn removable(net: &Internet) -> (Asn, RouterId, RouterId) {
        for (asn, a, b) in net.internal_links() {
            let mut probe = net.topology.clone();
            if probe.fail_internal_link(a, b) {
                return (asn, a, b);
            }
        }
        panic!("no removable link in tiny topology");
    }

    #[test]
    fn link_down_then_up_restores_adjacency() {
        let mut n = net(1);
        let (asn, a, b) = removable(&n);
        let before = n.topology.internal_adj.clone();
        let down = n.apply_event(&TopologyEvent::LinkDown { asn, a, b });
        assert!(down.applied);
        assert_eq!(down.touched, BTreeSet::from([asn]));
        assert!(!down.rib_changed);
        assert!(!n.topology.internal_adj[a.0 as usize].contains(&b));
        // The interfaces survive the failure.
        assert!(n.topology.routers[a.0 as usize].ifaces.iter().any(|&i| n
            .topology
            .iface(i)
            .neighbor
            .is_some_and(|x| n.topology.iface(x).router == b)));
        let up = n.apply_event(&TopologyEvent::LinkUp { asn, a, b });
        assert!(up.applied);
        let mut after = n.topology.internal_adj.clone();
        // Restore appends; compare as sets.
        for (x, y) in before.iter().zip(after.iter_mut()) {
            y.sort_unstable();
            let mut x = x.clone();
            x.sort_unstable();
            assert_eq!(&x, y);
        }
    }

    #[test]
    fn disconnecting_failure_is_skipped() {
        let mut n = net(2);
        // Find a bridge: fail links until one is refused, or verify every
        // AS stays connected after every applied failure.
        let links = n.internal_links();
        for (asn, a, b) in links {
            let out = n.apply_event(&TopologyEvent::LinkDown { asn, a, b });
            if out.applied {
                let routers = n.topology.as_routers[&asn].clone();
                for &r in &routers[1..] {
                    assert!(
                        n.topology.internal_path(routers[0], r).is_some(),
                        "AS{} disconnected after applied failure",
                        asn.0
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_and_bogus_events_are_skipped() {
        let mut n = net(3);
        let (asn, a, b) = removable(&n);
        assert!(
            n.apply_event(&TopologyEvent::LinkDown { asn, a, b })
                .applied
        );
        // Same link again: no adjacency left to fail.
        assert!(
            !n.apply_event(&TopologyEvent::LinkDown { asn, a, b })
                .applied
        );
        // Recovering an up link is a no-op too.
        assert!(n.apply_event(&TopologyEvent::LinkUp { asn, a, b }).applied);
        assert!(!n.apply_event(&TopologyEvent::LinkUp { asn, a, b }).applied);
        // Wrong-AS endpoints are refused.
        let other = n
            .topology
            .routers
            .iter()
            .find(|r| r.owner != asn)
            .expect("second AS")
            .id;
        assert!(
            !n.apply_event(&TopologyEvent::LinkDown { asn, a, b: other })
                .applied
        );
    }

    #[test]
    fn router_add_extends_topology_consistently() {
        let mut n = net(4);
        let asn = *n.topology.as_routers.keys().next().unwrap();
        let attach = n.topology.as_routers[&asn][0];
        let routers_before = n.topology.router_count();
        let ifaces_before = n.topology.iface_count();
        let out = n.apply_event(&TopologyEvent::RouterAdd { asn, attach });
        assert!(out.applied);
        assert_eq!(n.topology.router_count(), routers_before + 1);
        assert_eq!(n.topology.iface_count(), ifaces_before + 3);
        // Address uniqueness and link symmetry still hold.
        assert_eq!(n.topology.addr_to_iface.len(), n.topology.iface_count());
        let new = n.topology.routers.last().unwrap();
        assert_eq!(new.owner, asn);
        assert!(!new.silent && !new.egress_reply && !new.echo_offpath);
        assert!(n.topology.internal_path(attach, new.id).is_some());
        // New addresses live in the AS's announced space.
        for &i in &new.ifaces {
            assert_eq!(n.bgp_origin(n.topology.iface(i).addr), Some(asn));
        }
    }

    #[test]
    fn reannounce_rotates_and_rebuilds_routing() {
        let mut n = net(5);
        let multi = n
            .graph
            .relationships
            .ases()
            .into_iter()
            .find(|&a| n.graph.relationships.providers_of(a).count() >= 2)
            .expect("tiny topology has a multi-homed AS");
        let out = n.apply_event(&TopologyEvent::Reannounce { asn: multi });
        assert!(out.applied && out.rib_changed);
        let first = n.addressing.announce_via[&multi].clone();
        assert_eq!(first.len(), 1);
        // Applying again rotates to a different provider.
        let out = n.apply_event(&TopologyEvent::Reannounce { asn: multi });
        assert!(out.applied);
        assert_ne!(n.addressing.announce_via[&multi], first);
        // Routes still exist to the reannounced AS from elsewhere.
        let other = n
            .graph
            .relationships
            .ases()
            .into_iter()
            .find(|&a| a != multi)
            .unwrap();
        assert!(n.routing.as_path(other, multi).is_some());
    }

    #[test]
    fn single_homed_reannounce_is_skipped() {
        let mut n = net(6);
        if let Some(single) = n
            .graph
            .relationships
            .ases()
            .into_iter()
            .find(|&a| n.graph.relationships.providers_of(a).count() < 2)
        {
            assert!(
                !n.apply_event(&TopologyEvent::Reannounce { asn: single })
                    .applied
            );
        }
    }

    #[test]
    fn events_are_deterministic() {
        let seq = |mut n: Internet| {
            let (asn, a, b) = removable(&n);
            let asn2 = *n.topology.as_routers.keys().last().unwrap();
            let attach = n.topology.as_routers[&asn2][0];
            n.apply_event(&TopologyEvent::LinkDown { asn, a, b });
            n.apply_event(&TopologyEvent::RouterAdd { asn: asn2, attach });
            serde_json::to_string(&n.topology.ifaces).unwrap()
        };
        assert_eq!(seq(net(7)), seq(net(7)));
    }
}

//! The assembled synthetic Internet.

use crate::addressing::Addressing;
use crate::asgraph::AsGraph;
use crate::routers::RouterTopology;
use crate::routing::{self, RouteTree, Routing};
use crate::{GeneratorConfig, IfaceId, RouterId, Tier, TrueLink};
use bgp::{Announcement, Rib};
use net_types::{Asn, PrefixTrie};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One hop of a forwarded probe: the router it traversed and the interface
/// it arrived on (`None` for the first hop, where the probe originates
/// inside the AS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardHop {
    /// Traversed router.
    pub router: RouterId,
    /// Ingress interface.
    pub ingress: Option<IfaceId>,
}

/// Why a forwarded probe stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The destination address is a real interface; the final hop's router
    /// carries it.
    ReachedIface(IfaceId),
    /// The probe reached the destination AS; whether a host answers at the
    /// probed address is the simulator's call.
    ReachedHostSpace {
        /// The AS whose space the address belongs to.
        asn: Asn,
    },
    /// No BGP route toward the address.
    NoRoute,
}

/// The route replies take back to one prober AS (see
/// [`Internet::return_route`]).
#[derive(Clone, Copy, Debug)]
pub struct ReturnRoute<'a> {
    vp_as: Asn,
    tree: Option<&'a RouteTree>,
}

/// A fully forwarded probe path.
#[derive(Clone, Debug)]
pub struct ForwardPath {
    /// Routers traversed, in order, starting at the source router.
    pub hops: Vec<ForwardHop>,
    /// Terminal condition.
    pub outcome: ForwardOutcome,
}

/// The assembled synthetic Internet: AS graph, addressing, router topology,
/// and routing, with forwarding-plane expansion and collector-RIB synthesis.
#[derive(Debug)]
pub struct Internet {
    /// Generator parameters.
    pub cfg: GeneratorConfig,
    /// The AS-level graph.
    pub graph: AsGraph,
    /// The addressing plan.
    pub addressing: Addressing,
    /// The router-level topology.
    pub topology: RouterTopology,
    /// The routing oracle.
    pub routing: Routing,
    announced: PrefixTrie<Asn>,
}

impl Internet {
    /// Generates the whole Internet from a config. Deterministic.
    pub fn generate(cfg: GeneratorConfig) -> Internet {
        Internet::generate_with_obs(cfg, &obs::Recorder::disabled())
    }

    /// [`Internet::generate`] under an observability span: records the
    /// `topo.generate` phase and the topology size counters. The generated
    /// Internet is bit-identical to the plain variant's.
    pub fn generate_with_obs(cfg: GeneratorConfig, rec: &obs::Recorder) -> Internet {
        let _span = rec.span(obs::names::PHASE_TOPO);
        let net = Internet::generate_inner(cfg);
        rec.add(obs::names::TOPO_ASES, net.graph.nodes.len() as u64);
        rec.add(obs::names::TOPO_ROUTERS, net.topology.routers.len() as u64);
        rec.add(obs::names::TOPO_IFACES, net.topology.ifaces.len() as u64);
        net
    }

    fn generate_inner(cfg: GeneratorConfig) -> Internet {
        let graph = AsGraph::generate(&cfg);
        let addressing = Addressing::generate(&cfg, &graph);
        let topology = RouterTopology::generate(&cfg, &graph, &addressing);
        let routing = Routing::new(graph.relationships.clone(), addressing.announce_via.clone());
        let announced = addressing.announced.iter().map(|&(p, a)| (p, a)).collect();
        Internet {
            cfg,
            graph,
            addressing,
            topology,
            routing,
            announced,
        }
    }

    /// The BGP origin for an address under the synthetic announcements
    /// (longest prefix match), if any.
    pub fn bgp_origin(&self, addr: u32) -> Option<Asn> {
        self.announced.longest_match(addr).map(|(_, &a)| a)
    }

    /// Forwards a probe from `src_router` toward `dst_addr`, expanding the
    /// AS-level route into the router-level path with per-hop ingress
    /// interfaces. A walk over the compiled tables: the route tree toward
    /// the destination AS, the IXP pair index, and each crossed AS's
    /// intra-domain table.
    pub fn forward_path(&self, src_router: RouterId, dst_addr: u32) -> ForwardPath {
        let no_route = || ForwardPath {
            hops: vec![],
            outcome: ForwardOutcome::NoRoute,
        };
        let src_as = self.topology.owner(src_router);

        // The AS the route leads to, the AS it is handed off to from there
        // (reallocated space only), the target router, and the outcome.
        let target_iface = self.topology.iface_by_addr(dst_addr).map(|i| i.id);
        let (route_dst, handoff, target_router, outcome) =
            if let Some(r) = self.addressing.realloc_covering(dst_addr) {
                // Reallocated /24: global routing follows the provider's
                // covering prefix; the provider hands off to the customer.
                let (router, outcome) = match target_iface {
                    Some(ifid)
                        if self.topology.owner(self.topology.iface(ifid).router) == r.customer =>
                    {
                        (
                            self.topology.iface(ifid).router,
                            ForwardOutcome::ReachedIface(ifid),
                        )
                    }
                    _ => (
                        self.router_for_addr(r.customer, dst_addr),
                        ForwardOutcome::ReachedHostSpace { asn: r.customer },
                    ),
                };
                (r.provider, Some(r.customer), router, outcome)
            } else if let Some(ifid) = target_iface {
                // A real interface address: terminate at its router.
                let router = self.topology.iface(ifid).router;
                let owner = self.topology.owner(router);
                (owner, None, router, ForwardOutcome::ReachedIface(ifid))
            } else if let Some(origin) = self.bgp_origin(dst_addr) {
                (
                    origin,
                    None,
                    self.router_for_addr(origin, dst_addr),
                    ForwardOutcome::ReachedHostSpace { asn: origin },
                )
            } else {
                return no_route();
            };

        // Expand the AS path to routers as the route tree is walked.
        let mut hops = Vec::with_capacity(32);
        hops.push(ForwardHop {
            router: src_router,
            ingress: None,
        });
        let mut cur = src_router;
        let tree = self.routing.tree(route_dst);
        let routed = routing::walk(tree, src_as, route_dst, |here, next| {
            cur = self.cross(&mut hops, cur, here, next, dst_addr);
        });
        if routed.is_none() {
            return no_route();
        }
        if let Some(customer) = handoff {
            cur = self.cross(&mut hops, cur, route_dst, customer, dst_addr);
        }
        // Internal walk to the target router inside the final AS.
        self.extend_internal(&mut hops, cur, target_router);

        ForwardPath { hops, outcome }
    }

    /// Walks from `cur` to the border router of `here` facing `next`, then
    /// across the boundary; returns the ingress router in `next`.
    fn cross(
        &self,
        hops: &mut Vec<ForwardHop>,
        cur: RouterId,
        here: Asn,
        next: Asn,
        dst_addr: u32,
    ) -> RouterId {
        let (egress_router, ingress_router, ingress_iface) =
            self.cross_boundary(here, next, dst_addr);
        self.extend_internal(hops, cur, egress_router);
        hops.push(ForwardHop {
            router: ingress_router,
            ingress: Some(ingress_iface),
        });
        ingress_router
    }

    /// Chooses the router-level crossing for an AS adjacency, load-balanced
    /// deterministically by destination address. Returns
    /// `(egress router in here, ingress router in next, ingress interface)`.
    fn cross_boundary(&self, here: Asn, next: Asn, dst_addr: u32) -> (RouterId, RouterId, IfaceId) {
        if let Some(ixp) = self.graph.ixp_for_pair(here, next) {
            let &(r_e, _) = self
                .topology
                .ixp_ports
                .get(&(ixp, here))
                .expect("member has a port");
            let &(r_i, if_i) = self
                .topology
                .ixp_ports
                .get(&(ixp, next))
                .expect("member has a port");
            return (r_e, r_i, if_i);
        }
        let key = (here.min(next), here.max(next));
        let links = self
            .topology
            .ext_links
            .get(&key)
            .unwrap_or_else(|| panic!("no link between {here} and {next}"));
        let link = &links[dst_addr as usize % links.len()];
        if key.0 == here {
            (link.router_a, link.router_b, link.iface_b)
        } else {
            (link.router_b, link.router_a, link.iface_a)
        }
    }

    /// Appends the internal path `from → to` (excluding `from`) to `hops`,
    /// with per-hop ingress interfaces, read from the AS's compiled table.
    pub(crate) fn extend_internal(&self, hops: &mut Vec<ForwardHop>, from: RouterId, to: RouterId) {
        let start = hops.len();
        let back = self
            .topology
            .plane
            .walk_back(from, to)
            .expect("AS internal topology is connected");
        hops.extend(back.map(|(router, ingress)| ForwardHop { router, ingress }));
        hops[start..].reverse();
    }

    /// Deterministic "host location": which router inside `asn` serves
    /// `addr`.
    pub fn router_for_addr(&self, asn: Asn, addr: u32) -> RouterId {
        let routers = &self.topology.as_routers[&asn];
        routers[addr as usize % routers.len()]
    }

    /// The return route toward prober AS `vp_as`, fetched once per trace
    /// for [`Internet::reply_source`].
    pub fn return_route(&self, vp_as: Asn) -> ReturnRoute<'_> {
        ReturnRoute {
            vp_as,
            tree: self.routing.tree(vp_as),
        }
    }

    /// The source address a router uses when replying to a probe that
    /// arrived on `ingress`, given the return route to the prober's AS.
    /// Implements the response behaviours: normal routers reply with the
    /// ingress interface; `egress_reply` routers reply with the interface
    /// facing the return route (which can expose a third-party address).
    pub fn reply_source(
        &self,
        router: RouterId,
        ingress: Option<IfaceId>,
        back: ReturnRoute<'_>,
    ) -> u32 {
        let info = self.topology.router(router);
        let router_id_iface = info.ifaces[0];
        if info.egress_reply {
            if let Some(addr) = self.egress_iface_addr(router, back) {
                return addr;
            }
        }
        match ingress {
            Some(i) => self.topology.iface(i).addr,
            None => self.topology.iface(router_id_iface).addr,
        }
    }

    /// The address of the interface `router` would use toward the prober
    /// (reply direction), if one is identifiable.
    fn egress_iface_addr(&self, router: RouterId, back: ReturnRoute<'_>) -> Option<u32> {
        let owner = self.topology.owner(router);
        if owner == back.vp_as {
            // Replying within the same AS: use the router-id interface.
            let info = self.topology.router(router);
            return Some(self.topology.iface(info.ifaces[0]).addr);
        }
        let next = back.tree?.get(&owner)?.next;
        // A direct link from this router to the next AS?
        if let Some(ixp) = self.graph.ixp_for_pair(owner, next) {
            if let Some(&(r, i)) = self.topology.ixp_ports.get(&(ixp, owner)) {
                if r == router {
                    return Some(self.topology.iface(i).addr);
                }
            }
        }
        let key = (owner.min(next), owner.max(next));
        if let Some(links) = self.topology.ext_links.get(&key) {
            for l in links {
                if l.router_a == router {
                    return Some(self.topology.iface(l.iface_a).addr);
                }
                if l.router_b == router {
                    return Some(self.topology.iface(l.iface_b).addr);
                }
            }
        }
        // Not a border router for the return direction: fall back to the
        // router-id interface ("some other interface", §1).
        let info = self.topology.router(router);
        Some(self.topology.iface(info.ifaces[0]).addr)
    }

    /// Synthesizes the route-collector RIB: every announced prefix as seen
    /// from each collector peer.
    pub fn build_rib(&self) -> Rib {
        let peers = self.collector_peers();
        let mut rib = Rib::new();
        for &(prefix, origin) in &self.addressing.announced {
            for &peer in &peers {
                if let Some(path) = self.routing.as_path(peer, origin) {
                    if let Ok(ann) = Announcement::new(prefix, path) {
                        rib.add(ann);
                    }
                }
            }
        }
        rib
    }

    /// The ASes peering with the synthetic collectors (deterministic
    /// sample of transit/access/R&E networks).
    pub fn collector_peers(&self) -> Vec<Asn> {
        let mut pool: Vec<Asn> = Vec::new();
        pool.extend(self.graph.tier_members(Tier::Transit));
        pool.extend(self.graph.tier_members(Tier::Access));
        pool.extend(self.graph.tier_members(Tier::ResearchEducation));
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0xA5A5_0004);
        let mut peers: Vec<Asn> = pool
            .choose_multiple(&mut rng, self.cfg.collector_peers.min(pool.len()))
            .copied()
            .collect();
        peers.sort_unstable();
        peers
    }

    /// Ground truth: all interdomain links at router granularity.
    pub fn true_links(&self) -> Vec<TrueLink> {
        self.topology.true_links(&self.graph)
    }

    /// Ground truth: is this AS firewalled (drops external probes)?
    pub fn is_firewalled(&self, asn: Asn) -> bool {
        self.graph.node(asn).is_some_and(|n| n.firewalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(seed: u64) -> Internet {
        Internet::generate(GeneratorConfig::tiny(seed))
    }

    #[test]
    fn rib_covers_all_blocks() {
        let net = net(1);
        let rib = net.build_rib();
        for node in net.graph.nodes.values() {
            let block = net.addressing.blocks[&node.asn];
            assert_eq!(rib.origin(block), Some(node.asn), "{} missing", node.asn);
        }
    }

    #[test]
    fn rib_paths_are_loop_free() {
        let net = net(2);
        let rib = net.build_rib();
        for ann in rib.iter() {
            Announcement::validate_path(&ann.as_path).expect("loop-free, AS0-free");
        }
    }

    #[test]
    fn forward_reaches_interface_addresses() {
        let net = net(3);
        // Probe an actual interface address from a VP router elsewhere.
        let vp = net.topology.as_routers[&net.graph.tier_members(Tier::Access)[0]][0];
        let target = net
            .topology
            .ifaces
            .iter()
            .find(|i| {
                // Pick an announced-space interface far from the VP.
                net.bgp_origin(i.addr).is_some()
                    && net.topology.owner(i.router) != net.topology.owner(vp)
            })
            .expect("some interface");
        let fwd = net.forward_path(vp, target.addr);
        assert_eq!(fwd.outcome, ForwardOutcome::ReachedIface(target.id));
        let last = fwd.hops.last().unwrap();
        assert_eq!(last.router, target.router);
        assert_eq!(fwd.hops[0].router, vp);
    }

    #[test]
    fn forward_hops_are_contiguous() {
        let net = net(4);
        let stub = net.graph.tier_members(Tier::Stub)[5];
        let vp = net.topology.as_routers[&net.graph.tier_members(Tier::Transit)[0]][0];
        let dst = net.addressing.host_region(stub).addr() + 77;
        let fwd = net.forward_path(vp, dst);
        assert!(matches!(
            fwd.outcome,
            ForwardOutcome::ReachedHostSpace { .. }
        ));
        // Every hop after the first must have an ingress interface on the
        // hop's router, connected to the previous hop's router (or cross an
        // IXP LAN, where ingress is the LAN port).
        for win in fwd.hops.windows(2) {
            let (prev, cur) = (win[0], win[1]);
            let ingress = cur.ingress.expect("non-first hops have ingress");
            let info = net.topology.iface(ingress);
            assert_eq!(info.router, cur.router);
            if let Some(n) = info.neighbor {
                assert_eq!(net.topology.iface(n).router, prev.router);
            }
        }
    }

    #[test]
    fn forward_as_sequence_is_valley_free() {
        let net = net(5);
        let vp = net.topology.as_routers[&net.graph.tier_members(Tier::Access)[1]][0];
        let stub = net.graph.tier_members(Tier::Stub)[9];
        let dst = net.addressing.host_region(stub).addr() + 5;
        let fwd = net.forward_path(vp, dst);
        let mut as_seq: Vec<Asn> = Vec::new();
        for h in &fwd.hops {
            let owner = net.topology.owner(h.router);
            if as_seq.last() != Some(&owner) {
                as_seq.push(owner);
            }
        }
        assert!(
            as_rel::valley_free(&net.graph.relationships, &as_seq),
            "{as_seq:?} not valley-free"
        );
        assert_eq!(*as_seq.last().unwrap(), stub);
    }

    #[test]
    fn realloc_traffic_crosses_the_reallocating_provider() {
        let cfg = GeneratorConfig {
            realloc_prob: 1.0,
            stub_multihome_prob: 1.0,
            ..GeneratorConfig::tiny(6)
        };
        let net = Internet::generate(cfg);
        let r = net.addressing.reallocs[0];
        // A VP outside both provider and customer.
        let vp_as = net
            .graph
            .tier_members(Tier::Transit)
            .into_iter()
            .find(|&a| a != r.provider)
            .unwrap();
        let vp = net.topology.as_routers[&vp_as][0];
        let dst = r.prefix.addr() + 200; // host space inside the realloc /24
        let fwd = net.forward_path(vp, dst);
        assert_eq!(
            fwd.outcome,
            ForwardOutcome::ReachedHostSpace { asn: r.customer }
        );
        let owners: Vec<Asn> = fwd
            .hops
            .iter()
            .map(|h| net.topology.owner(h.router))
            .collect();
        assert!(
            owners.contains(&r.provider),
            "realloc traffic must transit the reallocating provider"
        );
        assert_eq!(*owners.last().unwrap(), r.customer);
    }

    #[test]
    fn realloc_customer_own_block_avoids_realloc_provider() {
        let cfg = GeneratorConfig {
            realloc_prob: 1.0,
            stub_multihome_prob: 1.0,
            ..GeneratorConfig::tiny(7)
        };
        let net = Internet::generate(cfg);
        let r = net.addressing.reallocs[0];
        let rib = net.build_rib();
        // In the collector RIB, the customer's own block must never show the
        // reallocating provider as the last-hop transit.
        let block = net.addressing.blocks[&r.customer];
        for ann in rib.announcements(block) {
            let path = ann.collapsed_path();
            let pos = path.iter().position(|&a| a == r.customer).unwrap();
            if pos > 0 {
                assert_ne!(
                    path[pos - 1],
                    r.provider,
                    "aggregating provider must be invisible in BGP"
                );
            }
        }
    }

    #[test]
    fn no_route_for_dark_space_host_addrs() {
        let cfg = GeneratorConfig {
            unannounced_space_prob: 1.0,
            ..GeneratorConfig::tiny(8)
        };
        let net = Internet::generate(cfg);
        // A dark address that is NOT an interface: no route.
        let dark = net
            .addressing
            .dark
            .iter()
            .find(|d| {
                let probe = d.prefix.last_addr() - 1;
                net.topology.iface_by_addr(probe).is_none()
            })
            .expect("some dark block with spare space");
        let vp = net.topology.routers[0].id;
        let fwd = net.forward_path(vp, dark.prefix.last_addr() - 1);
        assert_eq!(fwd.outcome, ForwardOutcome::NoRoute);
    }

    #[test]
    fn reply_source_defaults_to_ingress() {
        let net = net(9);
        // Find a well-behaved router with an ingress hop.
        let vp_as = net.graph.tier_members(Tier::Access)[0];
        let vp = net.topology.as_routers[&vp_as][0];
        let stub = net.graph.tier_members(Tier::Stub)[3];
        let dst = net.addressing.host_region(stub).addr() + 9;
        let fwd = net.forward_path(vp, dst);
        for h in fwd.hops.iter().skip(1) {
            if !net.topology.router(h.router).egress_reply {
                let src = net.reply_source(h.router, h.ingress, net.return_route(vp_as));
                assert_eq!(src, net.topology.iface(h.ingress.unwrap()).addr);
            }
        }
    }

    #[test]
    fn collector_peers_deterministic_and_sized() {
        let net = net(10);
        let p1 = net.collector_peers();
        let p2 = net.collector_peers();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), net.cfg.collector_peers);
    }
}

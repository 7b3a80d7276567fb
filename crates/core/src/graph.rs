//! Phase 1: constructing the annotated IR graph (§4).
//!
//! Inferred routers (IRs) come from alias sets; addresses without alias
//! information become singleton IRs. Links run from an IR to the interface
//! seen next in a traceroute, labelled with the N/E/M confidence of Table 3,
//! and carry the origin-AS set `L(IRᵢ, j)` (§4.3) and the per-link
//! destination ASes the third-party test needs (§6.1.1). Per-IR destination
//! AS sets apply the reallocated-prefix filter of §4.4.
//!
//! # Parallel two-pass build (DESIGN.md §12, pool scheduling §13)
//!
//! The build is chunked into tasks on the shared [`pool::WorkerPool`] and
//! is bit-identical to a serial walk for every thread count:
//!
//! 1. **Intern** (pass 0): workers scan disjoint trace shards for responding
//!    addresses; the union becomes an [`AddrInterner`], whose ids are
//!    *canonical* (ascending address order) regardless of which shard saw an
//!    address first. `IfIdx(i)` and interner id `i` are the same number.
//! 2. **Extract** (pass 1): workers re-walk their trace shards emitting
//!    compact [`LinkObs`] / destination observations keyed by interned ids.
//! 3. **Reduce**: shard outputs are concatenated, sorted by their total
//!    order, and folded. Every accumulator is order-insensitive — link label
//!    by `min`, origin/destination/predecessor collections are sets — so the
//!    fold reproduces the serial result no matter how observations were
//!    distributed over shards.
//! 4. **Annotate** (per-IR metadata): workers process disjoint IR ranges
//!    with private [`RelQueryCache`]s (hit/miss tallies merged in worker
//!    order), and results are written back in IR order.

use crate::Config;
use alias::AliasSets;
use as_rel::{AsRelationships, CustomerCones, RelQueryCache};
use bgp::{IpToAs, OriginInfo, OriginKind};
use net_types::{AddrInterner, Asn};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use traceroute::{ReplyType, Trace};

/// Index of an inferred router.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IrId(pub u32);

/// Index of an observed interface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IfIdx(pub u32);

/// Link confidence label (Table 3). Lower discriminant = higher confidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkLabel {
    /// Nexthop: same origin AS, or hop distance 1, and the far side did not
    /// answer with an Echo Reply.
    Nexthop,
    /// Echo: hop distance 1, far side answered with an Echo Reply.
    Echo,
    /// Multihop: separated by unresponsive hops with different origin ASes.
    Multihop,
}

/// A link from an IR to a subsequently-observed interface.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Link {
    /// The subsequent interface.
    pub dst: IfIdx,
    /// Best (highest-confidence) label observed for this link.
    pub label: LinkLabel,
    /// `L(IRᵢ, j)`: origin ASes of the IR's interfaces seen immediately
    /// prior to `dst` in a traceroute (§4.3).
    pub origins: BTreeSet<Asn>,
    /// Destination ASes of the traces whose `IR → dst` segment created this
    /// link (the third-party test consults these, §6.1.1).
    pub dests: BTreeSet<Asn>,
}

/// One inferred router.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ir {
    /// Identifier (index into [`IrGraph::irs`]).
    pub id: IrId,
    /// Observed interfaces on this router.
    pub ifaces: Vec<IfIdx>,
    /// Outgoing links, ordered by destination interface.
    pub links: Vec<Link>,
    /// Union of the interfaces' origin ASes (IXP and unannounced addresses
    /// contribute nothing, §4.1).
    pub origins: BTreeSet<Asn>,
    /// Destination AS set after §4.4's reallocation filtering.
    pub dests: BTreeSet<Asn>,
}

/// The annotated IR graph.
#[derive(Clone, Debug, Default)]
pub struct IrGraph {
    /// All inferred routers; `IrId` indexes this.
    pub irs: Vec<Ir>,
    /// Interface addresses; `IfIdx` indexes this and the parallel arrays.
    pub iface_addrs: Vec<u32>,
    /// Origin resolution per interface.
    pub iface_origin: Vec<OriginInfo>,
    /// Owning IR per interface.
    pub iface_ir: Vec<IrId>,
    /// Raw (unfiltered) destination AS set per interface.
    pub iface_dests: Vec<BTreeSet<Asn>>,
    /// Per interface: predecessor IR → that IR's interfaces seen immediately
    /// prior (drives interface-annotation voting, §6.2).
    pub preds: Vec<BTreeMap<IrId, BTreeSet<IfIdx>>>,
    /// Address ↔ interface-index mapping: interface `i`'s address is the
    /// `i`-th smallest observed address, so the interner's dense ids *are*
    /// the `IfIdx` values.
    pub interner: AddrInterner,
}

/// One link-relevant observation from a single adjacent-hop pair, in
/// interned-id space. The derived lexicographic order — `(ir, dst)` first —
/// is the grouping key of the reduction; the remaining fields only
/// feed order-insensitive accumulators (min-label, origin/dest/pred sets),
/// so sorting a concatenation of shard outputs loses nothing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LinkObs {
    /// Source IR (`iface_ir` of the prior hop).
    ir: u32,
    /// Destination interface id.
    dst: u32,
    /// Table 3 label of this single observation.
    label: LinkLabel,
    /// Origin AS of the prior interface (`Asn::NONE` when unannounced).
    origin: Asn,
    /// Destination AS of the trace (`Asn::NONE` when unannounced).
    dest: Asn,
    /// The prior interface itself (for §6.2 predecessor voting).
    pred: u32,
}

/// Chunks `n` items into `batch`-sized pool tasks; returns the task count.
fn task_count(n: usize, batch: usize) -> usize {
    n.div_ceil(batch)
}

/// Task `t`'s contiguous item range under `batch`-sized chunking of `n`.
fn task_range(n: usize, t: usize, batch: usize) -> (usize, usize) {
    (t * batch, ((t + 1) * batch).min(n))
}

impl IrGraph {
    /// Builds the graph from a corpus (§4), without telemetry.
    pub fn build(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
    ) -> IrGraph {
        Self::build_with_obs(
            traces,
            aliases,
            ip2as,
            cfg,
            rels,
            cones,
            &obs::Recorder::disabled(),
        )
    }

    /// Builds the graph from a corpus (§4) on an ad-hoc worker pool sized
    /// from `cfg.threads`, recording worker counts and relationship-cache
    /// telemetry on `rec`.
    pub fn build_with_obs(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
        rec: &obs::Recorder,
    ) -> IrGraph {
        let wp = pool::WorkerPool::with_recorder(cfg.threads, rec.clone());
        Self::build_in_pool(traces, aliases, ip2as, cfg, rels, cones, &wp, rec)
    }

    /// [`IrGraph::build_with_obs`] on a caller-provided worker pool — the
    /// entry the pipeline uses so all phases share one pool. Each parallel
    /// pass is chunked into [`pool::WorkerPool::batch_size`]-sized tasks
    /// (see the module docs for the sharding scheme); task outputs rejoin
    /// in task-index order, so stealing never reaches the output.
    #[allow(clippy::too_many_arguments)]
    pub fn build_in_pool(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
        wp: &pool::WorkerPool,
        rec: &obs::Recorder,
    ) -> IrGraph {
        rec.add_exec(
            obs::names::EXEC_GRAPH_WORKERS,
            wp.worker_cap(traces.len()) as u64,
        );
        let mut g = IrGraph::default();

        // ---- pass 0: intern every address observed as a responding hop.
        // Shard-local sort+dedup keeps the merge small; the interner re-sorts
        // the union, so ids depend only on the observed address *set*.
        let span = rec.span(obs::names::PHASE1_INTERN);
        let trace_batch = wp.batch_size(traces.len());
        let addr_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(traces.len(), trace_batch),
            |t| {
                let (lo, hi) = task_range(traces.len(), t, trace_batch);
                let mut addrs: Vec<u32> = traces[lo..hi]
                    .iter()
                    .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
                    .collect();
                addrs.sort_unstable();
                addrs.dedup();
                addrs
            },
        );
        g.interner = AddrInterner::from_addrs(addr_shards.into_iter().flatten());
        g.iface_addrs = g.interner.addrs().to_vec();
        let n_ifaces = g.iface_addrs.len();
        drop(span);

        // Origin resolution per interface: independent longest-prefix
        // lookups, sharded over the id space and rejoined in id order.
        let span = rec.span(obs::names::PHASE1_ORIGINS);
        let iface_addrs = &g.iface_addrs;
        let iface_batch = wp.batch_size(n_ifaces);
        let origin_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_ifaces, iface_batch),
            |t| {
                let (lo, hi) = task_range(n_ifaces, t, iface_batch);
                iface_addrs[lo..hi]
                    .iter()
                    .map(|&a| ip2as.lookup(a))
                    .collect::<Vec<OriginInfo>>()
            },
        );
        g.iface_origin = origin_shards.into_iter().flatten().collect();
        g.iface_dests = vec![BTreeSet::new(); n_ifaces];
        g.preds = vec![BTreeMap::new(); n_ifaces];
        g.iface_ir = vec![IrId(u32::MAX); n_ifaces];
        drop(span);

        // ---- IRs from alias groups over observed addresses (serial: IR
        // numbering is an ordering decision, and the work is linear).
        let span = rec.span(obs::names::PHASE1_IRS);
        let mut ir_members: Vec<Vec<IfIdx>> = Vec::new();
        let mut grouped = vec![false; n_ifaces];
        for group in aliases.interned_groups(&g.interner) {
            if group.len() >= 2 {
                let members: Vec<IfIdx> = group.into_iter().map(IfIdx).collect();
                for &m in &members {
                    grouped[m.0 as usize] = true;
                }
                ir_members.push(members);
            }
        }
        for (idx, seen) in grouped.iter().enumerate() {
            if !seen {
                ir_members.push(vec![IfIdx(idx as u32)]);
            }
        }
        for members in ir_members {
            let id = IrId(g.irs.len() as u32);
            for &m in &members {
                g.iface_ir[m.0 as usize] = id;
            }
            g.irs.push(Ir {
                id,
                ifaces: members,
                links: Vec::new(),
                origins: BTreeSet::new(),
                dests: BTreeSet::new(),
            });
        }

        drop(span);

        // ---- pass 1: extract link/destination observations per trace
        // shard, entirely in interned-id space.
        let span = rec.span(obs::names::PHASE1_LINKS);
        let graph = &g;
        let obs_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(traces.len(), trace_batch),
            |t| {
                let (lo, hi) = task_range(traces.len(), t, trace_batch);
                let mut links: Vec<LinkObs> = Vec::new();
                let mut dest_obs: Vec<(u32, Asn)> = Vec::new();
                for t in &traces[lo..hi] {
                    let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
                    if hops.is_empty() {
                        continue;
                    }
                    let dest_as = ip2as.lookup(t.dst).asn;

                    // Destination AS sets (§4.4): every responding interface
                    // records the trace's destination AS — except an Echo Reply
                    // last hop, whose "destination" is just the probed address.
                    let last = hops.len() - 1;
                    if dest_as.is_some() {
                        for (i, &(_, h)) in hops.iter().enumerate() {
                            if i == last && h.reply == ReplyType::EchoReply {
                                continue;
                            }
                            let ifidx = graph.interner.id(h.addr).expect("hop addr interned");
                            dest_obs.push((ifidx, dest_as));
                        }
                    }

                    // Links between adjacent responsive hops.
                    for pair in hops.windows(2) {
                        let ((ttl_x, x), (ttl_y, y)) = (pair[0], pair[1]);
                        if x.addr == y.addr {
                            continue;
                        }
                        let xi = graph.interner.id(x.addr).expect("hop addr interned");
                        let yi = graph.interner.id(y.addr).expect("hop addr interned");
                        let ir_x = graph.iface_ir[xi as usize];
                        if ir_x == graph.iface_ir[yi as usize] {
                            continue; // both sides on one IR: not a link
                        }
                        let dist = ttl_y - ttl_x;
                        let ox = graph.iface_origin[xi as usize];
                        let oy = graph.iface_origin[yi as usize];
                        links.push(LinkObs {
                            ir: ir_x.0,
                            dst: yi,
                            label: link_label(dist, ox, oy, y.reply),
                            origin: ox.asn,
                            dest: dest_as,
                            pred: xi,
                        });
                    }
                }
                // Local dedup: repeated observations only re-feed idempotent
                // accumulators, so dropping them here shrinks the merge.
                links.sort_unstable();
                links.dedup();
                dest_obs.sort_unstable();
                dest_obs.dedup();
                (links, dest_obs)
            },
        );

        drop(span);

        // ---- reduction: concatenate shard outputs, restore the total
        // order, and fold — equal inputs in any shard distribution sort to
        // the same sequence, so the result is shard-count-invariant.
        let span = rec.span(obs::names::PHASE1_REDUCE);
        let mut link_obs: Vec<LinkObs> = Vec::new();
        let mut dest_obs: Vec<(u32, Asn)> = Vec::new();
        for (l, d) in obs_shards {
            link_obs.extend(l);
            dest_obs.extend(d);
        }
        dest_obs.sort_unstable();
        dest_obs.dedup();
        for (ifidx, asn) in dest_obs {
            g.iface_dests[ifidx as usize].insert(asn);
        }
        link_obs.sort_unstable();
        link_obs.dedup();
        let mut k = 0;
        while k < link_obs.len() {
            let (ir, dst) = (link_obs[k].ir, link_obs[k].dst);
            let mut label = link_obs[k].label;
            let mut origins: BTreeSet<Asn> = BTreeSet::new();
            let mut dests: BTreeSet<Asn> = BTreeSet::new();
            while k < link_obs.len() && (link_obs[k].ir, link_obs[k].dst) == (ir, dst) {
                let o = link_obs[k];
                label = label.min(o.label); // keep the highest confidence
                if o.origin.is_some() {
                    origins.insert(o.origin);
                }
                if o.dest.is_some() {
                    dests.insert(o.dest);
                }
                // Predecessor record for §6.2 interface voting.
                g.preds[dst as usize]
                    .entry(IrId(ir))
                    .or_default()
                    .insert(IfIdx(o.pred));
                k += 1;
            }
            // Runs arrive in ascending (ir, dst) order, so each IR's link
            // vector comes out sorted by destination interface.
            g.irs[ir as usize].links.push(Link {
                dst: IfIdx(dst),
                label,
                origins,
                dests,
            });
        }

        drop(span);

        // ---- per-IR metadata: origin-AS unions and §4.4-filtered
        // destination sets, chunked over the IR space. Each task owns a
        // private relationship cache; hit/miss tallies are
        // execution-dependent (the split varies with the thread count), so
        // they merge into the exec class in task order.
        let span = rec.span(obs::names::PHASE1_METADATA);
        let n_irs = g.irs.len();
        let graph = &g;
        let ir_batch = wp.batch_size(n_irs);
        let meta_shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_irs, ir_batch),
            |t| {
                let (lo, hi) = task_range(n_irs, t, ir_batch);
                let mut cache = RelQueryCache::new(rels, cones);
                let mut out: Vec<(BTreeSet<Asn>, BTreeSet<Asn>)> = Vec::with_capacity(hi - lo);
                for ir in &graph.irs[lo..hi] {
                    let mut origins: BTreeSet<Asn> = BTreeSet::new();
                    let mut dests: BTreeSet<Asn> = BTreeSet::new();
                    for &ifidx in &ir.ifaces {
                        let o = graph.iface_origin[ifidx.0 as usize];
                        if o.asn.is_some() && o.kind != OriginKind::Ixp {
                            origins.insert(o.asn);
                        }
                        let raw = &graph.iface_dests[ifidx.0 as usize];
                        dests.extend(filtered_iface_dests(raw, o.asn, cfg, &mut cache));
                    }
                    out.push((origins, dests));
                }
                let mut sheet = obs::MetricSheet::new();
                let stats = cache.stats();
                sheet.add_exec(obs::names::EXEC_CACHE_HITS, stats.hits);
                sheet.add_exec(obs::names::EXEC_CACHE_MISSES, stats.misses);
                (out, sheet)
            },
        );
        let mut merged = obs::MetricSheet::new();
        let mut meta: Vec<(BTreeSet<Asn>, BTreeSet<Asn>)> = Vec::with_capacity(n_irs);
        for (out, sheet) in meta_shards {
            meta.extend(out);
            merged.merge(&sheet);
        }
        rec.absorb(&merged);
        for (ir, (origins, dests)) in g.irs.iter_mut().zip(meta) {
            ir.origins = origins;
            ir.dests = dests;
        }
        drop(span);

        g
    }

    /// IRs with no outgoing links (phase 2 targets).
    pub fn last_hop_irs(&self) -> impl Iterator<Item = &Ir> {
        self.irs.iter().filter(|ir| ir.links.is_empty())
    }

    /// IRs with at least one outgoing link (phase 3 targets).
    pub fn mid_path_irs(&self) -> impl Iterator<Item = &Ir> {
        self.irs.iter().filter(|ir| !ir.links.is_empty())
    }

    /// The interface for an address.
    pub fn iface_of_addr(&self, addr: u32) -> Option<IfIdx> {
        self.interner.id(addr).map(IfIdx)
    }

    /// The IR carrying an address.
    pub fn ir_of_addr(&self, addr: u32) -> Option<IrId> {
        self.iface_of_addr(addr)
            .map(|i| self.iface_ir[i.0 as usize])
    }

    /// Distribution of best link labels, for the Table 3 statistics.
    pub fn label_distribution(&self) -> BTreeMap<LinkLabel, usize> {
        let mut out = BTreeMap::new();
        for ir in &self.irs {
            for l in &ir.links {
                *out.entry(l.label).or_insert(0) += 1;
            }
        }
        out
    }

    /// Total link count.
    pub fn link_count(&self) -> usize {
        self.irs.iter().map(|ir| ir.links.len()).sum()
    }
}

/// Table 3's labelling rules.
fn link_label(dist: u8, ox: OriginInfo, oy: OriginInfo, reply: ReplyType) -> LinkLabel {
    if reply == ReplyType::EchoReply {
        // Echo replies only prove the address is on the responding router.
        if dist == 1 || (ox.asn.is_some() && ox.asn == oy.asn) {
            LinkLabel::Echo
        } else {
            LinkLabel::Multihop
        }
    } else if dist == 1 || (ox.asn.is_some() && ox.asn == oy.asn) {
        LinkLabel::Nexthop
    } else {
        LinkLabel::Multihop
    }
}

/// §4.4's per-interface destination filter: a set of exactly two ASes, one
/// matching the interface origin and the other a small-cone AS with no
/// BGP-observable relationship to it, indicates a reallocated prefix; the
/// larger-cone AS (the reallocating provider) is removed. Cone sizes and
/// relationship probes go through the worker's memoized cache.
fn filtered_iface_dests(
    raw: &BTreeSet<Asn>,
    origin: Asn,
    cfg: &Config,
    cache: &mut RelQueryCache<'_>,
) -> BTreeSet<Asn> {
    if !cfg.enable_realloc || raw.len() != 2 || origin.is_none() || !raw.contains(&origin) {
        return raw.clone();
    }
    let other = *raw.iter().find(|&&a| a != origin).expect("two elements");
    if cache.cone_size(other) > cfg.realloc_cone_max || cache.has_relationship(origin, other) {
        return raw.clone();
    }
    // Remove the AS with the larger cone (the provider).
    let drop = if cache.cone_size(origin) >= cache.cone_size(other) {
        origin
    } else {
        other
    };
    raw.iter().copied().filter(|&a| a != drop).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::Prefix;
    use traceroute::{Hop, StopReason};

    fn cfg() -> Config {
        Config::default()
    }

    fn tr(dst: u32, hops: &[(u8, u32, ReplyType)]) -> Trace {
        let max_ttl = hops.iter().map(|&(t, _, _)| t).max().unwrap_or(1);
        let mut v: Vec<Option<Hop>> = vec![None; max_ttl as usize];
        for &(ttl, addr, reply) in hops {
            v[ttl as usize - 1] = Some(Hop { addr, reply });
        }
        Trace {
            monitor: "vp".into(),
            src: 1,
            dst,
            hops: v,
            stop: StopReason::Completed,
        }
    }

    /// Address plan: 10.1.x = AS1, 10.2.x = AS2, 10.3.x = AS3.
    fn oracle() -> IpToAs {
        IpToAs::from_pairs([
            ("10.1.0.0/16".parse::<Prefix>().unwrap(), Asn(1)),
            ("10.2.0.0/16".parse::<Prefix>().unwrap(), Asn(2)),
            ("10.3.0.0/16".parse::<Prefix>().unwrap(), Asn(3)),
        ])
    }

    fn a(s: &str) -> u32 {
        net_types::parse_ipv4(s).unwrap()
    }

    const TE: ReplyType = ReplyType::TimeExceeded;
    const ER: ReplyType = ReplyType::EchoReply;

    fn build(traces: &[Trace], aliases: &AliasSets) -> IrGraph {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        IrGraph::build(traces, aliases, &oracle(), &cfg(), &rels, &cones)
    }

    #[test]
    fn singleton_irs_without_aliases() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.iface_addrs.len(), 2);
        assert_eq!(g.irs.len(), 2);
        assert_ne!(g.ir_of_addr(a("10.1.0.1")), g.ir_of_addr(a("10.2.0.1")));
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn alias_groups_become_irs() {
        let traces = [
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
            ),
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.2"), TE), (2, a("10.2.0.1"), TE)],
            ),
        ];
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.1.0.2")])]);
        let g = build(&traces, &aliases);
        assert_eq!(g.irs.len(), 2); // aliased pair + the 10.2 singleton
        let ir = g.ir_of_addr(a("10.1.0.1")).unwrap();
        assert_eq!(g.ir_of_addr(a("10.1.0.2")), Some(ir));
        // The merged IR has ONE link to 10.2.0.1 with both origins = {AS1}.
        let ir = &g.irs[ir.0 as usize];
        assert_eq!(ir.links.len(), 1);
        assert_eq!(ir.links[0].origins, BTreeSet::from([Asn(1)]));
        assert_eq!(ir.origins, BTreeSet::from([Asn(1)]));
    }

    #[test]
    fn nexthop_label_for_adjacent() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        let dist = g.label_distribution();
        assert_eq!(dist.get(&LinkLabel::Nexthop), Some(&1));
    }

    #[test]
    fn multihop_label_across_gap_different_origin() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (3, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.label_distribution().get(&LinkLabel::Multihop), Some(&1));
    }

    #[test]
    fn nexthop_label_across_gap_same_origin() {
        let traces = [tr(
            a("10.1.0.99"),
            &[(1, a("10.1.0.1"), TE), (4, a("10.1.0.2"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.label_distribution().get(&LinkLabel::Nexthop), Some(&1));
    }

    #[test]
    fn echo_label() {
        let traces = [tr(
            a("10.2.0.1"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), ER)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.label_distribution().get(&LinkLabel::Echo), Some(&1));
    }

    #[test]
    fn best_label_wins_on_merge() {
        let traces = [
            // Multihop observation...
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (3, a("10.2.0.1"), TE)],
            ),
            // ...then a Nexthop observation of the same link.
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
            ),
        ];
        let g = build(&traces, &AliasSets::empty());
        let dist = g.label_distribution();
        assert_eq!(dist.get(&LinkLabel::Nexthop), Some(&1));
        assert_eq!(dist.get(&LinkLabel::Multihop), None);
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn origin_sets_accumulate_per_link() {
        // Fig. 5 of the paper: two different prior interfaces on one IR.
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.3.0.1")])]);
        let traces = [
            tr(
                a("10.2.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.5"), TE)],
            ),
            tr(
                a("10.2.0.99"),
                &[(1, a("10.3.0.1"), TE), (2, a("10.2.0.5"), TE)],
            ),
        ];
        let g = build(&traces, &aliases);
        let ir = &g.irs[g.ir_of_addr(a("10.1.0.1")).unwrap().0 as usize];
        assert_eq!(ir.links.len(), 1);
        assert_eq!(ir.links[0].origins, BTreeSet::from([Asn(1), Asn(3)]));
    }

    #[test]
    fn dest_sets_exclude_echo_last_hop() {
        let traces = [tr(
            a("10.2.0.1"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), ER)],
        )];
        let g = build(&traces, &AliasSets::empty());
        // 10.1.0.1 records dest AS2; the echo responder records nothing.
        let i1 = g.iface_of_addr(a("10.1.0.1")).unwrap();
        let i2 = g.iface_of_addr(a("10.2.0.1")).unwrap();
        assert_eq!(g.iface_dests[i1.0 as usize], BTreeSet::from([Asn(2)]));
        assert!(g.iface_dests[i2.0 as usize].is_empty());
    }

    #[test]
    fn realloc_filter_drops_provider() {
        // Interface origin AS1 (provider, big cone); dests {AS1, AS3} where
        // AS3 is a small-cone AS with no relationship to AS1.
        let mut rels = AsRelationships::new();
        rels.add_p2c(Asn(1), Asn(2)); // gives AS1 a cone of 2
        let cones = CustomerCones::compute(&rels);
        let mut cache = RelQueryCache::new(&rels, &cones);
        let raw = BTreeSet::from([Asn(1), Asn(3)]);
        let out = filtered_iface_dests(&raw, Asn(1), &cfg(), &mut cache);
        assert_eq!(out, BTreeSet::from([Asn(3)]));
        // With a known relationship, nothing is filtered.
        let mut rels2 = AsRelationships::new();
        rels2.add_p2c(Asn(1), Asn(3));
        let cones2 = CustomerCones::compute(&rels2);
        let mut cache2 = RelQueryCache::new(&rels2, &cones2);
        let out2 = filtered_iface_dests(&raw, Asn(1), &cfg(), &mut cache2);
        assert_eq!(out2, raw);
    }

    #[test]
    fn preds_track_prior_interfaces() {
        let traces = [
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.5"), TE)],
            ),
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.2"), TE), (2, a("10.2.0.5"), TE)],
            ),
        ];
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.1.0.2")])]);
        let g = build(&traces, &aliases);
        let yi = g.iface_of_addr(a("10.2.0.5")).unwrap();
        let ir = g.ir_of_addr(a("10.1.0.1")).unwrap();
        let preds = &g.preds[yi.0 as usize];
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[&ir].len(), 2, "both prior interfaces recorded");
    }

    #[test]
    fn last_hop_vs_mid_path_partition() {
        let traces = [tr(
            a("10.3.0.99"),
            &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.mid_path_irs().count(), 1);
        assert_eq!(g.last_hop_irs().count(), 1);
    }

    #[test]
    fn build_is_thread_count_invariant() {
        // A corpus exercising every accumulator: alias-grouped IRs, echo
        // last hops, the same link observed with different labels, and
        // destination sets fed by many traces.
        let aliases = AliasSets::from_groups([BTreeSet::from([a("10.1.0.1"), a("10.1.0.2")])]);
        let mut traces = Vec::new();
        for i in 0..40u32 {
            let leaf = a("10.2.0.1") + (i % 7);
            traces.push(tr(
                a("10.3.0.99") + i,
                &[
                    (1, a("10.1.0.1") + (i % 3), TE),
                    (2, leaf, TE),
                    (4, a("10.3.0.7"), TE),
                ],
            ));
            traces.push(tr(leaf, &[(1, a("10.1.0.2"), TE), (2, leaf, ER)]));
        }
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let build_at = |threads: usize| {
            let cfg = Config {
                threads,
                ..Config::default()
            };
            IrGraph::build(&traces, &aliases, &oracle(), &cfg, &rels, &cones)
        };
        let base = build_at(1);
        for threads in [2, 3, 8] {
            let g = build_at(threads);
            assert_eq!(g.interner, base.interner, "threads={threads}");
            assert_eq!(g.iface_addrs, base.iface_addrs, "threads={threads}");
            assert_eq!(g.iface_origin, base.iface_origin, "threads={threads}");
            assert_eq!(g.iface_ir, base.iface_ir, "threads={threads}");
            assert_eq!(g.iface_dests, base.iface_dests, "threads={threads}");
            assert_eq!(g.preds, base.preds, "threads={threads}");
            assert_eq!(
                serde_json::to_string(&g.irs).unwrap(),
                serde_json::to_string(&base.irs).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_corpus_builds_at_any_thread_count() {
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let cfg = Config {
            threads: 8,
            ..Config::default()
        };
        let g = IrGraph::build(&[], &AliasSets::empty(), &oracle(), &cfg, &rels, &cones);
        assert!(g.irs.is_empty());
        assert!(g.iface_addrs.is_empty());
    }

    #[test]
    fn build_with_obs_records_worker_count() {
        let traces = [
            tr(
                a("10.3.0.99"),
                &[(1, a("10.1.0.1"), TE), (2, a("10.2.0.1"), TE)],
            ),
            tr(
                a("10.3.0.98"),
                &[(1, a("10.1.0.2"), TE), (2, a("10.2.0.1"), TE)],
            ),
        ];
        let rels = AsRelationships::new();
        let cones = CustomerCones::compute(&rels);
        let cfg = Config {
            threads: 2,
            ..Config::default()
        };
        let rec = obs::Recorder::new(false);
        IrGraph::build_with_obs(
            &traces,
            &AliasSets::empty(),
            &oracle(),
            &cfg,
            &rels,
            &cones,
            &rec,
        );
        let report = rec.report();
        assert_eq!(report.exec[obs::names::EXEC_GRAPH_WORKERS], 2);
        assert!(report.exec.contains_key(obs::names::EXEC_CACHE_HITS));
        assert!(report.exec.contains_key(obs::names::EXEC_CACHE_MISSES));
    }

    #[test]
    fn self_loops_and_repeats_skipped() {
        let traces = [tr(
            a("10.3.0.99"),
            &[
                (1, a("10.1.0.1"), TE),
                (2, a("10.1.0.1"), TE), // routing artifact: repeated addr
                (3, a("10.2.0.1"), TE),
            ],
        )];
        let g = build(&traces, &AliasSets::empty());
        assert_eq!(g.link_count(), 1);
    }
}

//! Phase 1: constructing the annotated IR graph (§4).
//!
//! Inferred routers (IRs) come from alias sets; addresses without alias
//! information become singleton IRs. Links run from an IR to the interface
//! seen next in a traceroute, labelled with the N/E/M confidence of Table 3,
//! and carry the origin-AS set `L(IRᵢ, j)` (§4.3) and the per-link
//! destination ASes the third-party test needs (§6.1.1). Per-IR destination
//! AS sets apply the reallocated-prefix filter of §4.4.
//!
//! # Parallel build, bucketed by destination AS (DESIGN.md §12, pool §13)
//!
//! The build is chunked into tasks on the shared [`pool::WorkerPool`] and
//! is bit-identical to a serial walk for every thread count. The one
//! dimension that multiplies the raw observations is the trace's
//! destination AS, so the link passes are organised around it:
//!
//! 1. **Intern** (pass 0): workers scan disjoint trace shards for responding
//!    addresses and look up each trace's destination AS. The address union
//!    becomes an [`AddrInterner`], whose ids are *canonical* (ascending
//!    address order) regardless of which shard saw an address first;
//!    `IfIdx(i)` and interner id `i` are the same number. Traces are then
//!    ordered by `(dest AS, trace index)`, one `u64` sort.
//! 2. **Extract** (pass 1): tasks cover contiguous runs of that order; a
//!    run of one destination AS inside a task is a *bucket*. Walking a
//!    bucket's hops costs one interner lookup per hop. Interface → AS facts
//!    are deduplicated by a task-local stamp array indexed by interface id,
//!    and adjacencies are packed as `u64` `(pred, dst, label)` keys, sorted
//!    and deduplicated inside the bucket, where the sort stays in cache.
//! 3. **Reduce**, in three steps: (a) the global adjacency set, keeping
//!    each `(pred, dst)` pair's minimum label; (b) links, their origin sets
//!    and `preds` derived from it — a link's IR and origin are functions
//!    of its predecessor interface; (c) destination sets scattered bucket
//!    by bucket in ascending AS order over disjoint IR and interface
//!    ranges on the pool, a "last pushed is this AS" check removing the
//!    repeats where one AS's bucket spans two tasks, then bulk-built.
//! 4. **Annotate** (per-IR metadata): workers process disjoint IR ranges
//!    with private [`RelQueryCache`]s (hit/miss tallies merged in worker
//!    order), and results are written back in IR order.
//!
//! Why the output cannot depend on the thread count: every accumulator is
//! a set or a minimum, and the destination AS is constant inside a bucket.
//! Task boundaries move with the thread count, but the set of
//! `(link, AS)` and `(interface, AS)` facts, and of labelled adjacencies,
//! does not.

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
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

/// Chunks `n` items into `batch`-sized pool tasks; returns the task count.
fn task_count(n: usize, batch: usize) -> usize {
    n.div_ceil(batch)
}

/// Task `t`'s contiguous item range under `batch`-sized chunking of `n`.
fn task_range(n: usize, t: usize, batch: usize) -> (usize, usize) {
    (t * batch, ((t + 1) * batch).min(n))
}

/// Width of an interface id inside a packed adjacency key.
const ADJ_ID_BITS: u32 = 31;

/// Packs one adjacency observation as `pred | dst | label` (31 + 31 + 2
/// bits), so ascending key order is `(pred, dst)` first and, within one
/// pair, the highest-confidence label first.
fn pack_adj(pred: u32, dst: u32, label: LinkLabel) -> u64 {
    (u64::from(pred) << (ADJ_ID_BITS + 2)) | (u64::from(dst) << 2) | label as u64
}

/// Unpacks `(pred, dst, label)`.
fn unpack_adj(key: u64) -> (u32, u32, LinkLabel) {
    let label = match key & 3 {
        0 => LinkLabel::Nexthop,
        1 => LinkLabel::Echo,
        _ => LinkLabel::Multihop,
    };
    let dst = ((key >> 2) & ((1 << ADJ_ID_BITS) - 1)) as u32;
    (((key >> (ADJ_ID_BITS + 2)) as u32), dst, label)
}

/// The facts one destination-AS bucket contributes to destination sets.
struct Bucket {
    /// The traces' destination AS (never `Asn::NONE`: unannounced
    /// destinations feed links but no destination sets).
    asn: Asn,
    /// Interfaces that record `asn`, ascending.
    ifaces: Vec<u32>,
    /// Links `(ir << 32) | dst` that record `asn`, ascending.
    links: Vec<u64>,
}

/// One extract task's output.
#[derive(Default)]
struct Extract {
    /// Buckets in ascending AS order.
    buckets: Vec<Bucket>,
    /// Distinct packed adjacencies, ascending, each `(pred, dst)` pair once
    /// with its best label.
    adjs: Vec<u64>,
}

/// Sorts packed adjacencies and keeps each `(pred, dst)` pair once, with
/// its minimum (highest-confidence) label — the first in key order.
fn dedup_adjs(adjs: &mut Vec<u64>) {
    adjs.sort_unstable();
    adjs.dedup_by(|later, kept| *later >> 2 == *kept >> 2);
}

/// Appends `asn` unless it was the last value pushed. Buckets arrive in
/// ascending AS order, so this keeps every list strictly ascending, also
/// where one AS's bucket was split over two extract tasks.
fn push_asn(list: &mut Vec<Asn>, asn: Asn) {
    if list.last() != Some(&asn) {
        list.push(asn);
    }
}

/// Builds a set from a strictly ascending list (the bulk-build path).
fn ascending_set(list: Vec<Asn>) -> BTreeSet<Asn> {
    debug_assert!(
        list.windows(2).all(|w| w[0] < w[1]),
        "not strictly ascending"
    );
    list.into_iter().collect()
}

impl IrGraph {
    /// Builds the graph from a corpus (§4) on the shared worker pool,
    /// recording spans, worker counts and relationship-cache telemetry on
    /// `rec`. Each parallel pass is chunked into
    /// [`pool::WorkerPool::batch_size`]-sized tasks (see the module docs);
    /// task outputs rejoin in task-index order, so neither the thread count
    /// nor stealing reaches the output.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
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
        let (mut g, mut order) = Self::skeleton(traces, aliases, ip2as, wp, rec);

        let span = rec.span(obs::names::PHASE1_LINKS);
        order.sort_unstable();
        let extracts = g.extract(traces, &order, wp);
        drop(span);

        let span = rec.span(obs::names::PHASE1_REDUCE);
        g.reduce(extracts, wp);
        drop(span);

        g.annotate_irs(cfg, rels, cones, wp, rec);
        g
    }

    /// Pass 0 and the serial IR numbering: interns every responding
    /// address, resolves interface origins, and turns alias groups into
    /// IRs. Also returns one `(dest AS << 32) | trace index` key per trace
    /// with a responsive hop, unsorted.
    fn skeleton(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        wp: &pool::WorkerPool,
        rec: &obs::Recorder,
    ) -> (IrGraph, Vec<u64>) {
        assert!(
            u32::try_from(traces.len()).is_ok(),
            "trace indices must fit in 32 bits"
        );
        let mut g = IrGraph::default();

        // ---- pass 0: intern every address observed as a responding hop,
        // and look up each trace's destination AS. Shard-local sort+dedup
        // keeps the merge small; the interner re-sorts the union, so ids
        // depend only on the observed address *set*.
        let span = rec.span(obs::names::PHASE1_INTERN);
        let trace_batch = wp.batch_size(traces.len());
        let shards = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(traces.len(), trace_batch),
            |t| {
                let (lo, hi) = task_range(traces.len(), t, trace_batch);
                let mut addrs: Vec<u32> = Vec::new();
                let mut keys: Vec<u64> = Vec::new();
                for (i, tr) in traces[lo..hi].iter().enumerate() {
                    let before = addrs.len();
                    addrs.extend(tr.responsive().map(|(_, h)| h.addr));
                    if addrs.len() > before {
                        let dest_as = ip2as.lookup(tr.dst).asn;
                        keys.push((u64::from(dest_as.0) << 32) | (lo + i) as u64);
                    }
                }
                addrs.sort_unstable();
                addrs.dedup();
                (addrs, keys)
            },
        );
        let mut order: Vec<u64> = Vec::new();
        let mut addrs: Vec<u32> = Vec::new();
        for (a, k) in shards {
            addrs.extend(a);
            order.extend(k);
        }
        g.interner = AddrInterner::from_addrs(addrs);
        g.iface_addrs = g.interner.addrs().to_vec();
        let n_ifaces = g.iface_addrs.len();
        assert!(
            n_ifaces <= 1 << ADJ_ID_BITS,
            "interface ids must fit in {ADJ_ID_BITS} bits"
        );
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

        (g, order)
    }

    /// Pass 1: walks the traces in `order` — `(dest AS, trace index)`
    /// ascending — in contiguous task ranges. Each run of one destination
    /// AS inside a task is a bucket: its interfaces are deduplicated by a
    /// stamp array, its adjacencies by a cache-resident sort.
    fn extract(&self, traces: &[Trace], order: &[u64], wp: &pool::WorkerPool) -> Vec<Extract> {
        let batch = wp.batch_size(order.len());
        wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(order.len(), batch),
            |t| {
                let (lo, hi) = task_range(order.len(), t, batch);
                let order = &order[lo..hi];
                let mut out = Extract::default();
                // stamp[i] == bucket number: interface i already recorded
                // this bucket's AS. Zero-initialised pages stay untouched
                // until an interface is seen.
                let mut stamp = vec![0u32; self.iface_addrs.len()];
                let mut bucket_no = 0u32;
                let mut adjs: Vec<u64> = Vec::new();
                let mut k = 0;
                while k < order.len() {
                    let asn = Asn((order[k] >> 32) as u32);
                    let end = k + order[k..].partition_point(|&key| (key >> 32) as u32 == asn.0);
                    bucket_no += 1;
                    let record = asn.is_some();
                    let mut ifaces: Vec<u32> = Vec::new();
                    let mut mark = |i: u32| {
                        if stamp[i as usize] != bucket_no {
                            stamp[i as usize] = bucket_no;
                            ifaces.push(i);
                        }
                    };
                    adjs.clear();
                    for &key in &order[k..end] {
                        // Hop state: (ttl, interface id, reply) of the
                        // previous responsive hop.
                        let mut prev: Option<(u8, u32, ReplyType)> = None;
                        for (ttl, h) in traces[key as u32 as usize].responsive() {
                            let id = self.interner.id(h.addr).expect("hop addr interned");
                            if let Some((prev_ttl, prev_id, _)) = prev {
                                // Not the last hop: it records the AS.
                                if record {
                                    mark(prev_id);
                                }
                                let (px, py) = (prev_id as usize, id as usize);
                                // Both sides on one IR (or a repeated
                                // address): not a link.
                                if self.iface_ir[px] != self.iface_ir[py] {
                                    let label = link_label(
                                        ttl - prev_ttl,
                                        self.iface_origin[px],
                                        self.iface_origin[py],
                                        h.reply,
                                    );
                                    adjs.push(pack_adj(prev_id, id, label));
                                }
                            }
                            prev = Some((ttl, id, h.reply));
                        }
                        // §4.4: an Echo Reply last hop's "destination" is
                        // just the probed address, so it records nothing.
                        if let Some((_, id, reply)) = prev {
                            if record && reply != ReplyType::EchoReply {
                                mark(id);
                            }
                        }
                    }
                    dedup_adjs(&mut adjs);
                    out.adjs.extend_from_slice(&adjs);
                    if record {
                        let mut links: Vec<u64> = adjs
                            .iter()
                            .map(|&key| {
                                let (pred, dst, _) = unpack_adj(key);
                                (u64::from(self.iface_ir[pred as usize].0) << 32) | u64::from(dst)
                            })
                            .collect();
                        links.sort_unstable();
                        links.dedup();
                        ifaces.sort_unstable();
                        out.buckets.push(Bucket { asn, ifaces, links });
                    }
                    k = end;
                }
                dedup_adjs(&mut out.adjs);
                out
            },
        )
    }

    /// The reduce: (1) the global adjacency set with minimum labels;
    /// (2) links, their origins and `preds` from it — `ir` and `origin`
    /// are functions of the predecessor interface; (3) destination sets,
    /// scattered bucket by bucket in ascending AS order over disjoint IR
    /// and interface ranges on the pool.
    fn reduce(&mut self, extracts: Vec<Extract>, wp: &pool::WorkerPool) {
        // (1) Each task's adjacencies are already deduplicated; merging
        // only has to resolve pairs seen by several tasks.
        let mut adjs: Vec<u64> = Vec::new();
        for ex in &extracts {
            adjs.extend_from_slice(&ex.adjs);
        }
        dedup_adjs(&mut adjs);

        // (2) Group by (ir, dst): runs come out in ascending (ir, dst)
        // order, so each IR's link vector is sorted by destination.
        let n_ifaces = self.iface_addrs.len();
        self.preds = vec![BTreeMap::new(); n_ifaces];
        let mut edges: Vec<(u32, u32, u32, LinkLabel)> = adjs
            .iter()
            .map(|&key| {
                let (pred, dst, label) = unpack_adj(key);
                (self.iface_ir[pred as usize].0, dst, pred, label)
            })
            .collect();
        drop(adjs);
        edges.sort_unstable();
        let mut k = 0;
        while k < edges.len() {
            let (ir, dst, _, mut label) = edges[k];
            let mut origins: BTreeSet<Asn> = BTreeSet::new();
            let mut preds: Vec<IfIdx> = Vec::new();
            while k < edges.len() && (edges[k].0, edges[k].1) == (ir, dst) {
                let (_, _, pred, l) = edges[k];
                label = label.min(l); // keep the highest confidence
                let origin = self.iface_origin[pred as usize].asn;
                if origin.is_some() {
                    origins.insert(origin);
                }
                preds.push(IfIdx(pred));
                k += 1;
            }
            // Predecessor record for §6.2 interface voting.
            self.preds[dst as usize].insert(IrId(ir), preds.into_iter().collect());
            self.irs[ir as usize].links.push(Link {
                dst: IfIdx(dst),
                label,
                origins,
                dests: BTreeSet::new(),
            });
        }
        drop(edges);

        // (3) Destination sets. Every bucket is visited in ascending AS
        // order by every task; a task keeps only the facts in its range.
        let buckets: Vec<&Bucket> = extracts.iter().flat_map(|ex| &ex.buckets).collect();
        let n_irs = self.irs.len();
        let mut link_off = Vec::with_capacity(n_irs + 1);
        link_off.push(0usize);
        for ir in &self.irs {
            link_off.push(link_off[link_off.len() - 1] + ir.links.len());
        }
        let graph = &*self;
        let ir_batch = wp.batch_size(n_irs);
        let link_dests = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_irs, ir_batch),
            |t| {
                let (lo, hi) = task_range(n_irs, t, ir_batch);
                let base = link_off[lo];
                let mut lists: Vec<Vec<Asn>> = vec![Vec::new(); link_off[hi] - base];
                let (key_lo, key_hi) = ((lo as u64) << 32, (hi as u64) << 32);
                for b in &buckets {
                    let from = b.links.partition_point(|&key| key < key_lo);
                    let to = b.links.partition_point(|&key| key < key_hi);
                    for &key in &b.links[from..to] {
                        let ir = (key >> 32) as usize;
                        let pos = graph.irs[ir]
                            .links
                            .binary_search_by_key(&(key as u32), |l| l.dst.0)
                            .expect("bucket link derived from an adjacency");
                        push_asn(&mut lists[link_off[ir] + pos - base], b.asn);
                    }
                }
                lists.into_iter().map(ascending_set).collect::<Vec<_>>()
            },
        );
        let iface_batch = wp.batch_size(n_ifaces);
        let iface_dests = wp.run(
            obs::names::EXEC_POOL_BUSY_GRAPH,
            task_count(n_ifaces, iface_batch),
            |t| {
                let (lo, hi) = task_range(n_ifaces, t, iface_batch);
                let mut lists: Vec<Vec<Asn>> = vec![Vec::new(); hi - lo];
                for b in &buckets {
                    let from = b.ifaces.partition_point(|&i| (i as usize) < lo);
                    let to = b.ifaces.partition_point(|&i| (i as usize) < hi);
                    for &i in &b.ifaces[from..to] {
                        push_asn(&mut lists[i as usize - lo], b.asn);
                    }
                }
                lists.into_iter().map(ascending_set).collect::<Vec<_>>()
            },
        );
        drop(buckets);
        let mut sets = link_dests.into_iter().flatten();
        for router in &mut self.irs {
            for link in &mut router.links {
                link.dests = sets.next().expect("one destination set per link");
            }
        }
        self.iface_dests = iface_dests.into_iter().flatten().collect();
    }

    /// Per-IR metadata: origin-AS unions and §4.4-filtered destination
    /// sets, chunked over the IR space. Each task owns a private
    /// relationship cache; hit/miss tallies are execution-dependent (the
    /// split varies with the thread count), so they merge into the exec
    /// class in task order.
    fn annotate_irs(
        &mut self,
        cfg: &Config,
        rels: &AsRelationships,
        cones: &CustomerCones,
        wp: &pool::WorkerPool,
        rec: &obs::Recorder,
    ) {
        let span = rec.span(obs::names::PHASE1_METADATA);
        let n_irs = self.irs.len();
        let graph = &*self;
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
        for (ir, (origins, dests)) in self.irs.iter_mut().zip(meta) {
            ir.origins = origins;
            ir.dests = dests;
        }
        drop(span);
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

    /// The graph at `threads` workers, telemetry off.
    fn build_at(
        traces: &[Trace],
        aliases: &AliasSets,
        ip2as: &IpToAs,
        rels: &AsRelationships,
        threads: usize,
    ) -> IrGraph {
        let cones = CustomerCones::compute(rels);
        let wp = pool::WorkerPool::new(threads);
        let rec = obs::Recorder::disabled();
        IrGraph::build(traces, aliases, ip2as, &cfg(), rels, &cones, &wp, &rec)
    }

    fn build(traces: &[Trace], aliases: &AliasSets) -> IrGraph {
        build_at(traces, aliases, &oracle(), &AsRelationships::new(), 1)
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
        let base = build_at(&traces, &aliases, &oracle(), &rels, 1);
        for threads in [2, 3, 8] {
            let g = build_at(&traces, &aliases, &oracle(), &rels, threads);
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
        let g = build_at(
            &[],
            &AliasSets::empty(),
            &oracle(),
            &AsRelationships::new(),
            8,
        );
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
        let rec = obs::Recorder::new(false);
        let wp = pool::WorkerPool::with_recorder(2, rec.clone());
        IrGraph::build(
            &traces,
            &AliasSets::empty(),
            &oracle(),
            &cfg(),
            &rels,
            &cones,
            &wp,
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

    /// The emit/sort/fold build as a reference, and the property test that
    /// holds the bucketed build to it.
    mod oracle {
        use super::*;
        use proptest::prelude::*;

        /// One observation of the emit/sort/fold build that [`IrGraph::build`]
        /// replaced. The derived order — `(ir, dst)` first — is the fold's
        /// grouping key.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct LinkObs {
            ir: u32,
            dst: u32,
            label: LinkLabel,
            origin: Asn,
            dest: Asn,
            pred: u32,
        }

        /// The reference phase 1: the same interning, IR numbering and per-IR
        /// metadata, but links, `preds` and destination sets come from one
        /// serial walk that emits every observation, sorts them all and folds.
        fn reference_build(
            traces: &[Trace],
            aliases: &AliasSets,
            ip2as: &IpToAs,
            rels: &AsRelationships,
        ) -> IrGraph {
            let cones = CustomerCones::compute(rels);
            let wp = pool::WorkerPool::new(1);
            let rec = obs::Recorder::disabled();
            let (mut g, _) = IrGraph::skeleton(traces, aliases, ip2as, &wp, &rec);
            let mut links: Vec<LinkObs> = Vec::new();
            let mut dest_obs: Vec<(u32, Asn)> = Vec::new();
            for t in traces {
                let hops: Vec<(u8, traceroute::Hop)> = t.responsive().collect();
                if hops.is_empty() {
                    continue;
                }
                let dest_as = ip2as.lookup(t.dst).asn;
                let last = hops.len() - 1;
                if dest_as.is_some() {
                    for (i, &(_, h)) in hops.iter().enumerate() {
                        if i == last && h.reply == ReplyType::EchoReply {
                            continue;
                        }
                        dest_obs.push((g.interner.id(h.addr).unwrap(), dest_as));
                    }
                }
                for pair in hops.windows(2) {
                    let ((ttl_x, x), (ttl_y, y)) = (pair[0], pair[1]);
                    if x.addr == y.addr {
                        continue;
                    }
                    let xi = g.interner.id(x.addr).unwrap();
                    let yi = g.interner.id(y.addr).unwrap();
                    let ir_x = g.iface_ir[xi as usize];
                    if ir_x == g.iface_ir[yi as usize] {
                        continue;
                    }
                    let ox = g.iface_origin[xi as usize];
                    let oy = g.iface_origin[yi as usize];
                    links.push(LinkObs {
                        ir: ir_x.0,
                        dst: yi,
                        label: link_label(ttl_y - ttl_x, ox, oy, y.reply),
                        origin: ox.asn,
                        dest: dest_as,
                        pred: xi,
                    });
                }
            }
            g.iface_dests = vec![BTreeSet::new(); g.iface_addrs.len()];
            g.preds = vec![BTreeMap::new(); g.iface_addrs.len()];
            dest_obs.sort_unstable();
            dest_obs.dedup();
            for (ifidx, asn) in dest_obs {
                g.iface_dests[ifidx as usize].insert(asn);
            }
            links.sort_unstable();
            links.dedup();
            let mut k = 0;
            while k < links.len() {
                let (ir, dst) = (links[k].ir, links[k].dst);
                let mut label = links[k].label;
                let mut origins: BTreeSet<Asn> = BTreeSet::new();
                let mut dests: BTreeSet<Asn> = BTreeSet::new();
                while k < links.len() && (links[k].ir, links[k].dst) == (ir, dst) {
                    let o = links[k];
                    label = label.min(o.label);
                    if o.origin.is_some() {
                        origins.insert(o.origin);
                    }
                    if o.dest.is_some() {
                        dests.insert(o.dest);
                    }
                    g.preds[dst as usize]
                        .entry(IrId(ir))
                        .or_default()
                        .insert(IfIdx(o.pred));
                    k += 1;
                }
                g.irs[ir as usize].links.push(Link {
                    dst: IfIdx(dst),
                    label,
                    origins,
                    dests,
                });
            }
            g.annotate_irs(&cfg(), rels, &cones, &wp, &rec);
            g
        }

        /// 10.N.0.0/16 → AS N for N in 1..=6; 172.16/16 is unannounced.
        fn six_nets() -> IpToAs {
            IpToAs::from_pairs(
                (1..=6u32).map(|n| (format!("10.{n}.0.0/16").parse::<Prefix>().unwrap(), Asn(n))),
            )
        }

        fn rels() -> AsRelationships {
            let mut r = AsRelationships::new();
            r.add_p2p(Asn(1), Asn(2));
            r.add_p2c(Asn(1), Asn(3));
            r.add_p2c(Asn(2), Asn(4));
            r.add_p2c(Asn(3), Asn(5));
            r
        }

        /// A few dozen hosts per network, so addresses recur across traces.
        fn addr_strategy() -> impl Strategy<Value = u32> {
            (1u32..=7, 0u32..48).prop_map(|(net, host)| {
                if net == 7 {
                    0xAC10_0000 + host
                } else {
                    0x0A00_0000 + (net << 16) + host
                }
            })
        }

        /// One generated hop slot.
        #[derive(Clone, Debug)]
        enum HopGen {
            /// A responsive hop.
            Addr(u32, ReplyType),
            /// The previous responsive address again.
            Repeat,
            /// The previous address's alias partner (`addr ^ 1`): with
            /// [`paired_aliases`], two adjacent hops on one IR.
            Partner,
            /// No answer.
            Gap,
        }

        fn hop_strategy() -> impl Strategy<Value = HopGen> {
            let reply = prop_oneof![
                5 => Just(ReplyType::TimeExceeded),
                1 => Just(ReplyType::EchoReply),
                1 => Just(ReplyType::DestUnreachable),
            ];
            prop_oneof![
                6 => (addr_strategy(), reply).prop_map(|(a, r)| HopGen::Addr(a, r)),
                1 => Just(HopGen::Repeat),
                1 => Just(HopGen::Partner),
                2 => Just(HopGen::Gap),
            ]
        }

        prop_compose! {
            /// A trace; three in ten end with an Echo Reply from the
            /// destination itself.
            fn trace_strategy()(
                dst in addr_strategy(),
                slots in proptest::collection::vec(hop_strategy(), 1..10),
                echo_roll in 0u8..10,
            ) -> Trace {
                let mut hops: Vec<Option<Hop>> = Vec::new();
                let mut prev: Option<u32> = None;
                for slot in slots {
                    let hop = match (slot, prev) {
                        (HopGen::Addr(addr, reply), _) => Some(Hop { addr, reply }),
                        (HopGen::Repeat, Some(p)) => Some(Hop { addr: p, reply: TE }),
                        (HopGen::Partner, Some(p)) => Some(Hop { addr: p ^ 1, reply: TE }),
                        _ => None,
                    };
                    if let Some(h) = hop {
                        prev = Some(h.addr);
                    }
                    hops.push(hop);
                }
                if echo_roll < 3 {
                    hops.push(Some(Hop { addr: dst, reply: ER }));
                }
                Trace {
                    monitor: "vp".into(),
                    src: 0x0A01_00FE,
                    dst,
                    hops,
                    stop: StopReason::GapLimit,
                }
            }
        }

        /// Corpora with unannounced destinations (the `Asn::NONE` bucket),
        /// Echo Reply last hops, repeated and same-IR adjacent hops, and one
        /// heavy destination AS: every third trace is sent into AS1, more
        /// traces than a pool batch at 2 or 8 threads, so that bucket is
        /// split over extract tasks.
        fn corpus_strategy() -> impl Strategy<Value = Vec<Trace>> {
            proptest::collection::vec(trace_strategy(), 1..60).prop_map(|mut traces| {
                for t in traces.iter_mut().step_by(3) {
                    t.dst = 0x0A01_0000 | (t.dst & 0xff);
                }
                traces
            })
        }

        /// Every observed even address grouped with its `^ 1` partner.
        fn paired_aliases(traces: &[Trace]) -> AliasSets {
            let observed: BTreeSet<u32> = traces
                .iter()
                .flat_map(|t| t.responsive().map(|(_, h)| h.addr))
                .collect();
            AliasSets::from_groups(
                observed
                    .iter()
                    .filter(|&&a| a & 1 == 0 && observed.contains(&(a | 1)))
                    .map(|&a| BTreeSet::from([a, a | 1])),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The bucketed extract and three-step reduce equal the
            /// emit/sort/fold reference in every field, at every thread
            /// count.
            #[test]
            fn build_matches_the_emit_sort_fold_reference(traces in corpus_strategy()) {
                let (ip2as, r) = (six_nets(), rels());
                for aliases in [AliasSets::empty(), paired_aliases(&traces)] {
                    let want = reference_build(&traces, &aliases, &ip2as, &r);
                    for threads in [1usize, 2, 8] {
                        let g = build_at(&traces, &aliases, &ip2as, &r, threads);
                        prop_assert_eq!(&g.interner, &want.interner, "threads={}", threads);
                        prop_assert_eq!(&g.iface_addrs, &want.iface_addrs, "threads={}", threads);
                        prop_assert_eq!(&g.iface_origin, &want.iface_origin, "threads={}", threads);
                        prop_assert_eq!(&g.iface_ir, &want.iface_ir, "threads={}", threads);
                        prop_assert_eq!(&g.iface_dests, &want.iface_dests, "threads={}", threads);
                        prop_assert_eq!(&g.preds, &want.preds, "threads={}", threads);
                        prop_assert_eq!(&g.irs, &want.irs, "threads={}", threads);
                    }
                }
            }
        }
    }
}

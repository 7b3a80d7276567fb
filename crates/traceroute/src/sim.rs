//! The measurement simulator: probes a synthetic Internet from vantage
//! points, the synthetic stand-in for a CAIDA Ark / ITDK campaign.
//!
//! Per probe, the simulator forwards through [`topo_gen::Internet`]'s
//! deterministic forwarding plane and applies each traversed router's
//! response behaviour:
//!
//! * silent routers and per-probe rate limiting produce `*` gaps;
//! * firewalled stub networks swallow every externally-sourced probe at
//!   their border (the paper's §5 motivation for last-hop inference);
//! * `egress_reply` routers answer with the interface facing the return
//!   route, producing off-path and third-party addresses (§6.1.1);
//! * destinations that are real router interfaces answer with Echo Replies,
//!   sometimes from a different interface of the router (§4.2's `E`-label
//!   discussion).
//!
//! Everything is seeded; the same `(campaign seed, vp, dst)` triple always
//! produces the same trace, regardless of thread scheduling.

use crate::{Hop, ReplyType, StopReason, Trace};
use net_types::Asn;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use topo_gen::routers::LinkKind;
use topo_gen::{ForwardOutcome, ForwardPath, Internet, RouterId, Tier};

/// Probing campaign parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Campaign seed (independent of the topology seed).
    pub seed: u64,
    /// Max /24s probed per announced prefix (Ark probes every routed /24;
    /// we cap for runtime, sampling deterministically).
    pub per_prefix_cap: usize,
    /// Probability that a host answers a probe into plain host space.
    pub dest_response_prob: f64,
    /// Consecutive unresponsive hops before the prober gives up
    /// (scamper's default gap limit is 5).
    pub gap_limit: usize,
    /// When a probed /24 contains live router interfaces, probability the
    /// prober's pseudo-random last octet lands on one of them.
    pub iface_hit_prob: f64,
    /// When a probe reaches the destination network but no host answers,
    /// probability the last router sends ICMP Destination Unreachable
    /// instead of staying silent (the N-label's second reply type, §4.2).
    pub dest_unreachable_prob: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            seed: 0x7472_6163,
            per_prefix_cap: 6,
            dest_response_prob: 0.35,
            gap_limit: 5,
            iface_hit_prob: 0.1,
            dest_unreachable_prob: 0.25,
        }
    }
}

/// Selects one vantage-point router in each of `count` distinct ASes,
/// excluding the listed ASes (the paper removes VPs inside validation
/// networks). VP ASes are drawn from transit, access, and R&E tiers, like
/// Ark monitors.
pub fn select_vps(net: &Internet, count: usize, exclude: &[Asn], seed: u64) -> Vec<RouterId> {
    use rand::seq::SliceRandom;
    let mut pool: Vec<Asn> = Vec::new();
    pool.extend(net.graph.tier_members(Tier::Transit));
    pool.extend(net.graph.tier_members(Tier::Access));
    pool.extend(net.graph.tier_members(Tier::ResearchEducation));
    pool.retain(|a| !exclude.contains(a));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5650_5650);
    let mut ases: Vec<Asn> = pool
        .choose_multiple(&mut rng, count.min(pool.len()))
        .copied()
        .collect();
    ases.sort_unstable();
    ases.iter()
        .map(|&a| {
            let routers = &net.topology.as_routers[&a];
            routers[rng.gen_range(0..routers.len())]
        })
        .collect()
}

/// Enumerates the campaign's destination addresses: for each announced
/// prefix, up to `per_prefix_cap` /24s, one pseudo-random address each —
/// biased onto live interface addresses with `iface_hit_prob` so Echo-Reply
/// last hops occur, as they do when Ark probes infrastructure /24s.
pub fn destinations(net: &Internet, cfg: &ProbeConfig) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x6473_7473);
    let mut out = Vec::new();
    for &(prefix, _) in &net.addressing.announced {
        let total_24s = if prefix.len() >= 24 {
            1
        } else {
            1usize << (24 - prefix.len())
        };
        let step = (total_24s / cfg.per_prefix_cap.max(1)).max(1);
        let mut taken = 0;
        for (i, sub) in prefix.subnets(24.max(prefix.len())).enumerate() {
            if i % step != 0 || taken >= cfg.per_prefix_cap {
                continue;
            }
            taken += 1;
            // Live interfaces inside this /24?
            let live: Vec<u32> = net
                .topology
                .addr_to_iface
                .range(sub.addr()..=sub.last_addr())
                .map(|(&a, _)| a)
                .collect();
            let addr = if !live.is_empty() && rng.gen_bool(cfg.iface_hit_prob) {
                live[rng.gen_range(0..live.len())]
            } else {
                sub.addr() + rng.gen_range(1..=254.min(sub.size() as u32 - 1))
            };
            out.push(addr);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Probes one destination from one VP.
pub fn trace_one(net: &Internet, vp: RouterId, dst: u32, cfg: &ProbeConfig) -> Trace {
    probe(net, vp, dst, cfg).0
}

/// Probes one destination from one VP, and also returns every AS the
/// measurement depends on: the VP's AS, the destination's BGP origin, every
/// AS the forwarding path traverses, and the AS the path terminates in.
///
/// The set comes from the *ground-truth* forward path, not the observed
/// trace — silent routers hide traversed ASes from the trace, and the churn
/// workload's dirty-pair test must be conservative: a pair may only be
/// skipped after a topology event when **no** AS it depends on was touched.
/// Interdomain routing changes are handled separately (they dirty every
/// pair), so this set only needs to cover intra-AS events: internal link
/// failures/recoveries change forwarding inside one traversed AS, and router
/// additions shift the host-to-router mapping of the terminal AS — both
/// covered here.
pub fn trace_with_deps(
    net: &Internet,
    vp: RouterId,
    dst: u32,
    cfg: &ProbeConfig,
) -> (Trace, BTreeSet<Asn>) {
    let (trace, fwd) = probe(net, vp, dst, cfg);
    let mut deps = BTreeSet::from([net.topology.owner(vp)]);
    deps.extend(net.bgp_origin(dst));
    deps.extend(fwd.hops.iter().map(|h| net.topology.owner(h.router)));
    match fwd.outcome {
        ForwardOutcome::ReachedHostSpace { asn } => {
            deps.insert(asn);
        }
        ForwardOutcome::ReachedIface(i) => {
            deps.insert(net.topology.owner(net.topology.iface(i).router));
        }
        ForwardOutcome::NoRoute => {}
    }
    (trace, deps)
}

/// One probe: the trace and the forward path it was simulated on.
fn probe(net: &Internet, vp: RouterId, dst: u32, cfg: &ProbeConfig) -> (Trace, ForwardPath) {
    // Per-probe RNG: deterministic in (seed, vp, dst) regardless of order.
    let mut rng = ChaCha8Rng::seed_from_u64(
        cfg.seed ^ (vp.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (dst as u64),
    );
    let vp_as = net.topology.owner(vp);
    let vp_info = net.topology.router(vp);
    let src = net.topology.iface(vp_info.ifaces[0]).addr;
    let monitor = format!("vp-{}", vp_as.0);

    let fwd = net.forward_path(vp, dst);
    if fwd.outcome == ForwardOutcome::NoRoute {
        let trace = Trace {
            monitor,
            src,
            dst,
            hops: vec![],
            stop: StopReason::NoRoute,
        };
        return (trace, fwd);
    }
    let back = net.return_route(vp_as);

    let mut hops: Vec<Option<Hop>> = Vec::with_capacity(fwd.hops.len() + 2);
    let mut firewalled_from: Option<usize> = None;
    let n = fwd.hops.len();
    for (i, h) in fwd.hops.iter().enumerate() {
        let owner = net.topology.owner(h.router);
        if owner != vp_as && net.is_firewalled(owner) {
            // §5's two firewall shapes, a generated per-AS attribute:
            // either the border router is the visible last hop (it filters
            // what is behind it), or the filter drops at the border and the
            // provider's router becomes the last hop.
            let border_responds = net
                .graph
                .node(owner)
                .is_some_and(|n| n.firewall_border_responds);
            firewalled_from.get_or_insert(if border_responds { i + 1 } else { i });
        }
        let info = net.topology.router(h.router);
        let is_last = i + 1 == n;
        let blocked = firewalled_from.is_some_and(|f| i >= f);
        let silent = blocked || info.silent || rng.gen_bool(net.cfg.rate_limit_prob);
        if silent {
            hops.push(None);
            continue;
        }
        if is_last {
            if let ForwardOutcome::ReachedIface(ifid) = fwd.outcome {
                // The destination is this router's own interface: Echo Reply
                // sourced from the probed address, or from the router-id
                // interface for echo-offpath routers.
                let addr = if info.echo_offpath {
                    net.topology.iface(info.ifaces[0]).addr
                } else {
                    net.topology.iface(ifid).addr
                };
                hops.push(Some(Hop {
                    addr,
                    reply: ReplyType::EchoReply,
                }));
                continue;
            }
        }
        let addr = net.reply_source(h.router, h.ingress, back);
        hops.push(Some(Hop {
            addr,
            reply: ReplyType::TimeExceeded,
        }));
    }

    let mut completed = false;
    let mut unreachable = false;
    if let ForwardOutcome::ReachedIface(_) = fwd.outcome {
        completed = hops.last().is_some_and(Option::is_some);
    } else if let ForwardOutcome::ReachedHostSpace { asn } = fwd.outcome {
        // A host past the final router may answer; failing that, the last
        // router may report the dead host with Destination Unreachable.
        let behind_firewall = net.is_firewalled(asn) || firewalled_from.is_some();
        if !behind_firewall && rng.gen_bool(cfg.dest_response_prob) {
            hops.push(Some(Hop {
                addr: dst,
                reply: ReplyType::EchoReply,
            }));
            completed = true;
        } else if !behind_firewall
            && hops.last().is_some_and(Option::is_some)
            && rng.gen_bool(cfg.dest_unreachable_prob)
        {
            // Convert the final router's reply into the unreachable that a
            // subsequent probe would elicit.
            if let Some(Some(h)) = hops.last_mut() {
                h.reply = ReplyType::DestUnreachable;
            }
            unreachable = true;
        }
    }

    // Gap-limit semantics: the prober abandons the measurement at the first
    // run of `gap_limit` consecutive unresponsive probes, so nothing beyond
    // that point is ever observed.
    let mut stop = if completed {
        StopReason::Completed
    } else if unreachable {
        StopReason::Unreachable
    } else {
        StopReason::GapLimit
    };
    let mut run = 0;
    for i in 0..hops.len() {
        run = if hops[i].is_none() { run + 1 } else { 0 };
        if run == cfg.gap_limit {
            hops.truncate(i + 1);
            stop = StopReason::GapLimit;
            break;
        }
    }
    // An unfinished measurement shows the prober walking into silence
    // before giving up (unreachables end the measurement immediately).
    if stop == StopReason::GapLimit {
        let trailing = hops.iter().rev().take_while(|h| h.is_none()).count();
        for _ in trailing..cfg.gap_limit {
            hops.push(None);
        }
    }

    let trace = Trace {
        monitor,
        src,
        dst,
        hops,
        stop,
    };
    (trace, fwd)
}

/// bdrmap's reactive data-collection component (paper §2): a single VP
/// probes one address in every routed prefix, and re-probes a prefix at
/// additional addresses whenever the first measurement "might have found an
/// off-path interface within the target AS" — an off-path Echo Reply, a
/// reply address outside the target origin's space on the final hop, or an
/// incomplete measurement.
pub fn reactive_campaign(
    net: &Internet,
    vp: RouterId,
    cfg: &ProbeConfig,
    follow_ups: usize,
) -> Vec<Trace> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x6264_7270);
    let mut out = Vec::new();
    for &(prefix, origin) in &net.addressing.announced {
        let sub24s = 1u64 << (24u8.saturating_sub(prefix.len()));
        let pick = |rng: &mut ChaCha8Rng| {
            let block = rng.gen_range(0..sub24s) as u32;
            prefix.addr() + block * 256 + rng.gen_range(1..=254.min(prefix.size() as u32 - 1))
        };
        let first = trace_one(net, vp, pick(&mut rng), cfg);
        let mut suspicious = !first.reached_dst();
        if let Some((_, last)) = first.last_hop() {
            // Off-path echo (source differs from the probed address) or a
            // final reply from outside the target network's space.
            if last.reply == ReplyType::EchoReply && last.addr != first.dst {
                suspicious = true;
            }
            if net.bgp_origin(last.addr) != Some(origin) {
                suspicious = true;
            }
        }
        let keep_first = first.responsive_count() > 0;
        if keep_first {
            out.push(first);
        }
        if suspicious {
            for _ in 0..follow_ups {
                let t = trace_one(net, vp, pick(&mut rng), cfg);
                if t.responsive_count() > 0 {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Worker count for a sharded campaign: `threads == 0` asks the OS
/// (mirroring the refinement engine's `Config::threads` convention), and the
/// pool never exceeds the number of probe pairs. Thread count can only
/// change wall time, never output — every probe is a pure function of
/// `(seed, vp, dst)` and shards concatenate in canonical order.
pub fn campaign_workers(threads: usize, probe_pairs: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    t.clamp(1, probe_pairs.max(1))
}

/// Probes the contiguous slice `[lo, hi)` of the flattened `(vp, dst)`
/// matrix (vp-major), appending responsive traces to `out` in matrix order.
fn fill_shard(
    net: &Internet,
    vps: &[RouterId],
    dests: &[u32],
    cfg: &ProbeConfig,
    lo: usize,
    hi: usize,
    out: &mut Vec<Trace>,
) {
    for k in lo..hi {
        let vp = vps[k / dests.len()];
        let dst = dests[k % dests.len()];
        let t = trace_one(net, vp, dst, cfg);
        if t.responsive_count() > 0 {
            out.push(t);
        }
    }
}

/// Runs the full campaign: every VP probes every destination. Parallel over
/// VPs with deterministic per-probe seeding, so output order and content are
/// reproducible. Worker count is taken from the OS (`threads == 0`).
pub fn probe_campaign(net: &Internet, vps: &[RouterId], cfg: &ProbeConfig) -> Vec<Trace> {
    probe_campaign_sharded(net, vps, cfg, 0)
}

/// [`probe_campaign`] with an explicit thread count (0 = ask the OS),
/// dispatched on an ad-hoc [`pool::WorkerPool`].
///
/// The `(vp, dst)` probe matrix is flattened vp-major and split into
/// pool-sized task chunks; each task fills a private trace buffer for its
/// contiguous index range, and the buffers are concatenated in range order.
/// Because every trace depends only on `(campaign seed, vp, dst)` and the
/// ranges partition the matrix in its canonical order, the merged corpus is
/// byte-identical to a serial walk for every thread count — stealing can
/// move a chunk between workers, never reorder the chunks.
pub fn probe_campaign_sharded(
    net: &Internet,
    vps: &[RouterId],
    cfg: &ProbeConfig,
    threads: usize,
) -> Vec<Trace> {
    let dests = destinations(net, cfg);
    campaign_in_pool(net, vps, &dests, cfg, &pool::WorkerPool::new(threads)).0
}

/// Shard runner shared by the entry points: probes the full `(vp, dst)`
/// matrix on the given pool. Returns the corpus plus the worker count the
/// batch could use (the execution-dependent `campaign.workers` value).
fn campaign_in_pool(
    net: &Internet,
    vps: &[RouterId],
    dests: &[u32],
    cfg: &ProbeConfig,
    wp: &pool::WorkerPool,
) -> (Vec<Trace>, usize) {
    let jobs = vps.len() * dests.len();
    if jobs == 0 {
        return (Vec::new(), 1);
    }
    let workers = wp.worker_cap(jobs);
    let batch = wp.batch_size(jobs);
    let tasks = jobs.div_ceil(batch);
    let shards = wp.run(obs::names::EXEC_POOL_BUSY_CAMPAIGN, tasks, |t| {
        let (lo, hi) = (t * batch, ((t + 1) * batch).min(jobs));
        let mut out = Vec::new();
        fill_shard(net, vps, dests, cfg, lo, hi, &mut out);
        out
    });
    (shards.into_iter().flatten().collect(), workers)
}

/// [`probe_campaign_sharded`] under an observability span: records the
/// `traceroute.campaign` phase, corpus size counters, and the
/// execution-dependent `campaign.workers` pool size. The corpus is
/// bit-identical to the plain variant's.
pub fn probe_campaign_with_obs(
    net: &Internet,
    vps: &[RouterId],
    cfg: &ProbeConfig,
    threads: usize,
    rec: &obs::Recorder,
) -> Vec<Trace> {
    let wp = pool::WorkerPool::with_recorder(threads, rec.clone());
    probe_campaign_in_pool(net, vps, cfg, &wp, rec)
}

/// [`probe_campaign_with_obs`] on a caller-provided worker pool — the entry
/// the pipeline uses so campaign, graph build, and refinement share one
/// pool. Destination enumeration runs *before* the phase span opens: it is
/// input preparation, identical at every thread count, and timing it inside
/// the span inflated the campaign's serial baseline (bench-pipeline v3
/// measures probing only).
pub fn probe_campaign_in_pool(
    net: &Internet,
    vps: &[RouterId],
    cfg: &ProbeConfig,
    wp: &pool::WorkerPool,
    rec: &obs::Recorder,
) -> Vec<Trace> {
    let dests = destinations(net, cfg);
    let _span = rec.span(obs::names::PHASE_TRACEROUTE);
    rec.tracer()
        .instant_main(obs::names::EV_CAMPAIGN_DESTS, dests.len() as u64);
    let (traces, workers) = campaign_in_pool(net, vps, &dests, cfg, wp);
    rec.add(obs::names::TRACEROUTE_TRACES, traces.len() as u64);
    rec.add(
        obs::names::TRACEROUTE_HOPS,
        traces.iter().map(|t| t.hops.len() as u64).sum(),
    );
    rec.add(
        obs::names::TRACEROUTE_RESPONSIVE_HOPS,
        traces.iter().map(|t| t.responsive_count() as u64).sum(),
    );
    rec.add_exec(obs::names::EXEC_CAMPAIGN_WORKERS, workers as u64);
    traces
}

/// Probes an explicit list of `(vp, dst)` pairs on the given pool, returning
/// one [`trace_with_deps`] result per pair **in pair order, unfiltered**
/// (unresponsive traces included so the result stays index-aligned with
/// `pairs`).
///
/// This is the churn workload's delta campaign: after a topology event, only
/// the pairs whose paths traverse a touched AS are re-probed, and the caller
/// splices the fresh traces (and their dependency sets) over its cache.
/// Determinism matches the full campaign's: every trace is a pure function
/// of `(campaign seed, vp, dst)`, and chunks concatenate in index order.
pub fn probe_pairs_in_pool(
    net: &Internet,
    pairs: &[(RouterId, u32)],
    cfg: &ProbeConfig,
    wp: &pool::WorkerPool,
) -> Vec<(Trace, BTreeSet<Asn>)> {
    let jobs = pairs.len();
    if jobs == 0 {
        return Vec::new();
    }
    let batch = wp.batch_size(jobs);
    let tasks = jobs.div_ceil(batch);
    let shards = wp.run(obs::names::EXEC_POOL_BUSY_CAMPAIGN, tasks, |t| {
        let (lo, hi) = (t * batch, ((t + 1) * batch).min(jobs));
        pairs[lo..hi]
            .iter()
            .map(|&(vp, dst)| trace_with_deps(net, vp, dst, cfg))
            .collect::<Vec<_>>()
    });
    shards.into_iter().flatten().collect()
}

/// Which /24-equivalent interface kinds a trace traversed — handy campaign
/// statistics used by tests and the experiment drivers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Total traces.
    pub traces: usize,
    /// Traces that reached their destination.
    pub completed: usize,
    /// Total responsive hops.
    pub responsive_hops: usize,
    /// Total unresponsive hops.
    pub gaps: usize,
    /// Echo replies observed.
    pub echo_replies: usize,
}

/// Computes campaign statistics.
pub fn stats(traces: &[Trace]) -> CampaignStats {
    let mut s = CampaignStats {
        traces: traces.len(),
        ..Default::default()
    };
    for t in traces {
        if t.reached_dst() {
            s.completed += 1;
        }
        for h in &t.hops {
            match h {
                Some(h) => {
                    s.responsive_hops += 1;
                    if h.reply == ReplyType::EchoReply {
                        s.echo_replies += 1;
                    }
                }
                None => s.gaps += 1,
            }
        }
    }
    s
}

/// True if an address belongs to an interface on an IXP LAN in the
/// generated topology (test helper).
pub fn is_ixp_addr(net: &Internet, addr: u32) -> bool {
    net.topology
        .iface_by_addr(addr)
        .is_some_and(|i| matches!(i.kind, LinkKind::Ixp(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_gen::GeneratorConfig;

    fn fixture() -> (Internet, ProbeConfig) {
        let net = Internet::generate(GeneratorConfig::tiny(77));
        let cfg = ProbeConfig {
            per_prefix_cap: 2,
            ..ProbeConfig::default()
        };
        (net, cfg)
    }

    #[test]
    fn vps_in_distinct_ases_excluding() {
        let (net, _) = fixture();
        let excluded = net.graph.tier_members(Tier::Access)[0];
        let vps = select_vps(&net, 5, &[excluded], 1);
        assert_eq!(vps.len(), 5);
        let mut ases: Vec<Asn> = vps.iter().map(|&r| net.topology.owner(r)).collect();
        assert!(!ases.contains(&excluded));
        ases.dedup();
        assert_eq!(ases.len(), 5, "VPs must sit in distinct ASes");
    }

    #[test]
    fn destinations_capped_and_in_announced_space() {
        let (net, cfg) = fixture();
        let dests = destinations(&net, &cfg);
        assert!(!dests.is_empty());
        for &d in &dests {
            assert!(net.bgp_origin(d).is_some(), "dest outside announced space");
        }
        // Cap respected per prefix.
        for &(prefix, _) in &net.addressing.announced {
            let inside = dests.iter().filter(|&&d| prefix.contains(d)).count();
            // Nested prefixes (IXP leaks) can double-count; allow slack ×2.
            assert!(inside <= cfg.per_prefix_cap * 2, "{prefix}: {inside}");
        }
    }

    #[test]
    fn trace_determinism() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 2);
        let dests = destinations(&net, &cfg);
        let t1 = trace_one(&net, vps[0], dests[0], &cfg);
        let t2 = trace_one(&net, vps[0], dests[0], &cfg);
        assert_eq!(t1, t2);
    }

    #[test]
    fn campaign_matches_serial_execution() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 3);
        let parallel = probe_campaign(&net, &vps, &cfg);
        let dests = destinations(&net, &cfg);
        let (net_ref, cfg_ref) = (&net, &cfg);
        let serial: Vec<Trace> = vps
            .iter()
            .flat_map(|&vp| {
                dests
                    .iter()
                    .map(move |&d| trace_one(net_ref, vp, d, cfg_ref))
            })
            .filter(|t| t.responsive_count() > 0)
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sharded_campaign_matches_for_every_thread_count() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 3);
        let serial = probe_campaign_sharded(&net, &vps, &cfg, 1);
        // Sweep thread counts past the job count: shards must concatenate to
        // the same corpus whether they split mid-VP, per-VP, or per-probe.
        for threads in [2, 3, 5, 8, 64] {
            let sharded = probe_campaign_sharded(&net, &vps, &cfg, threads);
            assert_eq!(serial, sharded, "threads={threads}");
        }
        assert_eq!(
            serial,
            probe_campaign(&net, &vps, &cfg),
            "auto thread count"
        );
    }

    #[test]
    fn campaign_workers_clamps() {
        assert_eq!(campaign_workers(4, 100), 4);
        assert_eq!(campaign_workers(4, 2), 2);
        assert_eq!(campaign_workers(1, 0), 1);
        assert!(campaign_workers(0, 100) >= 1, "auto resolves to >= 1");
    }

    #[test]
    fn with_obs_matches_and_records_workers() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 9);
        let rec = obs::Recorder::new(false);
        let traces = probe_campaign_with_obs(&net, &vps, &cfg, 2, &rec);
        assert_eq!(traces, probe_campaign_sharded(&net, &vps, &cfg, 2));
        let report = rec.report();
        assert_eq!(report.exec[obs::names::EXEC_CAMPAIGN_WORKERS], 2);
        assert_eq!(
            report.counters[obs::names::TRACEROUTE_TRACES],
            traces.len() as u64
        );
    }

    #[test]
    fn first_hop_is_in_vp_as() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 4);
        let traces = probe_campaign(&net, &vps, &cfg);
        assert!(!traces.is_empty());
        for t in traces.iter().take(50) {
            if let Some(Some(h)) = t.hops.first() {
                // The first responding hop belongs to (or is reachable in)
                // the VP AS — its address resolves somewhere sane.
                assert!(h.addr != 0);
            }
        }
    }

    #[test]
    fn firewalled_stubs_never_respond() {
        let cfg_gen = GeneratorConfig {
            stub_firewall_prob: 1.0,
            ..GeneratorConfig::tiny(5)
        };
        let net = Internet::generate(cfg_gen);
        let cfg = ProbeConfig::default();
        let vps = select_vps(&net, 3, &[], 5);
        let stubs = net.graph.tier_members(Tier::Stub);
        let traces = probe_campaign(&net, &vps, &cfg);
        // Border-dropping firewalled ASes never respond; border-responding
        // ones expose at most one router (the border) per trace.
        for t in &traces {
            let mut fw_routers: std::collections::BTreeSet<topo_gen::RouterId> =
                std::collections::BTreeSet::new();
            for (_, h) in t.responsive() {
                if let Some(iface) = net.topology.iface_by_addr(h.addr) {
                    let owner = net.topology.owner(iface.router);
                    if net.is_firewalled(owner) {
                        assert!(
                            net.graph.node(owner).unwrap().firewall_border_responds,
                            "border-dropping firewalled {owner} responded in {t}"
                        );
                        fw_routers.insert(iface.router);
                    }
                }
            }
            assert!(
                fw_routers.len() <= 1,
                "more than the border router responded in {t}"
            );
        }
        // Traces into firewalled stub space never reach a *host*; the only
        // completions are echo replies for the border router's own
        // interface addresses (a border filter protects what's behind it,
        // not itself).
        for t in &traces {
            let to_stub = stubs
                .iter()
                .any(|s| net.addressing.blocks[s].contains(t.dst));
            if t.reached_dst() && to_stub {
                assert!(
                    net.topology.iface_by_addr(t.dst).is_some(),
                    "host behind a firewall answered: {t}"
                );
            }
        }
    }

    #[test]
    fn echo_replies_present() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 4, &[], 6);
        let traces = probe_campaign(&net, &vps, &cfg);
        let s = stats(&traces);
        assert!(s.echo_replies > 0, "campaign should contain echo replies");
        assert!(s.completed > 0);
        assert!(s.responsive_hops > s.traces, "multi-hop traces expected");
    }

    #[test]
    fn dest_unreachables_occur_and_end_measurements() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 4, &[], 11);
        let traces = probe_campaign(&net, &vps, &cfg);
        let unreachable: Vec<&Trace> = traces
            .iter()
            .filter(|t| t.stop == StopReason::Unreachable)
            .collect();
        assert!(!unreachable.is_empty(), "no unreachables in campaign");
        for t in unreachable {
            let (_, last) = t.last_hop().expect("unreachable ends responsive");
            assert_eq!(last.reply, ReplyType::DestUnreachable);
            // The measurement stops right there: no trailing gap probes.
            assert!(t.hops.last().unwrap().is_some());
        }
    }

    #[test]
    fn reactive_campaign_reprobes_suspicious_prefixes() {
        let (net, cfg) = fixture();
        let vp = select_vps(&net, 1, &[], 12)[0];
        let traces = reactive_campaign(&net, vp, &cfg, 2);
        assert!(!traces.is_empty());
        // Some prefix must have been re-probed (several distinct dests in
        // one announced prefix).
        let mut per_prefix: std::collections::BTreeMap<
            net_types::Prefix,
            std::collections::BTreeSet<u32>,
        > = std::collections::BTreeMap::new();
        for t in &traces {
            for &(prefix, _) in &net.addressing.announced {
                if prefix.contains(t.dst) {
                    per_prefix.entry(prefix).or_default().insert(t.dst);
                }
            }
        }
        assert!(
            per_prefix.values().any(|d| d.len() >= 2),
            "no prefix was re-probed"
        );
        // Deterministic.
        let again = reactive_campaign(&net, vp, &cfg, 2);
        assert_eq!(traces, again);
    }

    #[test]
    fn probe_pairs_is_pair_aligned_and_unfiltered() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 13);
        let dests = destinations(&net, &cfg);
        let pairs: Vec<(RouterId, u32)> = vps
            .iter()
            .flat_map(|&vp| dests.iter().map(move |&d| (vp, d)))
            .collect();
        let wp = pool::WorkerPool::new(2);
        let traces = probe_pairs_in_pool(&net, &pairs, &cfg, &wp);
        assert_eq!(traces.len(), pairs.len(), "unfiltered: one trace per pair");
        for (&(vp, dst), (t, deps)) in pairs.iter().zip(&traces) {
            assert_eq!(*t, trace_one(&net, vp, dst, &cfg));
            assert_eq!(t.dst, dst);
            assert!(deps.contains(&net.topology.owner(vp)));
        }
    }

    #[test]
    fn untouched_pairs_keep_identical_traces_after_events() {
        use topo_gen::TopologyEvent;
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 3, &[], 14);
        let dests = destinations(&net, &cfg);
        let pairs: Vec<(RouterId, u32)> = vps
            .iter()
            .flat_map(|&vp| dests.iter().map(move |&d| (vp, d)))
            .collect();
        // Apply one intra-AS event of each kind and check the dirty-set
        // contract after each: pairs whose pre-event traversed-AS set is
        // disjoint from the touched set must produce byte-identical traces.
        let mut net = net;
        let link = net
            .internal_links()
            .into_iter()
            .find(|&(asn, a, b)| {
                let mut probe = net.topology.clone();
                let _ = asn;
                probe.fail_internal_link(a, b)
            })
            .expect("removable link");
        let add_asn = *net.topology.as_routers.keys().last().unwrap();
        let events = [
            TopologyEvent::LinkDown {
                asn: link.0,
                a: link.1,
                b: link.2,
            },
            TopologyEvent::RouterAdd {
                asn: add_asn,
                attach: net.topology.as_routers[&add_asn][0],
            },
        ];
        let mut checked = 0usize;
        for ev in &events {
            let before: Vec<(Trace, BTreeSet<Asn>)> = pairs
                .iter()
                .map(|&(vp, d)| trace_with_deps(&net, vp, d, &cfg))
                .collect();
            let out = net.apply_event(ev);
            assert!(out.applied && !out.rib_changed, "{}", ev.describe());
            for (&(vp, d), (trace, ases)) in pairs.iter().zip(&before) {
                if ases.is_disjoint(&out.touched) {
                    assert_eq!(
                        trace_one(&net, vp, d, &cfg),
                        *trace,
                        "untouched pair ({vp:?}, {d:#010x}) changed after {}",
                        ev.describe()
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no untouched pairs exercised");
    }

    #[test]
    fn gap_limit_bounds_silent_tails() {
        let (net, cfg) = fixture();
        let vps = select_vps(&net, 2, &[], 7);
        let traces = probe_campaign(&net, &vps, &cfg);
        for t in &traces {
            if t.stop != StopReason::Completed {
                let trailing = t.hops.iter().rev().take_while(|h| h.is_none()).count();
                assert!(trailing <= cfg.gap_limit, "tail too long: {t}");
            }
        }
    }
}

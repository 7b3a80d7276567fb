//! Front-end determinism gate: the sharded probe campaign and the interned
//! phase-1 graph build must produce byte-identical output at every thread
//! count, with telemetry on or off — and that output must equal the
//! pre-change serial baseline (golden hashes captured at seed 2018 before
//! the front-end was parallelized).
//!
//! The hashes are structural FNV-1a digests over every field the rest of
//! the pipeline can observe: whole traces (hop presence, addresses, reply
//! types, stop reasons) and the whole graph (interface arrays, IR
//! membership, links with labels/origin/dest sets, predecessor maps).

use as_rel::CustomerCones;
use bdrmapit_core::{Config, IrGraph, LinkLabel};
use eval::Scenario;
use topo_gen::GeneratorConfig;
use traceroute::{ReplyType, StopReason, Trace};

/// Pre-change serial campaign hash for `tiny(2018)`, 8 VPs, vp_seed 2018.
const GOLDEN_CAMPAIGN: u64 = 0x931cf8a11e64b5e3;
/// Pre-change serial phase-1 graph hash over that campaign's corpus.
const GOLDEN_GRAPH: u64 = 0x675da6ce072f7212;
/// Corpus/graph sizes for the same inputs, pinned so a hash mismatch can be
/// told apart from an input drift.
const GOLDEN_TRACES: usize = 1832;
const GOLDEN_IRS: usize = 332;

struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv {
        let mut h = Fnv(Self::OFFSET);
        h.u64(0xbd12_a917_2018_0607);
        h
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    fn u32(&mut self, v: u32) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        bs.iter().for_each(|&b| self.byte(b));
    }
}

fn reply_code(r: ReplyType) -> u8 {
    match r {
        ReplyType::TimeExceeded => 0,
        ReplyType::EchoReply => 1,
        ReplyType::DestUnreachable => 2,
    }
}

fn stop_code(s: StopReason) -> u8 {
    match s {
        StopReason::Completed => 0,
        StopReason::GapLimit => 1,
        StopReason::Unreachable => 2,
        StopReason::NoRoute => 3,
    }
}

fn label_code(l: LinkLabel) -> u8 {
    match l {
        LinkLabel::Nexthop => 0,
        LinkLabel::Echo => 1,
        LinkLabel::Multihop => 2,
    }
}

fn hash_traces(traces: &[Trace]) -> u64 {
    let mut h = Fnv::new();
    h.u64(traces.len() as u64);
    for t in traces {
        h.bytes(t.monitor.as_bytes());
        h.u32(t.src);
        h.u32(t.dst);
        h.byte(stop_code(t.stop));
        h.u64(t.hops.len() as u64);
        for hop in &t.hops {
            match hop {
                Some(hop) => {
                    h.byte(1);
                    h.u32(hop.addr);
                    h.byte(reply_code(hop.reply));
                }
                None => h.byte(0),
            }
        }
    }
    h.0
}

fn hash_graph(g: &IrGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.iface_addrs.len() as u64);
    for (i, &addr) in g.iface_addrs.iter().enumerate() {
        h.u32(addr);
        let o = g.iface_origin[i];
        h.u32(o.asn.0);
        h.u32(g.iface_ir[i].0);
        h.u64(g.iface_dests[i].len() as u64);
        for a in &g.iface_dests[i] {
            h.u32(a.0);
        }
        h.u64(g.preds[i].len() as u64);
        for (ir, ifs) in &g.preds[i] {
            h.u32(ir.0);
            h.u64(ifs.len() as u64);
            for j in ifs {
                h.u32(j.0);
            }
        }
    }
    h.u64(g.irs.len() as u64);
    for ir in &g.irs {
        h.u32(ir.id.0);
        h.u64(ir.ifaces.len() as u64);
        for j in &ir.ifaces {
            h.u32(j.0);
        }
        h.u64(ir.links.len() as u64);
        for l in &ir.links {
            h.u32(l.dst.0);
            h.byte(label_code(l.label));
            h.u64(l.origins.len() as u64);
            for a in &l.origins {
                h.u32(a.0);
            }
            h.u64(l.dests.len() as u64);
            for a in &l.dests {
                h.u32(a.0);
            }
        }
        h.u64(ir.origins.len() as u64);
        for a in &ir.origins {
            h.u32(a.0);
        }
        h.u64(ir.dests.len() as u64);
        for a in &ir.dests {
            h.u32(a.0);
        }
    }
    h.0
}

/// Runs the full front-end (scenario → campaign → phase-1 graph) at a given
/// thread count, with telemetry enabled or disabled, and returns the two
/// structural hashes plus the pinned sizes.
fn front_end(threads: usize, with_obs: bool) -> (u64, u64, usize, usize) {
    let rec = if with_obs {
        obs::Recorder::new(false)
    } else {
        obs::Recorder::disabled()
    };
    let mut s = Scenario::build_with_obs(GeneratorConfig::tiny(2018), rec.clone());
    s.threads = threads;
    let bundle = s.campaign(8, true, 2018);
    let cones = CustomerCones::compute(&s.rels);
    let cfg = Config {
        threads,
        ..Config::default()
    };
    let g = IrGraph::build(
        &bundle.traces,
        &bundle.aliases,
        &s.ip2as,
        &cfg,
        &s.rels,
        &cones,
        &pool::WorkerPool::with_recorder(threads, rec.clone()),
    );
    (
        hash_traces(&bundle.traces),
        hash_graph(&g),
        bundle.traces.len(),
        g.irs.len(),
    )
}

#[test]
fn front_end_matches_pre_change_serial_golden_at_every_thread_count() {
    for threads in [1usize, 2, 8] {
        for with_obs in [false, true] {
            let (campaign, graph, traces, irs) = front_end(threads, with_obs);
            let ctx = format!("threads={threads} obs={with_obs}");
            assert_eq!(traces, GOLDEN_TRACES, "trace count drifted ({ctx})");
            assert_eq!(irs, GOLDEN_IRS, "IR count drifted ({ctx})");
            assert_eq!(
                campaign, GOLDEN_CAMPAIGN,
                "campaign diverged from the pre-change serial baseline ({ctx})"
            );
            assert_eq!(
                graph, GOLDEN_GRAPH,
                "phase-1 graph diverged from the pre-change serial baseline ({ctx})"
            );
        }
    }
}

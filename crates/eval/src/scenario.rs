//! Reproducible experiment scenarios.

use alias::{observed_addresses, resolve_kapar, resolve_midar, AliasSets, MIDAR_COVERAGE};
use as_rel::infer::{infer_relationships, InferenceConfig};
use as_rel::AsRelationships;
use bgp::{IpToAs, Rib};
use net_types::Asn;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use topo_gen::{GeneratorConfig, Internet, RouterId, Tier};
use traceroute::sim::{probe_campaign, select_vps, ProbeConfig};
use traceroute::Trace;

/// The four networks validated in the paper (§7): "a Tier-1 network, a
/// large access network, and two research and education (R&E) networks".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationNetworks {
    /// The Tier-1.
    pub tier1: Asn,
    /// The large access network (the access AS with the most customers).
    pub large_access: Asn,
    /// R&E network 1 (router configs in the paper).
    pub re1: Asn,
    /// R&E network 2.
    pub re2: Asn,
}

impl ValidationNetworks {
    /// The networks as a slice for exclusion lists.
    pub fn all(&self) -> [Asn; 4] {
        [self.tier1, self.large_access, self.re1, self.re2]
    }

    /// Display label per network, matching the paper's figure axes.
    pub fn label(&self, asn: Asn) -> &'static str {
        if asn == self.tier1 {
            "Tier 1"
        } else if asn == self.large_access {
            "L Access"
        } else if asn == self.re1 {
            "R&E 1"
        } else if asn == self.re2 {
            "R&E 2"
        } else {
            "?"
        }
    }
}

/// A fully-prepared experiment scenario.
#[derive(Debug)]
pub struct Scenario {
    /// The synthetic Internet.
    pub net: Internet,
    /// Collector RIB (synthetic Routeviews/RIS view).
    pub rib: Rib,
    /// The combined IP→AS oracle (BGP + RIR + IXP).
    pub ip2as: IpToAs,
    /// AS relationships *inferred from the RIB* — the pipeline never peeks
    /// at generator truth, exactly as CAIDA runs on inferred relationships.
    pub rels: AsRelationships,
    /// The validation networks.
    pub validation: ValidationNetworks,
    /// Telemetry recorder of the ad-hoc pools [`Scenario::worker_pool`]
    /// builds; every phase records into the recorder of the pool it runs
    /// on. Disabled (no-op) unless the scenario was built with
    /// [`Scenario::build_with_obs`]; either way inference results are
    /// bit-identical.
    pub obs: obs::Recorder,
    /// Worker threads of the ad-hoc pools (0 = ask the OS). Campaign output
    /// is bit-identical for every value; this only sizes the pool.
    pub threads: usize,
    /// A shared worker pool for every parallel phase run under this
    /// scenario. `None` (the default) means each campaign builds an ad-hoc
    /// pool from [`Scenario::threads`] and [`Scenario::obs`]; installing one
    /// lets campaign, graph build, and refinement accumulate scheduling
    /// statistics on one object (and is what the pipeline benchmarks do).
    /// The installed pool's budget and recorder take precedence over
    /// `threads` and `obs`.
    pub pool: Option<Arc<pool::WorkerPool>>,
}

impl Scenario {
    /// Builds the scenario for a generator config, telemetry off.
    pub fn build(cfg: GeneratorConfig) -> Scenario {
        Scenario::build_with_obs(cfg, obs::Recorder::disabled())
    }

    /// Builds the scenario for a generator config, recording phase spans and
    /// counters through `rec`. The recorder is kept on the scenario so
    /// campaigns and [`run_bdrmapit`](crate::experiments::run_bdrmapit)
    /// report into the same run.
    pub fn build_with_obs(cfg: GeneratorConfig, rec: obs::Recorder) -> Scenario {
        let net = Internet::generate_with_obs(cfg, &rec);
        let rib = net.build_rib();
        let ip2as = IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
        let rels = infer_relationships(&rib.collapsed_paths(), &InferenceConfig::default());
        let validation = pick_validation(&net);
        Scenario {
            net,
            rib,
            ip2as,
            rels,
            validation,
            obs: rec,
            threads: 0,
            pool: None,
        }
    }

    /// The worker pool campaigns and inference runs dispatch on: the
    /// installed shared pool, or an ad-hoc one sized from
    /// [`Scenario::threads`] reporting into the scenario's recorder.
    pub fn worker_pool(&self) -> Arc<pool::WorkerPool> {
        self.pool.clone().unwrap_or_else(|| {
            Arc::new(pool::WorkerPool::with_recorder(
                self.threads,
                self.obs.clone(),
            ))
        })
    }

    /// Runs an ITDK-style campaign from `n_vps` vantage points. When
    /// `exclude_validation` is set, no VP sits inside a validation network
    /// (§7.2: "we removed traceroutes from a VP in one of our ground truth
    /// networks").
    pub fn campaign(&self, n_vps: usize, exclude_validation: bool, vp_seed: u64) -> CorpusBundle {
        let exclude: Vec<Asn> = if exclude_validation {
            self.validation.all().to_vec()
        } else {
            Vec::new()
        };
        let vps = select_vps(&self.net, n_vps, &exclude, vp_seed);
        self.campaign_from(&vps, vp_seed)
    }

    /// Runs a campaign from explicit VP routers.
    pub fn campaign_from(&self, vps: &[RouterId], seed: u64) -> CorpusBundle {
        let probe_cfg = ProbeConfig::default();
        let wp = self.worker_pool();
        let traces = probe_campaign(&self.net, vps, &probe_cfg, &wp);
        let observed = observed_addresses(&traces, &wp);
        let aliases = resolve_midar(&self.net, &observed, MIDAR_COVERAGE, seed, wp.recorder());
        CorpusBundle {
            traces,
            aliases,
            vps: vps.to_vec(),
        }
    }

    /// A single in-network VP campaign for a validation network (the
    /// bdrmap regression setting of §7.1), using bdrmap's *reactive*
    /// data-collection strategy: suspicious prefixes get follow-up probes
    /// at additional addresses.
    pub fn single_vp_campaign(&self, asn: Asn, seed: u64) -> CorpusBundle {
        let vp = self.net.topology.as_routers[&asn][0];
        let probe_cfg = ProbeConfig {
            seed,
            ..ProbeConfig::default()
        };
        let wp = self.worker_pool();
        let traces = {
            let _span = wp.recorder().span(obs::names::PHASE_TRACEROUTE);
            traceroute::sim::reactive_campaign(&self.net, vp, &probe_cfg, 2)
        };
        let observed = observed_addresses(&traces, &wp);
        let aliases = resolve_midar(&self.net, &observed, MIDAR_COVERAGE, seed, wp.recorder());
        CorpusBundle {
            traces,
            aliases,
            vps: vec![vp],
        }
    }

    /// The kapar-style alias dataset for a corpus (Fig. 20): the analytic
    /// resolver's output, degraded with kapar's documented false-merge
    /// failure mode (which on the simulator's clean forwarding plane the
    /// graph analysis alone does not reproduce — see `alias` docs).
    pub fn kapar_aliases(&self, bundle: &CorpusBundle) -> AliasSets {
        let analytic = resolve_kapar(&bundle.traces, &bundle.aliases);
        alias::degrade_with_false_merges(&analytic, &bundle.traces, 0.10, self.net.cfg.seed)
    }
}

/// A traceroute corpus plus its alias data.
#[derive(Clone, Debug)]
pub struct CorpusBundle {
    /// The traces.
    pub traces: Vec<Trace>,
    /// MIDAR+iffinder-style alias sets.
    pub aliases: AliasSets,
    /// The VP routers used.
    pub vps: Vec<RouterId>,
}

/// Picks the validation networks deterministically: the first Tier-1, the
/// access network with the most customers, and the first two R&E networks.
fn pick_validation(net: &Internet) -> ValidationNetworks {
    let tier1 = net.graph.tier_members(Tier::Clique)[0];
    let accesses = net.graph.tier_members(Tier::Access);
    let large_access = accesses
        .iter()
        .copied()
        .max_by_key(|&a| {
            (
                net.graph.relationships.customers_of(a).count(),
                std::cmp::Reverse(a),
            )
        })
        .expect("at least one access network");
    let res = net.graph.tier_members(Tier::ResearchEducation);
    ValidationNetworks {
        tier1,
        large_access,
        re1: res[0],
        re2: res[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_is_deterministic() {
        let s1 = Scenario::build(GeneratorConfig::tiny(3));
        let s2 = Scenario::build(GeneratorConfig::tiny(3));
        assert_eq!(s1.validation, s2.validation);
        assert_eq!(s1.rib.prefix_count(), s2.rib.prefix_count());
        assert!(!s1.rels.is_empty());
    }

    #[test]
    fn validation_networks_are_distinct_and_typed() {
        let s = Scenario::build(GeneratorConfig::tiny(5));
        let v = s.validation;
        let all = v.all();
        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(s.net.graph.node(v.tier1).unwrap().tier, Tier::Clique);
        assert_eq!(s.net.graph.node(v.large_access).unwrap().tier, Tier::Access);
        assert_eq!(v.label(v.tier1), "Tier 1");
        assert_eq!(v.label(v.re2), "R&E 2");
    }

    #[test]
    fn exclusion_respected() {
        let s = Scenario::build(GeneratorConfig::tiny(7));
        let bundle = s.campaign(6, true, 1);
        for &vp in &bundle.vps {
            let owner = s.net.topology.owner(vp);
            assert!(!s.validation.all().contains(&owner));
        }
        assert!(!bundle.traces.is_empty());
    }

    #[test]
    fn single_vp_campaign_sits_inside() {
        let s = Scenario::build(GeneratorConfig::tiny(9));
        let bundle = s.single_vp_campaign(s.validation.large_access, 2);
        assert_eq!(bundle.vps.len(), 1);
        assert_eq!(
            s.net.topology.owner(bundle.vps[0]),
            s.validation.large_access
        );
    }
}

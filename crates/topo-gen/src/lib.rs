//! Synthetic Internet generator.
//!
//! The bdrmapIT paper runs on CAIDA ITDK traceroute corpora plus BGP, RIR,
//! and IXP datasets, validated against confidential operator ground truth.
//! None of those inputs can ship with a reproduction, so this crate builds a
//! deterministic synthetic Internet that produces every input *and* the
//! ground truth:
//!
//! * a tiered AS-level graph (clique, transit, access, R&E, stubs) with
//!   ground-truth business relationships and IXP fabrics ([`asgraph`]);
//! * address space per AS, RIR delegations (with stale entries), customer
//!   prefix reallocations, and BGP announcements ([`addressing`]);
//! * a router-level topology per AS with interdomain links addressed the way
//!   operators address them — /31s from the provider's space, IXP LAN
//!   addresses, occasionally the customer's space ([`routers`]);
//! * Gao-Rexford (valley-free) AS-level routing with router-level path
//!   expansion, the forwarding plane under the traceroute simulator
//!   ([`routing`]);
//! * per-router traceroute response behaviours (silent, rate-limited,
//!   egress-replying, firewalled edge networks) that create exactly the
//!   artifacts bdrmapIT's heuristics exist to handle ([`routers`]);
//! * the [`Internet`] façade tying it all together, and ground-truth
//!   accessors used for validation.
//!
//! Everything is seeded: the same [`GeneratorConfig`] always yields the same
//! Internet, byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addressing;
pub mod asgraph;
pub mod config;
pub mod dynamics;
pub mod routers;
pub mod routing;

mod internet;
mod intra;

pub use config::GeneratorConfig;
pub use dynamics::{EventOutcome, TopologyEvent};
pub use internet::{ForwardHop, ForwardOutcome, ForwardPath, Internet, ReturnRoute};

use net_types::Asn;
use serde::{Deserialize, Serialize};

/// Identifier of a router in the generated topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RouterId(pub u32);

/// Identifier of an interface in the generated topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IfaceId(pub u32);

/// The role an AS plays in the synthetic hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tier {
    /// Tier-1: member of the peering clique, no providers.
    Clique,
    /// Large transit provider below the clique.
    Transit,
    /// Access / eyeball network.
    Access,
    /// Research & education network.
    ResearchEducation,
    /// Stub / edge AS (enterprise, small hosting).
    Stub,
}

impl Tier {
    /// All tiers in hierarchy order.
    pub const ALL: [Tier; 5] = [
        Tier::Clique,
        Tier::Transit,
        Tier::Access,
        Tier::ResearchEducation,
        Tier::Stub,
    ];
}

/// A ground-truth interdomain link at router granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TrueLink {
    /// Router on one side.
    pub router_a: RouterId,
    /// Owner of `router_a`.
    pub as_a: Asn,
    /// Router on the other side.
    pub router_b: RouterId,
    /// Owner of `router_b`.
    pub as_b: Asn,
    /// Interface address on side a (the a→b link address), if numbered.
    pub addr_a: u32,
    /// Interface address on side b.
    pub addr_b: u32,
}

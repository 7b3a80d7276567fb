//! Quickstart: generate a small synthetic Internet, probe it, run bdrmapIT,
//! and print the inferred interdomain links of one network.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bdrmapit::core::{Bdrmapit, Config};
use bdrmapit::net_types::format_ipv4;
use bdrmapit::topo_gen::{GeneratorConfig, Internet};
use bdrmapit::traceroute::sim::{probe_campaign, select_vps, ProbeConfig};
use bdrmapit::{alias, as_rel, bgp};

fn main() {
    // 1. A deterministic synthetic Internet (the substitute for the real
    //    one, which does not fit in a git repository).
    let net = Internet::generate(GeneratorConfig::tiny(42));
    println!(
        "generated {} ASes / {} routers / {} interfaces",
        net.graph.len(),
        net.topology.router_count(),
        net.topology.iface_count()
    );

    // 2. An ITDK-style traceroute campaign from 8 vantage points.
    let vps = select_vps(&net, 8, &[], 1);
    let traces = probe_campaign(&net, &vps, &ProbeConfig::default());
    println!("collected {} traces", traces.len());

    // 3. The supporting datasets the paper consumes: a BGP collector RIB,
    //    the combined IP→AS oracle, inferred AS relationships, and
    //    MIDAR-style alias resolution.
    let rib = net.build_rib();
    let ip2as = bgp::IpToAs::build(&rib, &net.addressing.delegations, &net.addressing.ixps);
    let rels = as_rel::infer::infer_relationships(
        &rib.collapsed_paths(),
        &as_rel::infer::InferenceConfig::default(),
    );
    let observed = alias::observed_addresses(&traces, &bdrmapit::pool::WorkerPool::new(0));
    let aliases = alias::resolve_midar(&net, &observed, 0.9, 7);

    // 4. bdrmapIT.
    let result = Bdrmapit::new(Config::default()).run(&traces, &aliases, &ip2as, &rels);
    println!(
        "annotated {} inferred routers in {} refinement iterations",
        result.graph.irs.len(),
        result.state.iterations
    );

    // 5. The interdomain links of the first Tier-1 network.
    let tier1 = net.graph.tier_members(bdrmapit::topo_gen::Tier::Clique)[0];
    println!("\ninterdomain links of {tier1}:");
    let mut shown = std::collections::BTreeSet::new();
    for link in result.interdomain_links() {
        let (a, b) = (link.ir_as.min(link.conn_as), link.ir_as.max(link.conn_as));
        if (a == tier1 || b == tier1) && shown.insert((a, b)) {
            println!(
                "  {a} -- {b}   (at interface {})",
                format_ipv4(link.iface_addr)
            );
        }
    }
}

//! Substrate microbenchmarks: the operations every experiment leans on —
//! longest-prefix matching, route-tree computation, traceroute simulation,
//! relationship inference, and alias resolution.

use criterion::{criterion_group, criterion_main, Criterion};
use net_types::{Asn, Prefix, PrefixTrie};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use topo_gen::GeneratorConfig;
use traceroute::sim::{destinations, select_vps, trace_one, ProbeConfig};

fn bench_trie(c: &mut Criterion) {
    // A trie shaped like a real routing table: ~100k prefixes, /8–/24.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut trie = PrefixTrie::new();
    for _ in 0..100_000 {
        let addr: u32 = rng.gen();
        let len = rng.gen_range(8..=24);
        trie.insert(Prefix::new(addr, len), Asn(rng.gen_range(1..65000)));
    }
    let queries: Vec<u32> = (0..1024).map(|_| rng.gen()).collect();
    let mut g = c.benchmark_group("prefix_trie");
    g.throughput(criterion::Throughput::Elements(queries.len() as u64));
    g.bench_function("longest_match_100k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                if trie.longest_match(q).is_some() {
                    hits += 1;
                }
            }
            hits
        });
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let net = topo_gen::Internet::generate(GeneratorConfig::tiny(2018));
    let stubs = net.graph.tier_members(topo_gen::Tier::Stub);
    c.bench_function("routing_tree_per_destination", |b| {
        let mut i = 0usize;
        b.iter(|| {
            // Rotate destinations to defeat the cache and measure real
            // tree computation.
            let routing = topo_gen::routing::Routing::new(
                net.graph.relationships.clone(),
                net.addressing.announce_via.clone(),
            );
            let dst = stubs[i % stubs.len()];
            i += 1;
            routing.tree(dst).map(std::collections::BTreeMap::len)
        });
    });
}

fn bench_traceroute_sim(c: &mut Criterion) {
    let net = topo_gen::Internet::generate(GeneratorConfig::tiny(2018));
    let cfg = ProbeConfig::default();
    let vps = select_vps(&net, 4, &[], 1);
    let dests = destinations(&net, &cfg);
    let mut g = c.benchmark_group("traceroute_sim");
    g.throughput(criterion::Throughput::Elements(dests.len() as u64));
    g.bench_function("probe_all_dests_one_vp", |b| {
        b.iter(|| {
            dests
                .iter()
                .map(|&d| trace_one(&net, vps[0], d, &cfg).responsive_count())
                .sum::<usize>()
        });
    });
    g.finish();
}

fn bench_rel_inference(c: &mut Criterion) {
    let net = topo_gen::Internet::generate(GeneratorConfig::tiny(2018));
    let rib = net.build_rib();
    let paths = rib.collapsed_paths();
    c.bench_function("as_relationship_inference", |b| {
        b.iter(|| {
            as_rel::infer::infer_relationships(&paths, &as_rel::infer::InferenceConfig::default())
        });
    });
}

fn bench_alias(c: &mut Criterion) {
    let fx = bench::Fixture::standard();
    let observed = alias::observed_addresses(&fx.bundle.traces, &pool::WorkerPool::new(1));
    let mut g = c.benchmark_group("alias_resolution");
    g.bench_function("midar_style", |b| {
        b.iter(|| alias::resolve_midar(&fx.scenario.net, &observed, 0.9, 7));
    });
    g.bench_function("kapar_style", |b| {
        b.iter(|| alias::resolve_kapar(&fx.bundle.traces, &fx.bundle.aliases));
    });
    g.finish();
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(20);
    targets = bench_trie, bench_routing, bench_traceroute_sim,
              bench_rel_inference, bench_alias
}
criterion_main!(substrates);

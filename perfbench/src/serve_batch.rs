//! The serve step of an `itdk-pipeline` unit: a fixed batch of queries over
//! loopback against the snapshot the unit just loaded.
//!
//! The step starts a `serve` server with [`THREADS`] workers on the loaded
//! snapshot and sends [`REQUESTS`] seeded requests over [`THREADS`] client
//! connections, each waiting for its reply before sending the next (a closed
//! loop). It then asks the server's `stats` verb for its own per-verb table
//! and shuts the server down. A fresh server and fresh connections per unit
//! let every unit sample its own placement of clients and workers on the
//! cores, so the run's median settles where one long window would not.
//! Replies are checked against `serve::dispatch` — the direct `Snapshot`
//! query behind the protocol — after the unit's clock stops.

use crate::layers::LayerMap;
use crate::stats::{median, percentile, Tally};
use crate::{Stopwatch, THREADS};
use serve::{Client, Request, Response, Server, ServerConfig, VerbStatsJson};
use snapshot::Snapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Verbs in the batch, with their share of requests in tenths: 60/20/10/10.
const MIX: [(&str, u64); 4] = [
    ("lookup_addr", 6),
    ("lookup_prefix", 2),
    ("router", 1),
    ("links_of_as", 1),
];

/// Requests per batch, split evenly over the client connections.
const REQUESTS: usize = 4096;

/// How long a client waits for a reply before counting a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// SplitMix64: a seeded key stream with no dependency.
struct KeyRng(u64);

impl KeyRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seeded requests of a batch, each with its verb's index in [`MIX`]:
/// addresses, routers and ASes the snapshot holds, plus prefix lookups at
/// addresses near observed ones. ASes are drawn uniformly, not by link
/// count, so the few ASes with hundreds of links do not dominate.
fn requests(snap: &Snapshot, seed: u64) -> Vec<(usize, Request)> {
    let mut rng = KeyRng(seed ^ 0x7365_7276_656b_6579);
    let data = snap.data();
    let ases: Vec<u32> = data
        .links
        .iter()
        .map(|l| l.ir_as.0)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let addr = |rng: &mut KeyRng| data.annotations[rng.below(data.annotations.len())].addr;
    (0..REQUESTS)
        .map(|_| {
            let mut tenth = rng.next() % 10;
            let verb = MIX
                .iter()
                .position(|&(_, share)| {
                    let hit = tenth < share;
                    tenth = tenth.saturating_sub(share);
                    hit
                })
                .expect("shares sum to ten");
            let mut req = Request::verb(MIX[verb].0);
            match verb {
                0 => req.addr = Some(net_types::format_ipv4(addr(&mut rng))),
                1 => {
                    let near = addr(&mut rng) ^ (rng.next() as u32 & 0xff);
                    req.addr = Some(net_types::format_ipv4(near));
                }
                2 => req.ir = Some(data.routers[rng.below(data.routers.len())].ir),
                _ => req.asn = Some(ases[rng.below(ases.len())]),
            }
            (verb, req)
        })
        .collect()
}

/// One client connection's share of a batch.
struct Part {
    /// Round-trip latency per answered request, microseconds.
    lat_us: Vec<f64>,
    /// The reply to each answered request, in request order.
    replies: Vec<Response>,
    error: Option<String>,
}

/// What one batch produced. `replies[i]` answers `requests[i]`; a request
/// whose connection failed has no reply and no latency.
pub struct Batch {
    requests: Vec<(usize, Request)>,
    replies: Vec<Option<Response>>,
    lat_us: Vec<Option<f64>>,
    /// Wall time of the client loops, seconds.
    wall_s: f64,
    /// The server's own per-verb table, from the `stats` verb.
    server: BTreeMap<String, VerbStatsJson>,
    errors: Vec<String>,
}

impl Batch {
    /// Round-trip latencies in microseconds, all verbs or one.
    pub fn us(&self, verb: Option<usize>) -> Vec<f64> {
        self.requests
            .iter()
            .zip(&self.lat_us)
            .filter(|((v, _), _)| verb.is_none_or(|want| *v == want))
            .filter_map(|(_, &us)| us)
            .collect()
    }

    /// Answered requests per second of client wall time.
    pub fn rps(&self) -> f64 {
        self.replies.iter().flatten().count() as f64 / self.wall_s
    }

    /// The serve layer figures of this batch: the client-side p99, the
    /// server's own p99 per verb, and what a `lookup_addr` round trip costs
    /// beyond the server's handling of it (client p50 − server p50).
    pub fn layers(&self) -> LayerMap {
        let mut out = LayerMap::new();
        for (verb, name) in MIX.iter().map(|&(v, _)| v).zip([
            "serve.server_p99_us.lookup_addr",
            "serve.server_p99_us.lookup_prefix",
            "serve.server_p99_us.router",
            "serve.server_p99_us.links_of_as",
        ]) {
            out.insert(name, self.server.get(verb).map_or(0.0, |v| v.p99_us as f64));
        }
        if let Some(p99) = percentile(&self.us(None), 99.0) {
            out.insert("serve.client_p99_us", p99);
        }
        if let (Some(client), Some(server)) = (median(&self.us(Some(0))), self.server.get(MIX[0].0))
        {
            out.insert("serve.transport_us", client - server.p50_us as f64);
        }
        out
    }

    /// Counts every request as an operation, failed unless it was answered
    /// with exactly what the direct query on `snap` gives, plus one check
    /// per connection or stats error.
    pub fn check(&self, snap: &Snapshot, tally: &mut Tally) {
        let mut differ = 0;
        for ((_, req), reply) in self.requests.iter().zip(&self.replies) {
            let ok = reply
                .as_ref()
                .is_some_and(|r| *r == serve::dispatch(snap, req));
            differ += usize::from(reply.is_some() && !ok);
            tally.record(ok);
        }
        if differ > 0 {
            eprintln!(
                "perfbench: check failed: {differ} serve replies differ from the direct query"
            );
        }
        for e in &self.errors {
            tally.check(false, e);
        }
    }
}

/// Runs one batch against a fresh server on `snap`, its serve spans
/// recorded into `rec`; stops and joins the server before returning.
pub fn run(snap: &Arc<Snapshot>, seed: u64, rec: &obs::Recorder) -> Batch {
    let requests = requests(snap, seed);
    let mut batch = Batch {
        replies: vec![None; requests.len()],
        lat_us: vec![None; requests.len()],
        requests,
        wall_s: 0.0,
        server: BTreeMap::new(),
        errors: Vec::new(),
    };
    let cfg = ServerConfig {
        workers: THREADS,
        ..ServerConfig::default()
    };
    let server = match Server::bind("127.0.0.1:0", Arc::clone(snap), cfg, rec.clone()) {
        Ok(s) => s.spawn_background(),
        Err(e) => {
            batch.errors.push(format!("serve bind: {e}"));
            return batch;
        }
    };
    let addr = server.addr();
    let share = batch.requests.len().div_ceil(THREADS);
    let clock = Stopwatch::start();
    let parts: Vec<Part> = std::thread::scope(|sc| {
        let handles: Vec<_> = batch
            .requests
            .chunks(share)
            .map(|chunk| sc.spawn(move || client(addr, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    batch.wall_s = clock.secs();
    for (c, part) in parts.into_iter().enumerate() {
        let at = c * share;
        for (i, (reply, us)) in part.replies.into_iter().zip(part.lat_us).enumerate() {
            batch.replies[at + i] = Some(reply);
            batch.lat_us[at + i] = Some(us);
        }
        batch.errors.extend(part.error);
    }
    // Asked on a fresh connection once the batch's connections have closed
    // (each server worker holds one connection at a time).
    let stats = Client::connect(addr).and_then(|mut c| c.call(&Request::verb("stats")));
    match stats {
        Ok(r) => batch.server = r.stats.and_then(|s| s.verbs).unwrap_or_default(),
        Err(e) => batch.errors.push(format!("stats verb: {e}")),
    }
    server.shutdown();
    batch
}

/// One closed-loop client over `requests`; stops at the first failed call.
fn client(addr: std::net::SocketAddr, requests: &[(usize, Request)]) -> Part {
    let mut part = Part {
        lat_us: Vec::with_capacity(requests.len()),
        replies: Vec::with_capacity(requests.len()),
        error: None,
    };
    let connected =
        Client::connect(addr).and_then(|c| c.set_timeout(Some(REPLY_TIMEOUT)).map(|()| c));
    let mut conn = match connected {
        Ok(c) => c,
        Err(e) => {
            part.error = Some(format!("serve connect: {e}"));
            return part;
        }
    };
    let clock = Stopwatch::start();
    for (_, req) in requests {
        let t0 = clock.nanos();
        match conn.call(req) {
            Ok(reply) => {
                part.lat_us.push((clock.nanos() - t0) as f64 / 1e3);
                part.replies.push(reply);
            }
            Err(e) => {
                part.error = Some(format!("serve call: {e}"));
                break;
            }
        }
    }
    part
}

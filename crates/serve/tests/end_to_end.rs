//! End-to-end: a real server on a loopback socket, concurrent clients,
//! persistent connections, malformed traffic, and graceful shutdown.

use net_types::{parse_ipv4, Asn};
use serve::{Client, Request, Server, ServerConfig, MAX_REQUEST_LINE};
use snapshot::{AnnRecord, LinkRecord, RouterRecord, Snapshot, SnapshotData};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn test_snapshot() -> Arc<Snapshot> {
    let annotations: Vec<AnnRecord> = (0u32..64)
        .map(|i| AnnRecord {
            addr: 0x0a00_0000 + i,
            ir: i / 4,
            asn: Asn(100 + i / 4),
            origin: Asn(100 + i / 4),
            conn: Asn(if i % 4 == 0 { 200 } else { 0 }),
        })
        .collect();
    let routers = (0u32..16)
        .map(|ir| RouterRecord {
            ir,
            asn: Asn(100 + ir),
            ifaces: (0..4).map(|k| 0x0a00_0000 + ir * 4 + k).collect(),
        })
        .collect();
    let links = vec![LinkRecord {
        ir: 0,
        ir_as: Asn(100),
        iface_addr: parse_ipv4("10.0.1.1").unwrap(),
        conn_as: Asn(101),
        last_hop: false,
    }];
    let prefixes = vec![
        ("10.0.0.0/8".parse().unwrap(), Asn(10)),
        ("10.0.0.0/26".parse().unwrap(), Asn(100)),
    ];
    Arc::new(Snapshot::from_data(SnapshotData {
        annotations,
        links,
        routers,
        prefixes,
    }))
}

fn start() -> serve::RunningServer {
    let server = Server::bind(
        "127.0.0.1:0",
        test_snapshot(),
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_secs(5),
        },
        obs::Recorder::disabled(),
    )
    .expect("bind loopback");
    server.spawn_background()
}

#[test]
fn every_verb_answers_over_a_persistent_connection() {
    let running = start();
    let mut c = Client::connect(running.addr()).unwrap();

    let r = c
        .call(&Request {
            addr: Some("10.0.0.5".to_string()),
            ..Request::verb("lookup_addr")
        })
        .unwrap();
    assert!(r.ok);
    assert_eq!(r.found, Some(true));
    assert_eq!(r.ir, Some(1));
    assert_eq!(r.asn, Some(101));

    let r = c
        .call(&Request {
            addr: Some("10.200.0.1".to_string()),
            ..Request::verb("lookup_prefix")
        })
        .unwrap();
    assert_eq!(r.prefix.as_deref(), Some("10.0.0.0/8"));
    assert_eq!(r.origin, Some(10));

    let r = c
        .call(&Request {
            ir: Some(3),
            ..Request::verb("router")
        })
        .unwrap();
    assert_eq!(r.asn, Some(103));
    assert_eq!(r.ifaces.as_ref().map(Vec::len), Some(4));

    let r = c
        .call(&Request {
            asn: Some(101),
            ..Request::verb("links_of_as")
        })
        .unwrap();
    assert_eq!(r.links.as_ref().map(Vec::len), Some(1));

    let r = c.call(&Request::verb("stats")).unwrap();
    let s = r.stats.unwrap();
    assert_eq!(
        (s.annotations, s.links, s.routers, s.prefixes),
        (64, 1, 16, 2)
    );
    // A live server reports uptime and per-verb latency; the four verbs
    // exercised above (on this same persistent connection, so strictly
    // before the stats dispatch) each show up with one request.
    assert!(s.uptime_ms.is_some());
    let verbs = s.verbs.expect("live server reports per-verb stats");
    for verb in ["lookup_addr", "lookup_prefix", "router", "links_of_as"] {
        let row = &verbs[verb];
        assert_eq!(row.requests, 1, "{verb}");
        assert!(row.p99_us >= row.p50_us, "{verb}");
    }

    running.shutdown();
}

#[test]
fn malformed_lines_answer_without_dropping_the_connection() {
    let running = start();
    let mut c = Client::connect(running.addr()).unwrap();
    let raw = c.call_raw("this is not json").unwrap();
    assert!(raw.contains("\"ok\":false"), "{raw}");
    // The connection survives; a well-formed request still works.
    let r = c.call(&Request::verb("stats")).unwrap();
    assert!(r.ok);
    running.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let running = start();
    let addr = running.addr();
    // detlint::allow(unscoped-thread): test-only client concurrency against
    // a read-only snapshot; assertions are per-thread and order-free
    crossbeam::thread::scope(|s| {
        for t in 0u32..8 {
            s.spawn(move |_| {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..50 {
                    let idx = (t * 50 + i) % 64;
                    let addr_text = format!("10.0.0.{idx}");
                    let r = c
                        .call(&Request {
                            addr: Some(addr_text),
                            ..Request::verb("lookup_addr")
                        })
                        .unwrap();
                    assert_eq!(r.found, Some(true));
                    assert_eq!(r.asn, Some(100 + idx / 4));
                }
            });
        }
    })
    .unwrap();
    running.shutdown();
}

#[test]
fn shutdown_is_graceful_and_prompt() {
    let running = start();
    let addr = running.addr();
    let mut c = Client::connect(addr).unwrap();
    assert!(c.call(&Request::verb("stats")).unwrap().ok);
    running.shutdown(); // joins the accept loop and workers
                        // New connections are no longer served.
    let mut refused = false;
    for _ in 0..10 {
        match Client::connect(addr) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(mut c2) => {
                if c2.call(&Request::verb("stats")).is_err() {
                    refused = true;
                    break;
                }
            }
        }
    }
    assert!(refused, "server kept answering after shutdown");
}

#[test]
fn counters_flow_through_the_recorder() {
    let rec = obs::Recorder::new(false);
    let server = Server::bind(
        "127.0.0.1:0",
        test_snapshot(),
        ServerConfig::default(),
        rec.clone(),
    )
    .unwrap();
    let running = server.spawn_background();
    let mut c = Client::connect(running.addr()).unwrap();
    for _ in 0..3 {
        assert!(c.call(&Request::verb("stats")).unwrap().ok);
    }
    let _ = c.call_raw("junk").unwrap();
    drop(c);
    running.shutdown();
    let report = rec.report();
    // Exec-class only: traffic must never contaminate deterministic counters.
    assert!(report.counters.is_empty());
    assert!(report.exec["serve.requests"] >= 4);
    assert!(report.exec["serve.connections"] >= 1);
    assert!(report.exec["serve.errors"] >= 1);
}

#[test]
fn oversized_line_is_refused_and_the_worker_moves_on() {
    let rec = obs::Recorder::new(false);
    let server = Server::bind(
        "127.0.0.1:0",
        test_snapshot(),
        ServerConfig {
            workers: 1,
            read_timeout: Duration::from_secs(5),
        },
        rec.clone(),
    )
    .unwrap();
    let running = server.spawn_background();

    // A line exactly at the cap is still a request (malformed, answered).
    let mut c = Client::connect(running.addr()).unwrap();
    let raw = c.call_raw(&"x".repeat(MAX_REQUEST_LINE)).unwrap();
    assert!(raw.contains("\"ok\":false"), "{raw}");
    assert!(c.call(&Request::verb("stats")).unwrap().ok);
    drop(c);

    // One byte over: an error response, then the server closes.
    let mut s = TcpStream::connect(running.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut line = "x".repeat(MAX_REQUEST_LINE + 1).into_bytes();
    line.push(b'\n');
    s.write_all(&line).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("exceeds"), "{resp}");
    let mut rest = Vec::new();
    // Closed: EOF, or a reset because the unread tail was discarded.
    if let Ok(n) = reader.read_to_end(&mut rest) {
        assert_eq!(n, 0, "nothing follows the error response");
    }
    drop(reader);
    drop(s);

    // The single worker is free again and serves the next connection.
    let mut c = Client::connect(running.addr()).unwrap();
    assert!(c.call(&Request::verb("stats")).unwrap().ok);
    drop(c);
    running.shutdown();
    assert!(rec.report().exec["serve.errors"] >= 2);
}

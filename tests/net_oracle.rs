//! End-to-end differential oracle for the networked KV service.
//!
//! The strongest correctness statement the repo can make about the
//! network path: a randomized operation stream driven through a **real
//! socket** (encode → TCP → epoll server → run-segmented batch
//! execution → encode → TCP → decode) produces, response by response,
//! exactly what an in-process twin of the same table produces. Every
//! scheme from the shared grid is covered, so a scheme whose batch
//! kernels disagree with its point ops — or a codec bug that survives
//! round-trip tests — fails here with the op sequence in hand.
//!
//! Runs only on Linux (the server is epoll-based).

#![cfg(target_os = "linux")]

mod tests_common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seven_dim_hashing::net::protocol::{Op, OpResponse, ProtoError, Request, Response};
use seven_dim_hashing::net::{KvClient, KvServer};
use seven_dim_hashing::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use tests_common::all_schemes;

/// Key universe: small enough to force collisions, replacements, and
/// deletes of absent keys; clear of the reserved control keys.
const KEYS: u64 = 150;

/// Frames per scheme. Each frame is 1 op or a batch of up to 12, so a
/// stream is a few hundred table ops — enough churn to hit replaced
/// inserts, tombstones, and (for chained tables) budget behavior.
const FRAMES: usize = 400;

fn random_op(rng: &mut StdRng) -> Op {
    let key = rng.gen_range(1..=KEYS);
    match rng.gen_range(0..10u32) {
        0..=4 => Op::Get(key),
        5..=7 => Op::Put(key, rng.gen_range(0..1_000_000)),
        _ => Op::Del(key),
    }
}

/// Apply one op to the in-process twin through the same trait the
/// server uses, producing the response the wire must carry.
fn apply_twin(table: &dyn ConcurrentTable, op: Op) -> OpResponse {
    match op {
        Op::Get(k) => OpResponse::Get(table.lookup_shared(k)),
        Op::Put(k, v) => OpResponse::Put(table.insert_shared(k, v)),
        Op::Del(k) => OpResponse::Del(table.delete_shared(k)),
    }
}

fn expected_response(twin: &dyn ConcurrentTable, req: &Request) -> Response {
    match req {
        Request::Get(k) => match apply_twin(twin, Op::Get(*k)) {
            OpResponse::Get(v) => Response::Get(v),
            _ => unreachable!(),
        },
        Request::Put(k, v) => match apply_twin(twin, Op::Put(*k, *v)) {
            OpResponse::Put(r) => Response::Put(r),
            _ => unreachable!(),
        },
        Request::Del(k) => match apply_twin(twin, Op::Del(*k)) {
            OpResponse::Del(v) => Response::Del(v),
            _ => unreachable!(),
        },
        Request::Batch(ops) => {
            Response::Batch(ops.iter().map(|&op| apply_twin(twin, op)).collect())
        }
    }
}

/// Twin builders: the served table and the oracle table are built from
/// the *same* configuration (scheme, bits, seed, shards), so any
/// divergence is the network path's fault, not table nondeterminism.
fn build_pair(
    scheme: TableScheme,
    seed: u64,
) -> (Arc<dyn ConcurrentTable>, Arc<dyn ConcurrentTable>) {
    let builder = TableBuilder::new(scheme).bits(10).seed(seed).shards(2).optimistic_reads(true);
    (Arc::new(builder.build_sharded()), Arc::new(builder.build_sharded()))
}

#[test]
fn randomized_streams_match_an_in_process_twin_for_every_scheme() {
    for (i, scheme) in all_schemes().into_iter().enumerate() {
        let (served, twin) = build_pair(scheme, 42 + i as u64);
        let server = KvServer::spawn("127.0.0.1:0", served).expect("spawn server");
        let mut client = KvClient::connect(server.addr()).expect("connect");
        let mut rng = StdRng::seed_from_u64(0xD1FF + i as u64);

        let mut sent = 0usize;
        while sent < FRAMES {
            // A pipelined segment: several frames flushed together, then
            // responses checked in FIFO order against the twin.
            let segment = rng.gen_range(1..=24usize).min(FRAMES - sent);
            let mut expected = Vec::with_capacity(segment);
            for _ in 0..segment {
                let req = if rng.gen_range(0..8u32) == 0 {
                    let n = rng.gen_range(0..=12usize);
                    Request::Batch((0..n).map(|_| random_op(&mut rng)).collect())
                } else {
                    match random_op(&mut rng) {
                        Op::Get(k) => Request::Get(k),
                        Op::Put(k, v) => Request::Put(k, v),
                        Op::Del(k) => Request::Del(k),
                    }
                };
                // The twin applies ops in enqueue order — exactly the
                // order the server's FIFO pipeline must preserve.
                expected.push((client.enqueue(&req), expected_response(&*twin, &req)));
                sent += 1;
            }
            client.flush().expect("flush");
            for (id, want) in expected {
                let (got_id, got) = client.recv().expect("recv");
                assert_eq!(got_id, id, "{scheme:?}: FIFO order broken");
                assert_eq!(got, want, "{scheme:?}: wire response diverged from twin");
            }
        }

        // Both tables saw identical streams; their sizes must agree too.
        let served_len = {
            let mut c = KvClient::connect(server.addr()).expect("connect");
            // No LEN opcode — count live keys by probing the universe.
            let probes: Vec<Op> = (1..=KEYS).map(Op::Get).collect();
            c.batch(&probes)
                .expect("batch")
                .into_iter()
                .filter(|r| matches!(r, OpResponse::Get(Some(_))))
                .count()
        };
        assert_eq!(served_len, twin.len_shared(), "{scheme:?}: table sizes diverged");

        let stats = server.shutdown().expect("shutdown");
        assert_eq!(stats.protocol_closes, 0, "{scheme:?}: well-formed stream closed a conn");
        assert_eq!(stats.io_closes, 0, "{scheme:?}");
    }
}

#[test]
fn malformed_frames_close_their_connection_and_nothing_else() {
    let (served, _twin) = build_pair(TableScheme::LinearProbing, 7);
    let server = KvServer::spawn("127.0.0.1:0", served).expect("spawn server");
    let mut durable = KvClient::connect(server.addr()).expect("connect durable");
    assert!(durable.put(1, 11).expect("put").is_ok());

    // Four distinct corruption styles, each on a fresh connection; all
    // must end in EOF for that connection only.
    let mut good = Vec::new();
    seven_dim_hashing::net::protocol::encode_request(1, &Request::Get(1), &mut good);
    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("garbage magic", b"NOPE the wrong protocol entirely".to_vec()),
        ("bad version", {
            let mut f = good.clone();
            f[4] = 99; // version byte; checksum now also mismatches
            f
        }),
        ("corrupted checksum", {
            let mut f = good.clone();
            f[23] ^= 0xFF; // last byte of the header checksum field
            f
        }),
        (
            "truncated then closed",
            good[..10].to_vec(), // header fragment, then EOF mid-frame
        ),
    ];
    let n = corruptions.len() as u64;
    for (what, bytes) in corruptions {
        let mut socket = TcpStream::connect(server.addr()).expect("connect hostile");
        socket.write_all(&bytes).expect("write");
        // Half-close so the truncated case reaches EOF instead of the
        // server (correctly) waiting forever for the rest of the frame.
        socket.shutdown(std::net::Shutdown::Write).expect("shutdown write half");
        let mut rest = Vec::new();
        socket.read_to_end(&mut rest).expect("server closes the connection");
        assert!(rest.is_empty(), "{what}: no response owed for a poisoned stream");
        // The durable connection sails on.
        assert_eq!(durable.get(1).expect("get"), Some(11), "{what}: healthy conn affected");
    }

    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.accepted, 1 + n);
    // The mid-frame EOF is a clean close, not a protocol violation.
    assert_eq!(stats.protocol_closes, n - 1);
    assert!(stats.last_protocol_error.is_some());
    assert!(
        !matches!(stats.last_protocol_error, Some(ProtoError::Malformed(_))),
        "header-level garbage must be caught before payload parsing: {:?}",
        stats.last_protocol_error
    );
}

#[test]
fn pipelined_batches_interleave_with_point_frames_correctly() {
    // A focused regression for run segmentation: PUT/GET/DEL point
    // frames interleaved with batches touching the same keys, checked
    // against the twin with exact FIFO accounting.
    let (served, twin) = build_pair(TableScheme::RobinHood, 99);
    let server = KvServer::spawn("127.0.0.1:0", served).expect("spawn server");
    let mut client = KvClient::connect(server.addr()).expect("connect");
    let reqs = [
        Request::Put(5, 50),
        Request::Put(6, 60),
        Request::Batch(vec![Op::Get(5), Op::Put(5, 51), Op::Get(5), Op::Del(6), Op::Get(6)]),
        Request::Get(5),
        Request::Del(5),
        Request::Get(5),
        Request::Batch(vec![Op::Put(5, 52), Op::Put(5, 53)]),
        Request::Get(5),
    ];
    let expected: Vec<(u64, Response)> =
        reqs.iter().map(|r| (client.enqueue(r), expected_response(&*twin, r))).collect();
    client.flush().expect("flush");
    for (id, want) in expected {
        let (got_id, got) = client.recv().expect("recv");
        assert_eq!(got_id, id);
        assert_eq!(got, want);
    }
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.frames, reqs.len() as u64);
    assert_eq!(stats.ops, 6 + 7);
}

// ---- multi-worker oracle -------------------------------------------------
//
// With N workers the cross-client interleaving at the table is real
// concurrency, so a sequential twin table can no longer predict it.
// Instead each client owns a *disjoint* key range and models it with a
// HashMap: within a range only that client's (FIFO-ordered) stream
// touches the keys, so per-client responses stay exactly predictable no
// matter how workers interleave — and the final table contents must be
// the union of the models.

/// Clients driven concurrently against the multi-worker server.
const CLIENTS: usize = 4;
/// Keys per client range (client `c` owns `1 + c*RANGE ..= (c+1)*RANGE`,
/// staying clear of the reserved key 0).
const RANGE: u64 = 64;
/// Frames per client per configuration.
const CLIENT_FRAMES: usize = 120;

fn random_ranged_op(rng: &mut StdRng, lo: u64) -> Op {
    let key = rng.gen_range(lo..lo + RANGE);
    match rng.gen_range(0..10u32) {
        0..=4 => Op::Get(key),
        5..=7 => Op::Put(key, rng.gen_range(0..1_000_000)),
        _ => Op::Del(key),
    }
}

/// Apply one op to a client's HashMap model, producing the response the
/// wire must carry. Exact because the tables never refuse an insert at
/// this load (<= 256 keys in 2^10-slot shards).
fn model_op(model: &mut HashMap<u64, u64>, op: Op) -> OpResponse {
    match op {
        Op::Get(k) => OpResponse::Get(model.get(&k).copied()),
        Op::Put(k, v) => OpResponse::Put(Ok(match model.insert(k, v) {
            Some(old) => InsertOutcome::Replaced(old),
            None => InsertOutcome::Inserted,
        })),
        Op::Del(k) => OpResponse::Del(model.remove(&k)),
    }
}

fn model_response(model: &mut HashMap<u64, u64>, req: &Request) -> Response {
    match req {
        Request::Get(k) => match model_op(model, Op::Get(*k)) {
            OpResponse::Get(v) => Response::Get(v),
            _ => unreachable!(),
        },
        Request::Put(k, v) => match model_op(model, Op::Put(*k, *v)) {
            OpResponse::Put(r) => Response::Put(r),
            _ => unreachable!(),
        },
        Request::Del(k) => match model_op(model, Op::Del(*k)) {
            OpResponse::Del(v) => Response::Del(v),
            _ => unreachable!(),
        },
        Request::Batch(ops) => Response::Batch(ops.iter().map(|&op| model_op(model, op)).collect()),
    }
}

/// One concurrent client: a randomized pipelined stream over its own
/// key range, every response checked against the model as it arrives.
/// Returns the model for the union check.
fn client_stream(addr: SocketAddr, client_idx: u64, seed: u64) -> HashMap<u64, u64> {
    let lo = 1 + client_idx * RANGE;
    let mut client = KvClient::connect(addr).expect("connect");
    let mut model = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sent = 0usize;
    while sent < CLIENT_FRAMES {
        let segment = rng.gen_range(1..=16usize).min(CLIENT_FRAMES - sent);
        let mut expected = Vec::with_capacity(segment);
        for _ in 0..segment {
            let req = if rng.gen_range(0..8u32) == 0 {
                let n = rng.gen_range(0..=8usize);
                Request::Batch((0..n).map(|_| random_ranged_op(&mut rng, lo)).collect())
            } else {
                match random_ranged_op(&mut rng, lo) {
                    Op::Get(k) => Request::Get(k),
                    Op::Put(k, v) => Request::Put(k, v),
                    Op::Del(k) => Request::Del(k),
                }
            };
            expected.push((client.enqueue(&req), model_response(&mut model, &req)));
            sent += 1;
        }
        client.flush().expect("flush");
        for (id, want) in expected {
            let (got_id, got) = client.recv().expect("recv");
            assert_eq!(got_id, id, "client {client_idx}: FIFO order broken");
            assert_eq!(got, want, "client {client_idx}: response diverged from model");
        }
    }
    model
}

#[test]
fn multi_worker_concurrent_streams_match_per_client_models_for_every_scheme() {
    for (i, scheme) in all_schemes().into_iter().enumerate() {
        for (j, optimistic) in [true, false].into_iter().enumerate() {
            // Alternate the accept path across the grid so both the
            // SO_REUSEPORT and the mailbox hand-off get scheme-wide
            // coverage without doubling the runtime.
            let accept = if (i + j) % 2 == 0 { AcceptMode::ReusePort } else { AcceptMode::Mailbox };
            let builder = TableBuilder::new(scheme)
                .bits(10)
                .seed(0xA11 + i as u64)
                .shards(2)
                .optimistic_reads(optimistic);
            let served: Arc<dyn ConcurrentTable> = Arc::new(builder.build_sharded());
            let server = KvServer::builder()
                .threads(2)
                .accept(accept)
                .spawn("127.0.0.1:0", served)
                .expect("spawn server");
            assert_eq!(server.threads(), 2);
            let addr = server.addr();

            let joins: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let seed = 0xC11E + ((i as u64) << 16) + ((j as u64) << 8) + c;
                    std::thread::spawn(move || client_stream(addr, c, seed))
                })
                .collect();
            let mut union: HashMap<u64, u64> = HashMap::new();
            for join in joins {
                union.extend(join.join().expect("client thread panicked"));
            }

            // The table must now hold exactly the union of the disjoint
            // per-client models.
            let all_keys: Vec<Op> = (1..=CLIENTS as u64 * RANGE).map(Op::Get).collect();
            let probed = {
                let mut c = KvClient::connect(addr).expect("connect probe");
                c.batch(&all_keys).expect("probe batch")
            };
            for (k, got) in (1..=CLIENTS as u64 * RANGE).zip(probed) {
                assert_eq!(
                    got,
                    OpResponse::Get(union.get(&k).copied()),
                    "{scheme:?} optimistic={optimistic} {accept:?}: key {k} diverged"
                );
            }

            let stats = server.shutdown().expect("shutdown");
            let label = format!("{scheme:?} optimistic={optimistic} {accept:?}");
            assert_eq!(stats.accepted, CLIENTS as u64 + 1, "{label}");
            assert_eq!(stats.protocol_closes, 0, "{label}: well-formed stream closed a conn");
            assert_eq!(stats.io_closes, 0, "{label}");
        }
    }
}

#[test]
fn shutdown_drains_buffered_responses_to_concurrent_readers() {
    // Clients flush a deep pipeline and *don't read* until shutdown has
    // begun: every request the server answered before the signal must
    // still reach its client (the drain guarantee), followed by EOF.
    const DRAIN_CLIENTS: usize = 3;
    const DRAIN_FRAMES: usize = 200;
    let table: Arc<dyn ConcurrentTable> = Arc::new(
        TableBuilder::new(TableScheme::LinearProbing)
            .bits(10)
            .shards(2)
            .optimistic_reads(true)
            .build_sharded(),
    );
    let server = KvServer::builder().threads(2).spawn("127.0.0.1:0", table).expect("spawn server");
    let addr = server.addr();

    // Barrier A: all clients have flushed. Barrier B: shutdown is about
    // to be signalled, clients may start reading (concurrently with the
    // workers' drain pass).
    let flushed = Arc::new(Barrier::new(DRAIN_CLIENTS + 1));
    let reading = Arc::new(Barrier::new(DRAIN_CLIENTS + 1));
    let joins: Vec<_> = (0..DRAIN_CLIENTS)
        .map(|c| {
            let (flushed, reading) = (Arc::clone(&flushed), Arc::clone(&reading));
            std::thread::spawn(move || {
                let mut client = KvClient::connect(addr).expect("connect");
                let ids: Vec<u64> = (0..DRAIN_FRAMES)
                    .map(|i| client.enqueue(&Request::Put(1 + (c * DRAIN_FRAMES + i) as u64, 7)))
                    .collect();
                client.flush().expect("flush");
                flushed.wait();
                reading.wait();
                for id in ids {
                    let (got_id, resp) = client.recv().expect("drained response");
                    assert_eq!(got_id, id, "client {c}: FIFO order broken");
                    assert!(matches!(resp, Response::Put(Ok(_))), "client {c}");
                }
                // Nothing further is owed: the worker closes the socket
                // once its buffered responses are flushed.
                let err = client.recv().expect_err("EOF after the drained responses");
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "client {c}");
            })
        })
        .collect();

    flushed.wait();
    // Wait until the workers have *answered* every frame, so the full
    // response volume is buffered (server-side or in socket buffers)
    // when shutdown begins.
    let total = (DRAIN_CLIENTS * DRAIN_FRAMES) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().frames < total {
        assert!(std::time::Instant::now() < deadline, "server never answered all frames");
        std::thread::yield_now();
    }
    reading.wait();
    let stats = server.shutdown().expect("shutdown");
    for join in joins {
        join.join().expect("client thread panicked");
    }
    assert_eq!(stats.frames, total);
    assert_eq!(stats.ops, total);
    assert_eq!(stats.protocol_closes, 0);
    assert_eq!(stats.io_closes, 0);
}

#[test]
fn spawn_serve_shutdown_cycle_leaks_no_file_descriptors() {
    // Every fd the server opens (epoll instances, wake pipes, listeners,
    // accepted sockets) must be closed by shutdown. Other tests in this
    // binary run concurrently and open fds between any two snapshots, so
    // the count is exact only in a process of its own: the test re-runs
    // itself alone in a child and asserts there.
    const CHILD: &str = "NET_ORACLE_FD_CYCLE_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let name = "spawn_serve_shutdown_cycle_leaks_no_file_descriptors";
        let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", name, "--test-threads", "1", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .expect("run the fd cycle in a child process");
        let log = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "fd cycle failed in the child:\n{log}");
        assert!(log.contains("1 passed"), "the child ran no fd cycle:\n{log}");
        return;
    }
    fn count_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").expect("procfs").count()
    }
    let before = count_fds();
    let table: Arc<dyn ConcurrentTable> =
        Arc::new(TableBuilder::new(TableScheme::LinearProbing).bits(8).shards(2).build_sharded());
    let server = KvServer::builder().threads(3).spawn("127.0.0.1:0", table).expect("spawn server");
    let mut client = KvClient::connect(server.addr()).expect("connect");
    assert!(client.put(1, 1).expect("put").is_ok());
    drop(client);
    server.shutdown().expect("shutdown");
    let after = count_fds();
    assert_eq!(before, after, "fd count changed across a spawn/shutdown cycle");
}

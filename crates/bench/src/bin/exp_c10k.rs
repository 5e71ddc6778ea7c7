//! C10K — many held connections, few transport threads.
//!
//! The paper sizes the GIIS/GRIS architecture for "large numbers of
//! concurrent requests" across VOs, and the MDS performance literature
//! shows thread-per-connection information services falling over
//! exactly when concurrent-user counts climb. PR 8 rebuilt the TCP
//! transport on a readiness-driven reactor: a handful of shard threads
//! own every nonblocking socket, so held connections cost a table entry
//! and a decoder — not a stack.
//!
//! This experiment holds thousands of live TCP client connections
//! against one pooled GRIS (plus a chained GIIS row for the fan-out
//! path) from a **separate OS process**, sweeping connection count ×
//! active fraction. Per row it reports query completion and, sampled
//! from the server process itself, OS thread count and resident memory
//! — the two curves that stay flat where a thread-per-connection build
//! would grow by one stack per client.
//!
//! Protocol: the parent re-executes itself with `--fleet`; the child
//! opens connections in paced nonblocking waves (public
//! [`gis_core::reactor::Poller`]), keeps every socket open for the rest
//! of the run (connection growth is monotonic), and per row drives a
//! corked burst of multiplex-enveloped lookups over a strided subset of
//! connections, printing machine-parsable `ROW` lines the parent
//! annotates with `/proc/self/status` samples.
//!
//! `--smoke` shrinks the sweep for CI and *gates*: every query answered
//! and server transport threads ≤ `GIS_C10K_MAX_THREADS` (default 32 —
//! O(shards), two orders of magnitude under the connection count).
//! `--json PATH` dumps the sweep for `scripts/bench_snapshot.sh`.
//! Runners whose `RLIMIT_NOFILE` hard cap cannot hold the smallest row
//! skip with a warning (exit 0) rather than fail.

use gis_bench::{banner, computers, f2, section, warm, Args, Json, Table};
use gis_core::reactor::{connect_nonblocking, reactor_shards, take_socket_error, Poller};
use gis_core::{LiveClient, LiveRuntime, ServeOptions, SimDeployment, TcpTuning};
use gis_giis::{Giis, GiisConfig, GiisMode};
use gis_ldap::{Dn, LdapUrl};
use gis_netsim::SimDuration;
use gis_proto::frame::{encode_mux_frame_limited, FrameDecoder};
use gis_proto::{GripReply, GripRequest, ProtocolMessage, ResultCode, SearchSpec, MAX_FRAME};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Full sweep: connection count × fraction of connections actively
/// querying while the rest are held open (the paper's registered-but-
/// quiet GRIS population).
const SWEEP_CONNS: [usize; 3] = [2_500, 5_000, 10_000];
const SMOKE_CONNS: [usize; 2] = [500, 2_000];
const ACTIVE_FRACS: [f64; 2] = [0.01, 0.10];
const SMOKE_FRACS: [f64; 1] = [0.05];
/// Connections held against the chained GIIS (fan-out path) row.
const GIIS_CONNS: usize = 1_000;
const SMOKE_GIIS_CONNS: usize = 200;
/// Queries per active connection per row.
const QUERIES_PER_ACTIVE: usize = 20;
/// Nonblocking connect wave width — under the listener's backlog so
/// paced waves never overflow the SYN queue into 1s retransmits.
const WAVE: usize = 100;
/// fds reserved for everything that is not a fleet connection
/// (listener, reactor wakeups, stdio, persistence, slack).
const FD_SLACK: u64 = 512;
const DEFAULT_MAX_THREADS: u64 = 32;

// ---------------------------------------------------------------------
// RLIMIT_NOFILE: raw syscalls, same no-new-deps rule as the reactor.

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Raise the soft fd limit to the hard cap; returns the resulting soft
/// limit (or a conservative floor when even `getrlimit` fails).
fn raise_nofile() -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024;
    }
    if lim.cur < lim.max {
        let want = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
            return lim.max;
        }
    }
    lim.cur
}

// ---------------------------------------------------------------------
// Server-process introspection.

/// (`Threads`, `VmRSS` in MiB) of this process, from `/proc/self/status`.
fn self_threads_rss() -> (u64, f64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0.0);
    };
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:") as f64 / 1024.0)
}

// ---------------------------------------------------------------------
// Fleet child: holds the connections, drives the bursts.

/// One held connection (kept nonblocking while idle).
struct Held {
    sock: TcpStream,
}

/// Grow `pool` to `target` connections against `addr`, in paced
/// nonblocking waves. Failed dials are retried; a wave that cannot
/// complete within 30s aborts the run.
fn grow_pool(pool: &mut Vec<Held>, addr: SocketAddr, target: usize) {
    let poller = Poller::new().expect("fleet poller");
    let deadline = Instant::now() + Duration::from_secs(120);
    while pool.len() < target {
        let wave = (target - pool.len()).min(WAVE);
        // token → in-flight socket for this wave.
        let mut dialing: Vec<Option<TcpStream>> = Vec::with_capacity(wave);
        for _ in 0..wave {
            match connect_nonblocking(&addr) {
                Ok((sock, true)) => pool.push(Held { sock }),
                Ok((sock, false)) => {
                    poller
                        .add(sock.as_raw_fd(), dialing.len() as u64 + 1, false, true)
                        .expect("register dial");
                    dialing.push(Some(sock));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        let mut outstanding = dialing.iter().filter(|d| d.is_some()).count();
        let mut events = Vec::new();
        while outstanding > 0 {
            assert!(
                Instant::now() < deadline,
                "fleet: connect wave stuck at {} conns",
                pool.len()
            );
            poller
                .wait(&mut events, Some(Duration::from_millis(200)))
                .expect("poller wait");
            for ev in events.drain(..) {
                let slot = (ev.token - 1) as usize;
                let Some(sock) = dialing[slot].take() else {
                    continue;
                };
                poller.delete(sock.as_raw_fd()).ok();
                outstanding -= 1;
                if take_socket_error(&sock).is_ok() {
                    pool.push(Held { sock });
                }
                // A refused/reset dial is simply retried by the next
                // wave (pool.len() still short of target).
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drive `queries` multiplex-enveloped searches down one held
/// connection as a single corked burst, then read replies until all are
/// answered (or the deadline passes). Returns answered-with-Success.
fn burst(conn: &mut Held, spec: &SearchSpec, queries: usize) -> usize {
    // The burst itself is the only traffic on this socket: blocking
    // mode is simpler and cannot stall anything else.
    conn.sock.set_nonblocking(false).expect("blocking");
    conn.sock
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut wire = bytes::BytesMut::new();
    for id in 1..=queries as u64 {
        let msg = ProtocolMessage::Request(GripRequest::Search {
            id,
            spec: spec.clone(),
        });
        encode_mux_frame_limited(id, &msg, &mut wire, MAX_FRAME).expect("encode");
    }
    if conn.sock.write_all(&wire).is_err() {
        let _ = conn.sock.set_nonblocking(true);
        return 0;
    }
    let mut dec = FrameDecoder::with_max_frame(MAX_FRAME);
    let mut chunk = [0u8; 16 * 1024];
    let mut ok = 0;
    let mut answered = 0;
    'read: while answered < queries {
        match conn.sock.read(&mut chunk) {
            Ok(0) | Err(_) => break 'read,
            Ok(n) => {
                dec.feed(&chunk[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            if let ProtocolMessage::Reply(GripReply::SearchResult {
                                code, ..
                            }) = frame.msg
                            {
                                answered += 1;
                                if code == ResultCode::Success {
                                    ok += 1;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => break 'read,
                    }
                }
            }
        }
    }
    let _ = conn.sock.set_nonblocking(true);
    ok
}

/// Child entry: `--fleet <gris_addr> <giis_addr> <rowspec> <queries>`.
/// Rowspec is `target:conns:frac` triples, comma-separated, `g` = GRIS,
/// `v` = GIIS; connection counts must be non-decreasing per target.
fn run_fleet(gris: SocketAddr, giis: SocketAddr, rowspec: &str, queries: usize) {
    raise_nofile();
    let gris_spec = SearchSpec::lookup(Dn::parse("hn=c10k0").expect("dn"));
    let giis_spec = computers();
    let mut gris_pool: Vec<Held> = Vec::new();
    let mut giis_pool: Vec<Held> = Vec::new();
    for row in rowspec.split(',') {
        let mut parts = row.split(':');
        let target = parts.next().expect("row target");
        let conns: usize = parts.next().expect("row conns").parse().expect("conns");
        let frac: f64 = parts.next().expect("row frac").parse().expect("frac");
        let (pool, addr, spec) = if target == "v" {
            (&mut giis_pool, giis, &giis_spec)
        } else {
            (&mut gris_pool, gris, &gris_spec)
        };
        grow_pool(pool, addr, conns);
        let active = ((conns as f64 * frac).round() as usize).clamp(1, conns);
        let stride = (conns / active).max(1);
        let start = Instant::now();
        let mut ok = 0;
        for i in 0..active {
            ok += burst(&mut pool[(i * stride) % conns], spec, queries);
        }
        let secs = start.elapsed().as_secs_f64();
        // All connections stay open: the parent samples its own thread
        // and memory footprint the moment it reads this line.
        println!(
            "ROW target={target} conns={conns} active={active} ok={ok} total={} secs={secs:.3}",
            active * queries
        );
    }
    println!("DONE");
}

// ---------------------------------------------------------------------
// Parent: server runtime, child supervision, reporting.

struct RowResult {
    target: String,
    conns: usize,
    active: usize,
    ok: usize,
    total: usize,
    secs: f64,
    threads: u64,
    rss_mb: f64,
}

/// Chaining GIIS + one registered static GRIS, both pooled, both on TCP
/// with connection slots sized for the sweep.
fn build_topology(fd_budget: usize) -> (LiveRuntime, LdapUrl, LdapUrl) {
    let tuning = TcpTuning {
        max_conns: fd_budget,
        mux_depth: 64,
        ..TcpTuning::default()
    };
    let opts = ServeOptions::tcp().with_workers(2).with_tuning(tuning);
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let mut giis = Giis::new(
        GiisConfig::chaining(LdapUrl::tcp("127.0.0.1", 0), Dn::root()),
        SimDuration::from_millis(500),
        SimDuration::from_secs(30),
    );
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(2_000),
    };
    let vo = rt.spawn_giis(giis, opts.clone()).expect("spawn giis");

    let host = gis_gris::HostSpec::linux("c10k0", 2);
    let mut gris = SimDeployment::standard_host_gris(&host, 0);
    gris.config.url = LdapUrl::tcp("127.0.0.1", 0);
    gris.agent.add_target(vo.clone());
    gris.agent.interval = SimDuration::from_millis(500);
    gris.agent.ttl = SimDuration::from_secs(30);
    let gris_url = rt.spawn_gris(gris, opts).expect("spawn gris");
    (rt, gris_url, vo)
}

/// The JSON dump: every row, plus the largest fully answered GRIS
/// row's footprint.
fn rows_json(rows: &[RowResult], queries: usize, shards: usize) -> Json {
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::new()
                .str("target", &r.target)
                .num("conns", r.conns)
                .num("active", r.active)
                .num("ok", r.ok)
                .num("total", r.total)
                .num("secs", format!("{:.3}", r.secs))
                .num("server_threads", r.threads)
                .num("server_rss_mb", format!("{:.1}", r.rss_mb))
        })
        .collect();
    let max_complete = rows
        .iter()
        .filter(|r| r.target == "gris" && r.ok == r.total)
        .map(|r| r.conns)
        .max()
        .unwrap_or(0);
    let at_max = || {
        rows.iter()
            .filter(move |r| r.target == "gris" && r.conns == max_complete)
    };
    let threads_at_max = at_max().map(|r| r.threads).max().unwrap_or(0);
    let rss_at_max = at_max().map(|r| r.rss_mb).fold(0.0f64, f64::max);
    Json::new()
        .num("queries_per_active", queries)
        .num("reactor_shards", shards)
        .rows("rows", &json_rows)
        .obj(
            "derived",
            Json::new()
                .num("c10k_max_conns", max_complete)
                .num("threads_at_10k", threads_at_max)
                .num("rss_mb_at_max", format!("{rss_at_max:.1}")),
        )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--fleet") {
        let i = args.iter().position(|a| a == "--fleet").unwrap();
        let gris: SocketAddr = args[i + 1].parse().expect("gris addr");
        let giis: SocketAddr = args[i + 2].parse().expect("giis addr");
        let queries: usize = args[i + 4].parse().expect("queries");
        run_fleet(gris, giis, &args[i + 3], queries);
        return;
    }
    let Args { smoke, json } = Args::parse();

    banner(
        "C10K",
        "thousands of held connections, O(shards) transport threads",
        "a reactor shard owns sockets by the thousand; a thread-per-connection build owns one stack each",
    );

    // fd budget: the *server* process holds one fd per fleet connection
    // (plus chained-GIIS internals); the child holds the same count.
    // Both raise their soft limit to the hard cap.
    let limit = raise_nofile();
    let budget = limit.saturating_sub(FD_SLACK) as usize;
    let (conn_steps, fracs, giis_conns, queries) = if smoke {
        (
            SMOKE_CONNS.to_vec(),
            SMOKE_FRACS.to_vec(),
            SMOKE_GIIS_CONNS,
            QUERIES_PER_ACTIVE / 2,
        )
    } else {
        (
            SWEEP_CONNS.to_vec(),
            ACTIVE_FRACS.to_vec(),
            GIIS_CONNS,
            QUERIES_PER_ACTIVE,
        )
    };
    let conn_steps: Vec<usize> = conn_steps
        .into_iter()
        .filter(|&c| c + giis_conns <= budget)
        .collect();
    if conn_steps.is_empty() {
        println!(
            "warning: RLIMIT_NOFILE cap {limit} cannot hold the smallest sweep row; \
             skipping (raise the hard limit to run exp_c10k)"
        );
        return;
    }
    let max_conns = *conn_steps.last().unwrap();
    println!(
        "sweep: {conn_steps:?} conns x active fraction {fracs:?} against a pooled\n\
         GRIS, plus {giis_conns} conns against a chaining GIIS; {queries} queries\n\
         per active conn; fd soft limit {limit}. connections live in a separate\n\
         OS process and stay open for the whole run.\n"
    );

    let (rt, gris_url, vo) = build_topology(max_conns + giis_conns + FD_SLACK as usize / 2);
    // Chained searches would otherwise race the GRIS's first
    // registration.
    warm(
        &mut LiveClient::builder(&vo).connect().expect("connect giis"),
        &vo,
        &computers(),
        1,
    );
    let (threads0, rss0) = self_threads_rss();
    println!("server at rest: {threads0} threads, {rss0:.1} MiB RSS\n");

    let mut rowspec = Vec::new();
    for &conns in &conn_steps {
        for &frac in &fracs {
            rowspec.push(format!("g:{conns}:{frac}"));
        }
    }
    rowspec.push(format!("v:{giis_conns}:0.02"));
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .args([
            "--fleet",
            &format!("127.0.0.1:{}", gris_url.port),
            &format!("127.0.0.1:{}", vo.port),
            &rowspec.join(","),
            &queries.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn fleet child");

    let mut rows: Vec<RowResult> = Vec::new();
    let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    for line in stdout.lines() {
        let line = line.expect("child line");
        let Some(rest) = line.strip_prefix("ROW ") else {
            continue;
        };
        let field = |name: &str| -> String {
            rest.split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
                .unwrap_or("0")
                .to_string()
        };
        // The child's connections are all still open right now — this
        // sample *is* the held-connection footprint.
        let (threads, rss_mb) = self_threads_rss();
        rows.push(RowResult {
            target: if field("target") == "v" {
                "giis"
            } else {
                "gris"
            }
            .to_string(),
            conns: field("conns").parse().unwrap_or(0),
            active: field("active").parse().unwrap_or(0),
            ok: field("ok").parse().unwrap_or(0),
            total: field("total").parse().unwrap_or(0),
            secs: field("secs").parse().unwrap_or(0.0),
            threads,
            rss_mb,
        });
    }
    let status = child.wait().expect("child exit");
    assert!(status.success(), "fleet child failed: {status:?}");
    rt.shutdown();

    section("results: held connections vs server footprint");
    let mut table = Table::new(&[
        "target",
        "conns held",
        "active",
        "queries ok",
        "q/s",
        "srv threads",
        "srv RSS (MiB)",
    ]);
    for r in &rows {
        table.row(vec![
            r.target.clone(),
            r.conns.to_string(),
            r.active.to_string(),
            format!("{}/{}", r.ok, r.total),
            f2(if r.secs > 0.0 {
                r.ok as f64 / r.secs
            } else {
                0.0
            }),
            r.threads.to_string(),
            f2(r.rss_mb),
        ]);
    }
    table.print();
    let shards = reactor_shards();
    println!(
        "\nthe thread column is the whole story: {shards} reactor shard(s) own\n\
         every socket, so it does not move as held connections grow — the\n\
         thread-per-connection build this replaced would add one row's worth\n\
         of stacks per row."
    );

    if let Some(path) = &json {
        rows_json(&rows, queries, shards).write(path);
    }

    if smoke {
        let incomplete: Vec<String> = rows
            .iter()
            .filter(|r| r.ok != r.total)
            .map(|r| format!("{} conns={}: {}/{}", r.target, r.conns, r.ok, r.total))
            .collect();
        assert!(
            incomplete.is_empty(),
            "c10k smoke: queries went unanswered: {incomplete:?}"
        );
        let ceiling: u64 = std::env::var("GIS_C10K_MAX_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_MAX_THREADS);
        let peak = rows.iter().map(|r| r.threads).max().unwrap_or(0);
        assert!(
            peak <= ceiling,
            "c10k smoke: server reached {peak} threads while holding connections, \
             above the {ceiling} ceiling — transport threads must be O(shards)"
        );
        println!("\nsmoke gate: all queries complete; peak server threads {peak} <= {ceiling}");
    }
}

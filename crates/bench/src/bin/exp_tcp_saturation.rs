//! TCP SATURATION — connections × in-flight depth on the multiplexed wire.
//!
//! PR 6 replaced the one-shot pooled TCP pump with a multiplexed,
//! pipelined persistent-connection transport: every frame carries a
//! correlation id, one connection holds many GRIP exchanges in flight,
//! and replies match out of order. This experiment measures what that
//! buys, in two campaigns against one GRIS:
//!
//! * **loopback** — sweep client connections × pipelining depth
//!   ([`LiveClient::search_pipelined`]) on raw `127.0.0.1`. A
//!   channel-transport baseline (same engine, zero serialization) turns
//!   each row into a *wire tax*: kernel loopback + framing cost as a
//!   multiple of the in-process floor. On one machine the round trip is
//!   microseconds, so this isolates the syscall/framing overhead that
//!   coalescing amortizes. The floor and every row are measured
//!   [`TRIALS`] times, interleaved (floor, then each row, per trial): a
//!   row reports its median throughput and the median of its per-trial
//!   taxes, so one noisy few-millisecond window moves neither.
//! * **emulated WAN** — the same single connection routed through an
//!   in-process netem-style relay that delays every chunk by a fixed
//!   one-way latency. This is the regime the paper's VO hierarchies
//!   live in (GRIS and GIIS on different sites): at depth 1 every query
//!   pays the full round trip; at depth 8 the coalesced burst of small
//!   GRIP frames crosses the link in one segment and the round trip is
//!   paid once per batch. The depth-8 : depth-1 ratio is the headline
//!   `mux_speedup_depth8` figure.
//!
//! `--json PATH` dumps both campaigns for `scripts/bench_snapshot.sh`;
//! `--smoke` shrinks the sweep for CI and *gates*: every query must
//! complete, the best single-connection loopback wire tax must stay
//! under `GIS_SAT_TAX_CEILING` (default 2.2), and the WAN speedup at
//! depth 8 must stay above `GIS_SAT_MIN_SPEEDUP` (default 2.0).

use gis_bench::{banner, drive, f2, median, section, Args, Json, Run, Table};
use gis_core::{LiveClient, LiveRuntime, ServeOptions, SimDeployment};
use gis_ldap::{Dn, LdapUrl};
use gis_netsim::SimDuration;
use gis_proto::SearchSpec;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

const CONNS: [usize; 3] = [1, 2, 4];
const DEPTHS: [usize; 2] = [1, 8];
const WAN_DEPTHS: [usize; 4] = [1, 2, 8, 32];
const QUERIES_PER_CONN: usize = 800;
const SMOKE_QUERIES: usize = 80;
/// Interleaved trials of the channel floor and each loopback row.
const TRIALS: usize = 7;
/// One-way latency of the emulated WAN link — a conservative
/// metro-to-metro figure; real inter-site Grid links are slower.
const WAN_ONE_WAY: Duration = Duration::from_micros(200);
const DEFAULT_TAX_CEILING: f64 = 2.2;
const DEFAULT_MIN_SPEEDUP: f64 = 2.0;

/// One measured row: client connections, in-flight depth, what the
/// driver saw (for a loopback row: the median throughput and the
/// answered/issued sums over its trials), and the loopback wire tax.
struct Row {
    conns: usize,
    depth: usize,
    run: Run,
    tax: f64,
}

/// One static-host GRIS, on an ephemeral loopback port or in-process;
/// returns its served URL.
fn build(tcp: bool) -> (LiveRuntime, LdapUrl) {
    let mut rt = LiveRuntime::new(Duration::from_millis(5));
    let host = gis_gris::HostSpec::linux("sat0", 2);
    let mut gris = SimDeployment::standard_host_gris(&host, 0);
    if tcp {
        gris.config.url = LdapUrl::tcp("127.0.0.1", 0);
    }
    gris.agent.interval = SimDuration::from_millis(500);
    gris.agent.ttl = SimDuration::from_secs(5);
    let url = rt
        .spawn_gris(gris, ServeOptions::default())
        .expect("spawn gris");
    (rt, url)
}

/// Netem-style WAN emulator on loopback: a relay that forwards each
/// chunk a fixed one-way delay after reading it, in both directions.
/// Sleeping relay threads burn no CPU, so frames from many in-flight
/// requests traverse the link concurrently — and a coalesced burst of
/// small GRIP frames crosses as one chunk paying one delay, exactly
/// like small requests sharing a TCP segment on a real long-haul link.
fn spawn_wan_link(upstream: SocketAddr, delay: Duration) -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind wan link");
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        for inbound in listener.incoming() {
            let Ok(near) = inbound else { return };
            let Ok(far) = TcpStream::connect(upstream) else {
                return;
            };
            let legs = [
                (
                    near.try_clone().expect("clone"),
                    far.try_clone().expect("clone"),
                ),
                (far, near),
            ];
            for (mut from, mut to) in legs {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 16384];
                    loop {
                        match from.read(&mut buf) {
                            Ok(0) | Err(_) => {
                                let _ = to.shutdown(Shutdown::Write);
                                return;
                            }
                            Ok(n) => {
                                std::thread::sleep(delay);
                                if to.write_all(&buf[..n]).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        }
    });
    port
}

/// `clients.len()` connections, each pushing `queries` lookups at
/// `depth` in flight.
fn measure(clients: Vec<LiveClient>, target: &LdapUrl, depth: usize, queries: usize) -> Row {
    let spec = SearchSpec::lookup(Dn::parse("hn=sat0").expect("dn"));
    Row {
        conns: clients.len(),
        depth,
        run: drive(clients, target, &[spec], queries, depth),
        tax: 0.0,
    }
}

/// One loopback row from its trials, each paired with the floor
/// measured in the same trial: median throughput and latencies, summed
/// counts, and the median of the per-trial taxes.
fn loopback_row(conns: usize, depth: usize, trials: &[(f64, Run)]) -> Row {
    let median_of = |f: fn(&(f64, Run)) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());
    Row {
        conns,
        depth,
        run: Run {
            qps: median_of(|(_, r)| r.qps),
            p50_us: median_of(|(_, r)| r.p50_us),
            p99_us: median_of(|(_, r)| r.p99_us),
            ok: trials.iter().map(|(_, r)| r.ok).sum(),
            total: trials.iter().map(|(_, r)| r.total).sum(),
        },
        tax: median_of(|(floor, r)| floor / r.qps),
    }
}

fn find_qps(rows: &[Row], conns: usize, depth: usize) -> f64 {
    rows.iter()
        .find(|r| r.conns == conns && r.depth == depth)
        .map(|r| r.run.qps)
        .unwrap_or(0.0)
}

fn row_json(r: &Row) -> Json {
    Json::new()
        .num("conns", r.conns)
        .num("depth", r.depth)
        .num("qps", f2(r.run.qps))
        .num("ok", r.run.ok)
        .num("total", r.run.total)
}

fn main() {
    let args = Args::parse();
    let smoke = args.smoke;
    let queries = if smoke {
        SMOKE_QUERIES
    } else {
        QUERIES_PER_CONN
    };

    banner(
        "TCP SATURATION",
        "connections x in-flight depth on the multiplexed wire",
        "pipelining reclaims the round-trip tax the old lock-step transport paid",
    );
    println!(
        "one GRIS; loopback sweep {CONNS:?} conns x depth {DEPTHS:?}, then a\n\
         single connection through an emulated WAN link ({}us one-way) at\n\
         depth {WAN_DEPTHS:?}; {queries} lookups per connection. depth 1 =\n\
         the pre-multiplexing lock-step shape.\n",
        WAN_ONE_WAY.as_micros()
    );

    // The in-process floor (one client, sequential, zero serialization)
    // and every loopback row, measured in interleaved trials.
    let (chan_rt, chan_url) = build(false);
    let (rt, url) = build(true);
    let shapes: Vec<(usize, usize)> = CONNS
        .iter()
        .flat_map(|&conns| DEPTHS.iter().map(move |&depth| (conns, depth)))
        .collect();
    let mut floors = Vec::with_capacity(TRIALS);
    let mut trials: Vec<Vec<(f64, Run)>> = vec![Vec::with_capacity(TRIALS); shapes.len()];
    for _ in 0..TRIALS {
        let floor = measure(vec![chan_rt.client()], &chan_url, 1, queries)
            .run
            .qps;
        floors.push(floor);
        for (&(conns, depth), samples) in shapes.iter().zip(&mut trials) {
            let clients: Vec<LiveClient> = (0..conns)
                .map(|_| LiveClient::builder(&url).connect().expect("connect"))
                .collect();
            samples.push((floor, measure(clients, &url, depth, queries).run));
        }
    }
    chan_rt.shutdown();
    let channel_qps = median(&floors);
    println!(
        "channel floor: {} q/s (sequential, in-process; median of {TRIALS})\n",
        f2(channel_qps)
    );

    let mut loopback_table = Table::new(&["conns", "depth", "throughput (q/s)", "wire tax", "ok"]);
    let mut loopback_rows = Vec::new();
    for (&(conns, depth), samples) in shapes.iter().zip(&trials) {
        let r = loopback_row(conns, depth, samples);
        loopback_table.row(vec![
            r.conns.to_string(),
            r.depth.to_string(),
            f2(r.run.qps),
            f2(r.tax),
            format!("{}/{}", r.run.ok, r.run.total),
        ]);
        loopback_rows.push(r);
    }

    let upstream: SocketAddr = format!("127.0.0.1:{}", url.port).parse().expect("addr");
    let wan_port = spawn_wan_link(upstream, WAN_ONE_WAY);
    let wan_url = LdapUrl::tcp("127.0.0.1", wan_port);
    let mut wan_table = Table::new(&["depth", "throughput (q/s)", "us/query", "ok"]);
    let mut wan_rows = Vec::new();
    for depth in WAN_DEPTHS {
        let client = LiveClient::builder(&wan_url)
            .connect()
            .expect("connect wan");
        let r = measure(vec![client], &wan_url, depth, queries);
        wan_table.row(vec![
            r.depth.to_string(),
            f2(r.run.qps),
            f2(if r.run.qps > 0.0 {
                1e6 / r.run.qps
            } else {
                0.0
            }),
            format!("{}/{}", r.run.ok, r.run.total),
        ]);
        wan_rows.push(r);
    }
    rt.shutdown();

    section(&format!(
        "results: loopback sweep (wall-clock, this machine; medians of {TRIALS} trials)"
    ));
    loopback_table.print();
    println!(
        "\nloopback round trips are microseconds, so depth amortizes the\n\
         syscall + wake cost per frame; the tax left at depth 8 is framing\n\
         plus the kernel's loopback stack."
    );

    section("results: emulated WAN, single connection");
    wan_table.print();
    let wan_base = find_qps(&wan_rows, 1, 1);
    let speedup = |depth: usize| {
        if wan_base > 0.0 {
            find_qps(&wan_rows, 1, depth) / wan_base
        } else {
            0.0
        }
    };
    let speedup8 = speedup(8);
    println!(
        "\ndepth 1 pays the full {}us round trip per query; a depth-8\n\
         pipeline coalesces requests into one segment and pays it per\n\
         batch. speedup at depth 8: {:.2}x",
        2 * WAN_ONE_WAY.as_micros(),
        speedup8
    );

    let best_tax = loopback_rows
        .iter()
        .filter(|r| r.conns == 1 && r.run.qps > 0.0)
        .map(|r| r.tax)
        .fold(f64::INFINITY, f64::min);
    if let Some(path) = &args.json {
        let loopback: Vec<Json> = loopback_rows.iter().map(row_json).collect();
        let wan: Vec<Json> = wan_rows.iter().map(row_json).collect();
        Json::new()
            .num("queries_per_conn", queries)
            .num("trials", TRIALS)
            .num("channel_qps", f2(channel_qps))
            .num("wan_one_way_us", WAN_ONE_WAY.as_micros())
            .rows("loopback_runs", &loopback)
            .rows("wan_runs", &wan)
            .obj(
                "derived",
                Json::new()
                    .num("mux_speedup_depth8", format!("{:.3}", speedup8))
                    .num("mux_speedup_depth32", format!("{:.3}", speedup(32)))
                    .num("best_single_conn_wire_tax", format!("{best_tax:.3}")),
            )
            .write(path);
    }

    if smoke {
        let incomplete: Vec<String> = loopback_rows
            .iter()
            .chain(wan_rows.iter())
            .filter(|r| r.run.ok != r.run.total)
            .map(|r| {
                format!(
                    "conns={} depth={}: {}/{}",
                    r.conns, r.depth, r.run.ok, r.run.total
                )
            })
            .collect();
        assert!(
            incomplete.is_empty(),
            "saturation smoke: queries went unanswered: {incomplete:?}"
        );
        let ceiling: f64 = std::env::var("GIS_SAT_TAX_CEILING")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_TAX_CEILING);
        assert!(
            best_tax <= ceiling,
            "saturation smoke: best single-connection wire tax is {best_tax:.2}, \
             above the {ceiling:.2} ceiling"
        );
        let min_speedup: f64 = std::env::var("GIS_SAT_MIN_SPEEDUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_MIN_SPEEDUP);
        assert!(
            speedup8 >= min_speedup,
            "saturation smoke: WAN speedup at depth 8 is {speedup8:.2}x, \
             below the {min_speedup:.2}x floor"
        );
        println!(
            "\nsmoke gate: all queries complete; wire tax {:.2} <= {:.2}; \
             WAN depth-8 speedup {:.2}x >= {:.2}x",
            best_tax, ceiling, speedup8, min_speedup
        );
    }
}

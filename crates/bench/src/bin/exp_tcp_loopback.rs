//! TCP — in-process channels vs the real TCP wire on loopback.
//!
//! PR 5's transport abstraction claims the socket front-end changes
//! *where* frames travel, not *what* the services do: the same GRIS and
//! GIIS engines answer the same queries whether the client shares their
//! process or sits across a socket. This experiment quantifies the
//! price of the wire on one machine, with no simulated network in the
//! way:
//!
//! * **channel** — the PR 2 shape: clients reach services over the
//!   in-process router (crossbeam channels), zero serialization.
//! * **tcp loopback** — the same topology fronted by TCP listeners on
//!   `127.0.0.1`; every request and reply is a length-prefixed
//!   `ProtocolMessage` frame through the kernel's loopback stack, and
//!   each client holds one persistent connection.
//!
//! Two workloads per transport: direct GRIS lookups (one hop, smallest
//! frames) and chained VO discovery through the GIIS (the GIIS↔GRIS
//! legs also ride the measured transport, pooled outbound connections).
//! Clients issue queries the way the PR 6 multiplexed transport is
//! meant to be driven: pipelined batches of [`DEPTH`] in-flight
//! requests per connection ([`LiveClient::search_pipelined`]), so a
//! burst of small frames coalesces into one write and replies match by
//! request id. Latency columns are therefore *amortized per query
//! within a batch*; the lock-step depth-1 shape is measured separately
//! by `exp_tcp_saturation`.
//!
//! `--json PATH` dumps the rows for `scripts/bench_snapshot.sh`;
//! `--smoke` shrinks the run for CI.

use gis_bench::{banner, computers, drive, f2, section, warm, Args, Json, Table};
use gis_core::{LiveClient, LiveRuntime, ServeOptions, SimDeployment};
use gis_giis::{Giis, GiisConfig, GiisMode};
use gis_ldap::{Dn, LdapUrl};
use gis_netsim::SimDuration;
use gis_proto::SearchSpec;
use std::time::Duration;

/// Loopback hops per measured configuration.
const QUERIES_PER_CLIENT: usize = 800;
const SMOKE_QUERIES: usize = 40;
const CLIENTS: usize = 4;
const GRIS_COUNT: usize = 2;
/// In-flight pipelining depth per connection; both transports use the
/// same driver, the channel side simply has nothing to overlap.
const DEPTH: usize = 8;

/// A chaining GIIS plus `GRIS_COUNT` static-host GRIS, every one on an
/// ephemeral `tcp://127.0.0.1:0` port or in-process. Returns the served
/// GIIS and first GRIS URLs.
fn build(tcp: bool) -> (LiveRuntime, LdapUrl, LdapUrl) {
    let mut rt = LiveRuntime::new(Duration::from_millis(5));
    let vo_url = if tcp {
        LdapUrl::tcp("127.0.0.1", 0)
    } else {
        LdapUrl::server("giis.loopback")
    };
    let mut giis = Giis::new(
        GiisConfig::chaining(vo_url, Dn::root()),
        SimDuration::from_millis(200),
        SimDuration::from_secs(5),
    );
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(1000),
    };
    let vo_url = rt
        .spawn_giis(giis, ServeOptions::default())
        .expect("spawn giis");
    let mut gris_urls = Vec::new();
    for i in 0..GRIS_COUNT {
        let host = gis_gris::HostSpec::linux(&format!("lb{i}"), 2);
        let mut gris = SimDeployment::standard_host_gris(&host, i as u64);
        if tcp {
            // The runtime binds the port and re-points the
            // registration agent's advert at it.
            gris.config.url = LdapUrl::tcp("127.0.0.1", 0);
        }
        gris.agent.interval = SimDuration::from_millis(200);
        gris.agent.ttl = SimDuration::from_secs(5);
        gris.agent.add_target(vo_url.clone());
        gris_urls.push(
            rt.spawn_gris(gris, ServeOptions::default())
                .expect("spawn gris"),
        );
    }
    (rt, vo_url, gris_urls.swap_remove(0))
}

fn measure(transport: &'static str, queries: usize, table: &mut Table, json_rows: &mut Vec<Json>) {
    let tcp = transport == "tcp";
    let (rt, vo_url, gris0_url) = build(tcp);

    let lookup_spec = SearchSpec::lookup(Dn::parse("hn=lb0").expect("dn"));
    let chained_spec = computers();
    // A TCP client is pinned to its connected endpoint, so each
    // workload dials the service it measures.
    let mint = |url: &LdapUrl| -> LiveClient {
        if tcp {
            LiveClient::builder(url).connect().expect("connect")
        } else {
            rt.client()
        }
    };
    warm(&mut mint(&vo_url), &vo_url, &chained_spec, GRIS_COUNT);
    for (workload, target, spec) in [
        ("direct_lookup", &gris0_url, &lookup_spec),
        ("chained_discovery", &vo_url, &chained_spec),
    ] {
        let clients: Vec<LiveClient> = (0..CLIENTS).map(|_| mint(target)).collect();
        let r = drive(clients, target, std::slice::from_ref(spec), queries, DEPTH);
        table.row(vec![
            transport.into(),
            workload.into(),
            f2(r.qps),
            f2(r.p50_us),
            f2(r.p99_us),
            format!("{}/{}", r.ok, r.total),
        ]);
        json_rows.push(
            Json::new()
                .str("transport", transport)
                .str("workload", workload)
                .run(&r),
        );
    }
    rt.shutdown();
}

fn main() {
    let args = Args::parse();
    let queries = if args.smoke {
        SMOKE_QUERIES
    } else {
        QUERIES_PER_CLIENT
    };

    banner(
        "TCP",
        "in-process channels vs the real TCP wire on loopback",
        "the transport abstraction's cost: same engines, frames through the kernel",
    );
    println!(
        "{GRIS_COUNT} GRIS + 1 chaining GIIS; {CLIENTS} client threads x {queries} queries\n\
         per configuration. tcp rows: every hop (client->service and\n\
         GIIS->GRIS chaining) is a framed ProtocolMessage over 127.0.0.1.\n"
    );

    let mut table = Table::new(&[
        "transport",
        "workload",
        "throughput (q/s)",
        "p50 (us)",
        "p99 (us)",
        "ok",
    ]);
    let mut json_rows = Vec::new();
    measure("channel", queries, &mut table, &mut json_rows);
    measure("tcp", queries, &mut table, &mut json_rows);

    section("results: loopback wire tax (wall-clock, this machine)");
    table.print();
    println!(
        "\nexpected shape: tcp rows trail channel rows by the serialization +\n\
         syscall cost per hop — a constant tax visible in p50, amplified for\n\
         chained discovery where the GIIS pays it once more per child. All\n\
         queries complete on both transports."
    );

    if let Some(path) = &args.json {
        Json::new()
            .num("clients", CLIENTS)
            .num("queries_per_client", queries)
            .num("gris_count", GRIS_COUNT)
            .rows("runs", &json_rows)
            .write(path);
    }
}

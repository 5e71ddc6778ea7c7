//! LIVE — throughput of the live multi-threaded runtime.
//!
//! The architecture claims transport independence: the same GRIS/GIIS
//! engines run over the deterministic simulator and over real OS threads.
//! This experiment drives the threaded runtime with parallel clients and
//! measures sustained query throughput and latency percentiles — the
//! wall-clock (not simulated) performance of the implementation — along
//! two axes:
//!
//! 1. client parallelism against single-threaded services (the PR2
//!    baseline shape), and
//! 2. **query-worker parallelism**: one GRIS spawned with an N-thread
//!    worker pool answering searches concurrently off the shared read
//!    path, under a fixed parallel-client load.
//!
//! The worker sweep models the paper's dominant GRIS cost: information
//! providers are external programs (§5 — fork/exec of a sensor script,
//! a scheduler query, an NWS probe) whose invocation takes wall-clock
//! time. Each sweep query lands on a non-cacheable probe provider with a
//! fixed per-invocation latency; the worker pool's job is to overlap
//! those blocked invocations, so throughput scales with workers even on
//! a single core, while the shared snapshot read path keeps the merge /
//! redact / project work lock-free.
//!
//! With `--json PATH` the raw numbers are also written as JSON for the
//! benchmark snapshot script.

use gis_bench::{banner, drive, f2, section, Args, Json, ProbeFleet, Table};
use gis_core::{LiveRuntime, ServeOptions, SimDeployment};
use gis_giis::{Giis, GiisConfig, GiisMode};
use gis_gris::HostSpec;
use gis_ldap::{Dn, Filter, LdapUrl};
use gis_netsim::SimDuration;
use gis_proto::SearchSpec;
use std::time::Duration;

const QUERIES_PER_CLIENT: usize = 200;
/// Fixed client load for the worker-count sweep.
const SWEEP_CLIENTS: usize = 8;
/// The sweep GRIS: one probe provider per sweep client, so queries in
/// flight land on distinct slots (distinct striped locks); 24 entries
/// each, enough merge + redact + project work per query that the
/// snapshot read path is exercised, not just channels; 2 ms per
/// invocation (the external program the paper's GRIS forks per query).
const FLEET: ProbeFleet = ProbeFleet {
    sites: 8,
    hosts: 24,
    probe: Duration::from_millis(2),
};

fn main() {
    let args = Args::parse();

    banner(
        "LIVE",
        "threaded-runtime query throughput vs client and worker parallelism",
        "transport independence of the sans-IO engines (implementation property)",
    );
    println!(
        "4 GRIS + 1 chaining GIIS on their own threads; {QUERIES_PER_CLIENT} queries per client.\n"
    );
    let mut json_rows: Vec<Json> = Vec::new();

    let mut rt = LiveRuntime::new(Duration::from_millis(5));
    let vo_url = LdapUrl::server("giis.live");
    let mut giis = Giis::new(
        GiisConfig::chaining(vo_url.clone(), Dn::root()),
        SimDuration::from_millis(200),
        SimDuration::from_millis(800),
    );
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(1000),
    };
    rt.spawn_giis(giis, ServeOptions::default()).unwrap();
    let mut gris0_url = None;
    for i in 0..4 {
        let host = HostSpec::linux(&format!("live{i}"), 2);
        let mut gris = SimDeployment::standard_host_gris(&host, i);
        gris.agent.interval = SimDuration::from_millis(200);
        gris.agent.ttl = SimDuration::from_millis(800);
        gris.agent.add_target(vo_url.clone());
        if i == 0 {
            gris0_url = Some(gris.config.url.clone());
        }
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
    }
    let gris0_url = gris0_url.expect("gris0");
    std::thread::sleep(Duration::from_millis(600));

    let lookup_spec = SearchSpec::lookup(Dn::parse("hn=live0").expect("dn"));
    let chained_spec = SearchSpec::subtree(
        Dn::root(),
        Filter::parse("(objectclass=computer)").expect("filter"),
    );
    let mut table = Table::new(&[
        "workload",
        "client threads",
        "throughput (q/s)",
        "p50 (us)",
        "p99 (us)",
        "ok",
    ]);
    let clients = |n: usize| (0..n).map(|_| rt.client()).collect();
    for &threads in &[1usize, 2, 4, 8, 16] {
        let r = drive(
            clients(threads),
            &gris0_url,
            std::slice::from_ref(&lookup_spec),
            QUERIES_PER_CLIENT,
            1,
        );
        table.row(vec![
            "direct GRIS lookup".into(),
            threads.to_string(),
            f2(r.qps),
            f2(r.p50_us),
            f2(r.p99_us),
            format!("{}/{}", r.ok, r.total),
        ]);
        json_rows.push(
            Json::new()
                .str("workload", "direct_lookup")
                .num("clients", threads)
                .num("workers", "null")
                .run(&r),
        );
    }
    for &threads in &[1usize, 4, 8] {
        let r = drive(
            clients(threads),
            &vo_url,
            std::slice::from_ref(&chained_spec),
            QUERIES_PER_CLIENT,
            1,
        );
        table.row(vec![
            "chained discovery".into(),
            threads.to_string(),
            f2(r.qps),
            f2(r.p50_us),
            f2(r.p99_us),
            format!("{}/{}", r.ok, r.total),
        ]);
        json_rows.push(
            Json::new()
                .str("workload", "chained_discovery")
                .num("clients", threads)
                .num("workers", "null")
                .run(&r),
        );
    }
    section("results: client parallelism (wall-clock, this machine)");
    table.print();
    rt.shutdown();

    println!(
        "\nWorker-pool sweep: one GRIS over {} non-cacheable probe\n\
         providers ({} entries each, {} ms per invocation —\n\
         the external information-provider program), {SWEEP_CLIENTS} client\n\
         threads each querying its own site subtree, spawn_gris with a\n\
         ServeOptions pool of N query workers (0 = the single-threaded\n\
         owner loop).\n",
        FLEET.sites,
        FLEET.hosts,
        FLEET.probe.as_millis()
    );
    let mut wtable = Table::new(&[
        "query workers",
        "client threads",
        "throughput (q/s)",
        "p50 (us)",
        "p99 (us)",
        "ok",
    ]);
    for &workers in &[0usize, 1, 2, 4, 8] {
        let r = FLEET.measure(workers, SWEEP_CLIENTS, QUERIES_PER_CLIENT, true);
        wtable.row(vec![
            if workers == 0 {
                "0 (owner loop)".into()
            } else {
                workers.to_string()
            },
            SWEEP_CLIENTS.to_string(),
            f2(r.qps),
            f2(r.p50_us),
            f2(r.p99_us),
            format!("{}/{}", r.ok, r.total),
        ]);
        json_rows.push(
            Json::new()
                .str("workload", "worker_sweep")
                .num("clients", SWEEP_CLIENTS)
                .num("workers", workers)
                .run(&r),
        );
    }
    section("results: query-worker parallelism (wall-clock, this machine)");
    wtable.print();
    println!(
        "\nexpected shape: direct-lookup throughput scales with client threads\n\
         until the single GRIS thread saturates; chained discovery pays the\n\
         GIIS fan-out (4 children) per query and saturates earlier. In the\n\
         worker sweep a single thread serializes every {} ms probe, so\n\
         throughput grows near-linearly with workers (overlapped provider\n\
         invocations against the shared snapshot read path) until the client\n\
         count or available cores cap it. All queries complete — no loss\n\
         under contention.",
        FLEET.probe.as_millis()
    );

    if let Some(path) = &args.json {
        Json::new()
            .num("queries_per_client", QUERIES_PER_CLIENT)
            .num("probe_count", FLEET.sites)
            .num("probe_entries", FLEET.hosts)
            .num("probe_ms", FLEET.probe.as_millis())
            .rows("runs", &json_rows)
            .write(path);
    }
}

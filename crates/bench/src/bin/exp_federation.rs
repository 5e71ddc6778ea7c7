//! FED — federated GIIS scale-out: replicated roots, bulk delta sync,
//! local reads.
//!
//! The paper (§3, §12) names VO-scoped aggregate directories as *the*
//! scalability mechanism, but a chaining GIIS pays per-query child RTTs
//! for every parent lookup. The federated mode instead pulls periodic
//! bulk deltas from each child into the parent's own DIT and answers
//! queries locally, trading bounded staleness for wide-area round trips
//! (the BDII architecture's production answer). Four claims are
//! measured on a 3-level netsim deployment (hosts -> harvest site
//! directories -> replicated federated roots, with a chaining root over
//! the same sites as the baseline; wide-area links between roots and
//! sites, local links everywhere else):
//!
//! 1. **Local reads**: a federated root answers a subtree search within
//!    3x of searching an equivalent raw [`Dit`] directly — federation
//!    adds no meaningful query-path cost on top of the index itself.
//! 2. **Staleness is bounded**: across both replicas, the p99 age of
//!    each child's replicated slice stays under the configured
//!    `interval + deadline` pull budget.
//! 3. **Query latency**: the federated root beats the per-query
//!    chaining baseline by >= 5x end-to-end, because chaining pays the
//!    root->site WAN round trip on every query.
//! 4. **Bulk ingest**: building a tree with [`Dit::bulk_load`] (what
//!    snapshot recovery rides) is >= 2x faster than replacing the same
//!    batch entry by entry on a populated tree (the regression bench for
//!    the bulk build).
//!
//! `--smoke` runs a reduced topology and exits non-zero if any gate
//! fails; `--json PATH` writes the derived metrics for the benchmark
//! snapshot script.

use gis_bench::{banner, computers, f2, percentile, section, Args, Json, Table};
use gis_core::SimDeployment;
use gis_giis::{Giis, GiisConfig, GiisMode};
use gis_gris::HostSpec;
use gis_ldap::{Dit, Dn, Entry, Filter, LdapUrl, Scope};
use gis_netsim::{ms, secs, LinkConfig, NodeId, SimDuration};
use gis_proto::GripRequest;
use std::hint::black_box;
use std::time::Instant;

/// Federation pull cadence per child.
const SYNC_INTERVAL: SimDuration = SimDuration(5_000_000); // 5 s
/// Pull abandon deadline (staleness budget = interval + deadline).
const SYNC_DEADLINE: SimDuration = SimDuration(2_000_000); // 2 s
/// Site directory re-harvest cadence.
const HARVEST_REFRESH: SimDuration = SimDuration(10_000_000); // 10 s
/// Gate: federated local read within this factor of a raw DIT search.
const MAX_LOCAL_READ_RATIO: f64 = 3.0;
/// Gate: minimum end-to-end query speedup over the chaining baseline.
const MIN_SPEEDUP: f64 = 5.0;
/// Gate: minimum bulk-load ingest speedup over per-entry upsert.
const MIN_BULK_RATIO: f64 = 2.0;
/// Interleaved bulk-ingest trials per path; the gate compares medians.
const BULK_TRIALS: usize = 11;

struct Params {
    sites: usize,
    hosts_per_site: usize,
    query_rounds: usize,
    read_iters: usize,
    bulk_entries: usize,
}

impl Params {
    fn new(smoke: bool) -> Params {
        if smoke {
            Params {
                sites: 6,
                hosts_per_site: 20,
                query_rounds: 12,
                read_iters: 60,
                bulk_entries: 20_000,
            }
        } else {
            Params {
                sites: 10,
                hosts_per_site: 100,
                query_rounds: 30,
                read_iters: 200,
                bulk_entries: 20_000,
            }
        }
    }
    fn hosts(&self) -> usize {
        self.sites * self.hosts_per_site
    }
}

struct FedScenario {
    dep: SimDeployment,
    /// Two replicated federated roots.
    fed: [(NodeId, LdapUrl); 2],
    /// The per-query chaining baseline root over the same sites.
    chain: (NodeId, LdapUrl),
    /// Site directory URLs (the roots' children).
    sites: Vec<LdapUrl>,
    client: NodeId,
}

/// Build the 3-level topology: `hosts_per_site` standard host GRIS per
/// site register with a harvest-mode site GIIS (`o=site<i>`); every site
/// registers with two federated roots and one chaining root. Roots and
/// the client sit in the VO core (fast links); root<->site links are
/// wide-area — the cost federation amortizes and chaining pays per
/// query.
fn build(p: &Params, seed: u64) -> FedScenario {
    let mut dep = SimDeployment::new(seed);
    // Wide-area default: 40 ms +- 20 ms one way.
    dep.sim.set_default_link(LinkConfig {
        latency: ms(40),
        jitter: ms(20),
        loss: 0.0,
    });

    let mut roots = Vec::new();
    for name in ["giis.root-a", "giis.root-b"] {
        let url = LdapUrl::server(name);
        let giis = Giis::new(
            GiisConfig::federated(url.clone(), Dn::root(), SYNC_INTERVAL, SYNC_DEADLINE),
            secs(10),
            secs(60),
        );
        let node = dep.add_giis(giis);
        roots.push((node, url));
    }
    let chain_url = LdapUrl::server("giis.root-chain");
    let mut chain_cfg = GiisConfig::chaining(chain_url.clone(), Dn::root());
    chain_cfg.mode = GiisMode::Chain { timeout: secs(2) };
    let chain_node = dep.add_giis(Giis::new(chain_cfg, secs(10), secs(60)));

    let mut sites = Vec::new();
    let mut host_seed = seed.wrapping_mul(97);
    for s in 0..p.sites {
        let suffix = Dn::parse(&format!("o=site{s}")).expect("site dn");
        let site_url = LdapUrl::server(format!("giis.site{s}"));
        let mut site_cfg = GiisConfig::chaining(site_url.clone(), suffix.clone());
        site_cfg.observability = false;
        let mut site = Giis::new(site_cfg, secs(10), secs(60));
        site.config.mode = GiisMode::Harvest {
            refresh: HARVEST_REFRESH,
        };
        for (_, url) in &roots {
            site.agent.add_target(url.clone());
        }
        site.agent.add_target(chain_url.clone());
        let site_node = dep.add_giis(site);

        for h in 0..p.hosts_per_site {
            host_seed = host_seed.wrapping_add(1);
            let host =
                HostSpec::linux(&format!("h{h}"), 2 + (host_seed % 6) as u32).at(suffix.clone());
            let (host_node, _) =
                dep.add_standard_host(&host, host_seed, std::slice::from_ref(&site_url));
            // Hosts share a LAN with their site directory.
            let lan = LinkConfig {
                latency: ms(1),
                jitter: SimDuration(500),
                loss: 0.0,
            };
            dep.sim.set_link(host_node, site_node, lan);
            dep.sim.set_link(site_node, host_node, lan);
        }
        sites.push(site_url);
    }

    let client = dep.add_client("user");
    // Client and roots share the VO core: 4 ms +- 2 ms.
    let core = LinkConfig {
        latency: ms(4),
        jitter: ms(2),
        loss: 0.0,
    };
    for (node, _) in roots.iter().chain([&(chain_node, chain_url.clone())]) {
        dep.sim.set_link(client, *node, core);
        dep.sim.set_link(*node, client, core);
    }

    FedScenario {
        dep,
        fed: [roots[0].clone(), roots[1].clone()],
        chain: (chain_node, chain_url),
        sites,
        client,
    }
}

fn mean_us(samples: &[SimDuration]) -> f64 {
    samples.iter().map(|d| d.micros() as f64).sum::<f64>() / samples.len().max(1) as f64
}

struct SimResults {
    fed_query_ms: f64,
    chain_query_ms: f64,
    speedup: f64,
    staleness_p99_ms: f64,
    staleness_samples: usize,
    fed_entries: usize,
    chain_entries: usize,
    local_read_us: f64,
    dit_search_us: f64,
    read_ratio: f64,
    full_syncs: u64,
    delta_syncs: u64,
}

/// Run the deployment: converge, interleave fed/chain queries while
/// sampling per-child replica age on both roots, then time the local
/// read path against a raw DIT of the same entries.
fn run_sim(p: &Params, seed: u64) -> SimResults {
    let mut sc = build(p, seed);
    // Registrations, first harvests, first (full) sync pulls.
    sc.dep.run_for(secs(15));

    let mut fed_lat = Vec::new();
    let mut chain_lat = Vec::new();
    let mut ages_ms: Vec<f64> = Vec::new();
    let mut fed_entries = 0usize;
    let mut chain_entries = 0usize;

    for round in 0..p.query_rounds {
        // Spread reads across the replica group, as the live balancer
        // would.
        let (_, fed_url) = &sc.fed[round % 2];
        let fed_id = sc.dep.search(sc.client, &fed_url.clone(), computers());
        let chain_id = sc.dep.search(sc.client, &sc.chain.1.clone(), computers());
        sc.dep.run_for(secs(1));

        let client = sc.dep.client(sc.client);
        fed_lat.push(client.latency(fed_id).expect("federated reply"));
        chain_lat.push(client.latency(chain_id).expect("chained reply"));
        if round + 1 == p.query_rounds {
            let grab = |r: Option<&gis_proto::GripReply>| match r {
                Some(gis_proto::GripReply::SearchResult { entries, .. }) => entries.len(),
                _ => 0,
            };
            fed_entries = grab(client.search_result(fed_id));
            chain_entries = grab(client.search_result(chain_id));
        }

        // Replica age of every child slice on both roots, as served now.
        let now = sc.dep.now();
        for (node, _) in &sc.fed {
            let giis = sc.dep.giis(*node);
            for site in &sc.sites {
                let asof = giis.sync_asof_of(site).expect("site synced");
                ages_ms.push(now.since(asof).micros() as f64 / 1_000.0);
            }
        }
    }

    let fed_query_ms = mean_us(&fed_lat) / 1_000.0;
    let chain_query_ms = mean_us(&chain_lat) / 1_000.0;

    // Local-read cost: the engine's full request path vs a raw DIT
    // search over the very same entries.
    let now = sc.dep.now();
    let spec = computers();
    let (fed_node, _) = sc.fed[0];
    let root = sc.dep.giis_mut(fed_node);
    let mut sink = 0usize;
    let start = Instant::now();
    for i in 0..p.read_iters {
        let actions = root.handle_request(
            7_000,
            GripRequest::Search {
                id: 500_000 + i as u64,
                spec: spec.clone(),
            },
            now,
        );
        sink += black_box(actions.len());
    }
    let local_read_us = start.elapsed().as_secs_f64() * 1e6 / p.read_iters as f64;

    let replica: Vec<Entry> =
        root.cache_snapshot()
            .search(&Dn::root(), Scope::Sub, &Filter::always(), &[], 0);
    let direct = Dit::bulk_load(replica);
    let filter = Filter::parse("(objectclass=computer)").expect("filter");
    let start = Instant::now();
    for _ in 0..p.read_iters {
        let hits = direct.search(&Dn::root(), Scope::Sub, &filter, &[], 0);
        sink += black_box(hits.len());
    }
    let dit_search_us = start.elapsed().as_secs_f64() * 1e6 / p.read_iters as f64;
    black_box(sink);

    let stats = sc.dep.giis(fed_node).stats();
    SimResults {
        fed_query_ms,
        chain_query_ms,
        speedup: chain_query_ms / fed_query_ms,
        staleness_p99_ms: {
            ages_ms.sort_by(f64::total_cmp);
            percentile(&ages_ms, 0.99)
        },
        staleness_samples: ages_ms.len(),
        fed_entries,
        chain_entries,
        local_read_us,
        dit_search_us,
        read_ratio: local_read_us / dit_search_us,
        full_syncs: stats.full_syncs,
        delta_syncs: stats.delta_syncs,
    }
}

/// Regression bench for [`Dit::bulk_load`]: a payload replacing a tree
/// the caller *already holds*. The bulk path rebuilds every index as
/// one sorted run; the per-entry path pays an indexed remove plus an
/// indexed reinsert per DN on the populated tree. A GIIS replica ingests
/// pulls by the per-entry path: each pull replaces one child's slice of
/// a far larger tree, where rebuilding the whole tree costs more.
fn bulk_load_ratio(n: usize) -> (f64, f64, f64) {
    // Generation g: the harvested host subtrees a site exports — one
    // static entry plus perf/filesystem/queue children per host, dynamic
    // values refreshed every sync, ~10% of hosts churned (leaving and
    // joining between syncs).
    let hosts = n / 4;
    let generation = |g: usize| -> Vec<Entry> {
        let mut out = Vec::with_capacity(hosts * 4);
        for i in 0..hosts {
            let id = if i % 10 == 0 { i + hosts * g } else { i };
            let base = format!("hn=h{id},ou=s{},o=grid", i % 50);
            out.push(
                Entry::at(&base)
                    .expect("host dn")
                    .with_class("computer")
                    .with("system", "linux")
                    .with("arch", "x86_64")
                    .with("cpucount", (2 + (i + g) % 7) as i64)
                    .with("memorymb", 4096i64),
            );
            out.push(
                Entry::at(&format!("perf=load,{base}"))
                    .expect("perf dn")
                    .with_class("perf")
                    .with_class("loadaverage")
                    .with("load1", ((i + g) % 100) as i64)
                    .with("load5", ((i + g) % 50) as i64),
            );
            out.push(
                Entry::at(&format!("fs=scratch,{base}"))
                    .expect("fs dn")
                    .with_class("storage")
                    .with_class("filesystem")
                    .with("path", "/disks/scratch1")
                    .with("total", 40_000i64)
                    .with("free", (40_000 - (i + g) % 9_000) as i64),
            );
            out.push(
                Entry::at(&format!("queue=default,{base}"))
                    .expect("queue dn")
                    .with_class("service")
                    .with_class("queue")
                    .with("dispatchtype", "immediate")
                    .with("jobcount", ((i + g) % 12) as i64),
            );
        }
        out
    };
    let previous = Dit::bulk_load(generation(0));
    let payload = generation(1);

    // Interleaved trials + medians: frequency scaling and allocator state
    // drift over a run on small machines, and medians keep one slow (or
    // one lucky) trial from deciding the gate.
    let mut bulk_trials = Vec::new();
    let mut upsert_trials = Vec::new();
    for _ in 0..BULK_TRIALS {
        // The bulk path: key the decoded payload and build every index
        // as one sorted run.
        let b = payload.clone();
        let start = Instant::now();
        let built = black_box(Dit::bulk_load(b));
        // Take the clock before teardown: dropping a 20k-entry tree costs
        // double-digit milliseconds and is identical on both sides, which
        // would only compress the measured ratio.
        bulk_trials.push(start.elapsed().as_secs_f64());
        drop(built);

        // The per-entry alternative: replace the slice in place —
        // delete every DN that vanished from the payload, then upsert
        // each entry (an indexed remove + reinsert per DN).
        let b = payload.clone();
        let mut dit = previous.clone();
        let start = Instant::now();
        let keep: std::collections::BTreeSet<String> =
            b.iter().map(|e| e.dn().to_string()).collect();
        let vanished: Vec<Dn> = dit
            .iter()
            .filter(|e| !keep.contains(&e.dn().to_string()))
            .map(|e| e.dn().clone())
            .collect();
        for dn in &vanished {
            dit.delete(dn);
        }
        for e in b {
            dit.upsert(e);
        }
        black_box(&dit);
        upsert_trials.push(start.elapsed().as_secs_f64());
        drop(dit);
    }
    bulk_trials.sort_by(f64::total_cmp);
    upsert_trials.sort_by(f64::total_cmp);
    let bulk_med = bulk_trials[bulk_trials.len() / 2];
    let upsert_med = upsert_trials[upsert_trials.len() / 2];
    (bulk_med * 1e3, upsert_med * 1e3, upsert_med / bulk_med)
}

fn main() {
    let args = Args::parse();
    let smoke = args.smoke;

    banner(
        "FED",
        "federated roots: bulk delta sync, replica staleness, local reads",
        "§3/§12 VO aggregate directories; BDII-style pull federation",
    );

    let p = Params::new(smoke);
    println!(
        "\ntopology: {} hosts over {} sites, 2 federated roots (pull {}s, \
         deadline {}s) + 1 chaining root; WAN root<->site links",
        p.hosts(),
        p.sites,
        SYNC_INTERVAL.micros() / 1_000_000,
        SYNC_DEADLINE.micros() / 1_000_000,
    );

    let r = run_sim(&p, 42);
    let bound_ms = (SYNC_INTERVAL + SYNC_DEADLINE).micros() as f64 / 1_000.0;

    section("end-to-end query latency: federated replica vs chaining root");
    let mut t = Table::new(&["root", "mean latency (ms)", "entries"]);
    t.row(vec![
        "federated (local read)".into(),
        f2(r.fed_query_ms),
        r.fed_entries.to_string(),
    ]);
    t.row(vec![
        "chaining (per-query fan-out)".into(),
        f2(r.chain_query_ms),
        r.chain_entries.to_string(),
    ]);
    t.row(vec!["speedup".into(), f2(r.speedup), "".into()]);
    t.print();

    section("query-path cost: engine local read vs raw DIT search");
    let mut t = Table::new(&["path", "mean (us)"]);
    t.row(vec!["giis handle_request".into(), f2(r.local_read_us)]);
    t.row(vec!["raw Dit::search".into(), f2(r.dit_search_us)]);
    t.row(vec!["ratio".into(), f2(r.read_ratio)]);
    t.print();

    section("replica staleness (age of each child slice at serve time)");
    println!(
        "p99 {:.1} ms over {} samples (both replicas, every child, every \
         query round); budget interval+deadline = {:.0} ms; root-a syncs: \
         {} full / {} delta",
        r.staleness_p99_ms, r.staleness_samples, bound_ms, r.full_syncs, r.delta_syncs,
    );

    let (bulk_ms, upsert_ms, bulk_ratio) = bulk_load_ratio(p.bulk_entries);
    section("bulk ingest: Dit::bulk_load vs per-entry upsert");
    let header = format!("median of {BULK_TRIALS} (ms)");
    let mut t = Table::new(&["path", &header]);
    t.row(vec![
        format!("bulk_load ({} entries)", p.bulk_entries),
        f2(bulk_ms),
    ]);
    t.row(vec!["per-entry upsert".into(), f2(upsert_ms)]);
    t.row(vec!["speedup".into(), f2(bulk_ratio)]);
    t.print();

    if let Some(path) = &args.json {
        let ms = |d: SimDuration| format!("{:.0}", d.micros() as f64 / 1_000.0);
        Json::new()
            .str(
                "topology",
                &format!(
                    "{} gris / {} sites / 2 federated roots + chaining baseline",
                    p.hosts(),
                    p.sites
                ),
            )
            .num("sync_interval_ms", ms(SYNC_INTERVAL))
            .num("sync_deadline_ms", ms(SYNC_DEADLINE))
            .num("fed_local_read_us", f2(r.local_read_us))
            .num("dit_search_us", f2(r.dit_search_us))
            .num("local_read_ratio", f2(r.read_ratio))
            .num("fed_query_ms", f2(r.fed_query_ms))
            .num("chain_query_ms", f2(r.chain_query_ms))
            .num("fed_speedup_vs_chaining", f2(r.speedup))
            .num("fed_staleness_p99_ms", format!("{:.1}", r.staleness_p99_ms))
            .num("staleness_bound_ms", format!("{bound_ms:.0}"))
            .num("bulk_load_speedup", f2(bulk_ratio))
            .write(path);
    }

    let mut failures = Vec::new();
    if r.read_ratio > MAX_LOCAL_READ_RATIO {
        failures.push(format!(
            "local read {:.2}x a raw DIT search (gate {MAX_LOCAL_READ_RATIO}x)",
            r.read_ratio
        ));
    }
    if r.staleness_p99_ms > bound_ms {
        failures.push(format!(
            "p99 staleness {:.1} ms exceeds the {bound_ms:.0} ms budget",
            r.staleness_p99_ms
        ));
    }
    if r.speedup < MIN_SPEEDUP {
        failures.push(format!(
            "speedup over chaining {:.2}x below the {MIN_SPEEDUP}x gate",
            r.speedup
        ));
    }
    if bulk_ratio < MIN_BULK_RATIO {
        failures.push(format!(
            "bulk_load only {bulk_ratio:.2}x per-entry upsert (gate {MIN_BULK_RATIO}x)"
        ));
    }
    if r.fed_entries < p.hosts() || r.chain_entries < p.hosts() {
        failures.push(format!(
            "incomplete answers: federated {} / chaining {} entries for {} hosts",
            r.fed_entries,
            r.chain_entries,
            p.hosts()
        ));
    }
    if smoke {
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "\nsmoke gate passed: read ratio {:.2}x <= {MAX_LOCAL_READ_RATIO}x, p99 \
             staleness {:.1} ms <= {bound_ms:.0} ms, speedup {:.2}x >= {MIN_SPEEDUP}x, \
             bulk ingest {bulk_ratio:.2}x >= {MIN_BULK_RATIO}x",
            r.read_ratio, r.staleness_p99_ms, r.speedup
        );
        return;
    }
    for f in &failures {
        eprintln!("WARN: {f}");
    }
    println!(
        "\nexpected shape: federated latency ~ one core RTT while chaining adds\n\
         the WAN fan-out to every site on every query; staleness p99 well under\n\
         the pull budget (deltas land in one WAN RTT); bulk_load amortizes index\n\
         construction over the whole batch."
    );
}

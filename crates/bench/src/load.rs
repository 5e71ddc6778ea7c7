//! The load driver of the wall-clock `exp_*` binaries.
//!
//! Every wall-clock experiment measures the same thing the same way:
//! client threads, each holding its own [`LiveClient`] (its own TCP
//! connection when the target is `tcp://`), issue searches at a target
//! and report one [`Run`]. The binaries keep only what is their own:
//! topology, WAN relay, connection fleet and gate logic.
//!
//! What a [`Run`] reports:
//!
//! * `ok` — queries answered with `Success` within [`TIMEOUT`];
//!   `total` — queries issued.
//! * `qps` — `ok` over the wall-clock time of the whole run, from the
//!   first query sent to the last client thread done.
//! * `p50_us` / `p99_us` — per-query latency of the `ok` queries. At
//!   depth 1 that is one request's round trip. At depth > 1 a client
//!   sends its queries in batches of `depth` pipelined requests, and
//!   every query of a batch is charged the batch's time divided by its
//!   size (the latency amortized per query).

use gis_core::{LiveClient, LiveRuntime, ServeOptions};
use gis_gris::{Gris, GrisConfig, InfoProvider, ProviderError};
use gis_ldap::{Dn, Entry, Filter, LdapUrl};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::{ResultCode, SearchSpec};
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Deadline of one lock-step query, or of one pipelined batch.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// One measured configuration, as its clients saw it (see the module
/// doc for what each field means).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// Answered queries per second of wall-clock time.
    pub qps: f64,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
    /// Queries answered with `Success`.
    pub ok: usize,
    /// Queries issued.
    pub total: usize,
}

/// The `p` quantile (0..=1) of ascending `sorted`, by nearest rank; 0
/// for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The median of `samples` (upper median for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

fn is_success(outcome: &Option<gis_core::live::SearchOutcome>) -> bool {
    matches!(outcome, Some((ResultCode::Success, _, _)))
}

/// One thread per client, each issuing `queries_per_client` searches at
/// `target`; client `i` issues `specs[i % specs.len()]`. Depth 1 is the
/// lock-step shape (one request in flight per client); depth > 1 sends
/// batches of `depth` pipelined requests
/// ([`LiveClient::search_pipelined`]).
pub fn drive(
    clients: Vec<LiveClient>,
    target: &LdapUrl,
    specs: &[SearchSpec],
    queries_per_client: usize,
    depth: usize,
) -> Run {
    let total = clients.len() * queries_per_client;
    let start = Instant::now();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            let target = target.clone();
            let spec = specs[i % specs.len()].clone();
            std::thread::spawn(move || {
                let mut lats = Vec::with_capacity(queries_per_client);
                if depth <= 1 {
                    for _ in 0..queries_per_client {
                        let t0 = Instant::now();
                        let outcome = client
                            .request(&target, spec.clone())
                            .timeout(TIMEOUT)
                            .send()
                            .outcome;
                        if is_success(&outcome) {
                            lats.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                } else {
                    let batch = vec![spec; depth];
                    let mut left = queries_per_client;
                    while left > 0 {
                        let n = left.min(depth);
                        left -= n;
                        let t0 = Instant::now();
                        let outcomes =
                            client.search_pipelined(&target, &batch[..n], depth, TIMEOUT);
                        let per_query = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
                        let answered = outcomes.iter().filter(|o| is_success(o)).count();
                        lats.extend(std::iter::repeat_n(per_query, answered));
                    }
                }
                lats
            })
        })
        .collect();
    let mut lats: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    lats.sort_by(f64::total_cmp);
    Run {
        qps: lats.len() as f64 / elapsed,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        ok: lats.len(),
        total,
    }
}

/// Poll `target` with `spec` until it answers `Success` with at least
/// `want` entries (registrations, harvests and syncs are asynchronous),
/// and return the entry count of that answer. Panics after 15 s.
pub fn warm(client: &mut LiveClient, target: &LdapUrl, spec: &SearchSpec, want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let outcome = client
            .request(target, spec.clone())
            .timeout(Duration::from_secs(2))
            .send()
            .outcome;
        if let Some((ResultCode::Success, entries, _)) = &outcome {
            if entries.len() >= want {
                return entries.len();
            }
        }
        assert!(
            Instant::now() < deadline,
            "{target} never answered {want} entries; last outcome: {outcome:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Every `(objectclass=computer)` entry in the directory.
pub fn computers() -> SearchSpec {
    SearchSpec::subtree(
        Dn::root(),
        Filter::parse("(objectclass=computer)").expect("filter"),
    )
}

/// The command line every wall-clock binary accepts: `--smoke` (the
/// reduced, gated CI run) and `--json PATH` (also dump the numbers for
/// `scripts/bench_snapshot.sh`).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--smoke` was given.
    pub smoke: bool,
    /// The path after `--json`, if given.
    pub json: Option<String>,
}

impl Args {
    /// Read this process's arguments.
    pub fn parse() -> Args {
        let args: Vec<String> = std::env::args().collect();
        Args {
            smoke: args.iter().any(|a| a == "--smoke"),
            json: args
                .iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1))
                .cloned(),
        }
    }
}

/// A JSON object under construction, for the `--json` dumps. Values
/// are rendered when added; numbers are written exactly as given, so
/// callers pick their precision (e.g. with [`crate::f2`]).
#[derive(Debug, Clone, Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    /// An empty object.
    pub fn new() -> Json {
        Json::default()
    }

    /// A number (or `null`), rendered by its `Display`.
    pub fn num(mut self, key: &str, value: impl Display) -> Json {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// A string (no escaping: the binaries write plain labels).
    pub fn str(mut self, key: &str, value: &str) -> Json {
        self.fields.push((key.into(), format!("\"{value}\"")));
        self
    }

    /// A nested object, written on one line.
    pub fn obj(mut self, key: &str, value: Json) -> Json {
        self.fields.push((key.into(), value.inline()));
        self
    }

    /// An array of objects, one per line.
    pub fn rows(mut self, key: &str, rows: &[Json]) -> Json {
        let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.inline())).collect();
        let body = if lines.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n  ]", lines.join(",\n"))
        };
        self.fields.push((key.into(), body));
        self
    }

    /// The fields of `run`: `qps`, `p50_us`, `p99_us`, `ok`, `total`.
    pub fn run(self, run: &Run) -> Json {
        self.num("qps", crate::f2(run.qps))
            .num("p50_us", crate::f2(run.p50_us))
            .num("p99_us", crate::f2(run.p99_us))
            .num("ok", run.ok)
            .num("total", run.total)
    }

    fn inline(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }

    /// Write the object to `path`, one top-level field per line.
    pub fn write(&self, path: &str) {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        std::fs::write(path, format!("{{\n{}\n}}\n", parts.join(",\n"))).expect("write json");
        println!("\njson written to {path}");
    }
}

/// The paper's information provider as an external program (§5: a
/// sensor script, a scheduler query, an NWS probe): one site's hosts
/// behind a non-cacheable provider whose every invocation blocks for
/// `probe` of wall-clock time.
#[derive(Debug)]
pub struct ProbeProvider {
    namespace: Dn,
    entries: Vec<Entry>,
    probe: Duration,
}

impl ProbeProvider {
    /// `hosts` computers under `ou=site<site>, o=fleet`.
    pub fn new(site: usize, hosts: usize, probe: Duration) -> ProbeProvider {
        let namespace = Dn::parse(&format!("ou=site{site}, o=fleet")).expect("site dn");
        let entries = (0..hosts)
            .map(|i| {
                Entry::new(Dn::parse(&format!("hn=h{i}, ou=site{site}, o=fleet")).expect("host dn"))
                    .with_class("computer")
                    .with("hn", format!("h{i}"))
                    .with("system", "linux")
                    .with("arch", if i % 2 == 0 { "x86_64" } else { "aarch64" })
                    .with("cpucount", (2 + (i % 7)) as i64)
                    .with("memorymb", (1024 * (1 + i % 16)) as i64)
            })
            .collect();
        ProbeProvider {
            namespace,
            entries,
            probe,
        }
    }
}

impl InfoProvider for ProbeProvider {
    fn name(&self) -> &str {
        "site-probe"
    }
    fn namespace(&self) -> &Dn {
        &self.namespace
    }
    fn cache_ttl(&self) -> SimDuration {
        SimDuration::ZERO
    }
    fn cacheable(&self) -> bool {
        false
    }
    fn fetch(&mut self, _spec: &SearchSpec, _now: SimTime) -> Result<Vec<Entry>, ProviderError> {
        std::thread::sleep(self.probe);
        Ok(self.entries.clone())
    }
}

/// One GRIS over `sites` slow probe providers: the workload in which a
/// query-worker pool overlaps blocked provider invocations.
#[derive(Debug, Clone, Copy)]
pub struct ProbeFleet {
    /// Probe providers, one per site (`ou=site<i>, o=fleet`).
    pub sites: usize,
    /// Entries each probe returns.
    pub hosts: usize,
    /// Wall-clock cost of one provider invocation.
    pub probe: Duration,
}

impl ProbeFleet {
    /// One subtree search per site; with [`drive`], client `i` queries
    /// site `i % sites`, so concurrent queries block in distinct
    /// provider invocations.
    pub fn specs(&self) -> Vec<SearchSpec> {
        (0..self.sites)
            .map(|site| {
                SearchSpec::subtree(
                    Dn::parse(&format!("ou=site{site}, o=fleet")).expect("base"),
                    Filter::parse("(objectclass=computer)").expect("filter"),
                )
            })
            .collect()
    }

    /// Spawn the GRIS (instrumented or not) on a fresh runtime with
    /// `workers` query workers, warm it, and drive it lock-step with
    /// `clients` in-process clients.
    pub fn measure(
        &self,
        workers: usize,
        clients: usize,
        queries_per_client: usize,
        observability: bool,
    ) -> Run {
        let mut rt = LiveRuntime::new(Duration::from_millis(5));
        let url = LdapUrl::server("gris.probe");
        let mut config = GrisConfig::open(url.clone(), Dn::parse("o=fleet").expect("suffix"));
        config.observability = observability;
        let mut gris = Gris::new(
            config,
            SimDuration::from_secs(60),
            SimDuration::from_secs(180),
        );
        for site in 0..self.sites {
            gris.add_provider(Box::new(ProbeProvider::new(site, self.hosts, self.probe)));
        }
        rt.spawn_gris(gris, ServeOptions::default().with_workers(workers))
            .expect("spawn gris");
        let specs = self.specs();
        warm(&mut rt.client(), &url, &specs[0], 1);
        let clients = (0..clients).map(|_| rt.client()).collect();
        let run = drive(clients, &url, &specs, queries_per_client, 1);
        rt.shutdown();
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_takes_the_nearest_rank() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 51.0);
        assert_eq!(percentile(&xs, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_renders_nested_rows() {
        let run = Run {
            qps: 1.0,
            p50_us: 2.0,
            p99_us: 3.0,
            ok: 4,
            total: 5,
        };
        let json = Json::new()
            .num("n", 7)
            .rows("runs", &[Json::new().str("w", "a").run(&run)])
            .obj("derived", Json::new().num("x", "null"));
        let mut body = String::new();
        for (k, v) in &json.fields {
            body.push_str(&format!("{k}={v};"));
        }
        assert_eq!(
            body,
            "n=7;runs=[\n    {\"w\": \"a\", \"qps\": 1.00, \"p50_us\": 2.00, \
             \"p99_us\": 3.00, \"ok\": 4, \"total\": 5}\n  ];derived={\"x\": null};"
        );
    }
}

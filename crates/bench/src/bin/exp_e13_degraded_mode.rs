//! E13 — degraded-mode behaviour of the live runtime under injected
//! faults.
//!
//! The paper's availability argument (§2.2, §6) is that a Grid
//! information service must keep answering — possibly with reduced
//! scope or older data — while parts of it fail. This experiment drives
//! the threaded runtime through a fault cycle (healthy → degraded →
//! healed) twice: once with the robustness features off (no circuit
//! breaker, no serve-stale, no client retry) and once with them on,
//! and compares answer completeness and latency.
//!
//! Injected fault load, deterministic from a seed:
//! * ≥20% inbound message loss on every service link;
//! * one child GRIS "crashed" (paused: alive but unreachable, so its
//!   registration stays fresh and the directory keeps chaining to it);
//! * one child's info provider reporting `Unavailable`.
//!
//! Acceptance checks printed at the end:
//! (a) with the breaker, degraded-phase latency stops paying the full
//!     chaining deadline once the circuit opens;
//! (b) with serve-stale, the failed provider's entries stay visible,
//!     stamped `stale: TRUE`;
//! (c) after healing, half-open probes re-admit the child and answers
//!     return to complete.

use gis_bench::{banner, f2, percentile, section, Table};
use gis_core::{LiveRuntime, RetryPolicy, ServeOptions, ServiceFault};
use gis_giis::{BreakerConfig, Giis, GiisConfig, GiisMode};
use gis_gris::{Gris, GrisConfig, InfoProvider, ProviderError};
use gis_ldap::{Dn, Entry, Filter, LdapUrl};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::{ResultCode, SearchSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_HOSTS: usize = 4;
const QUERIES_PER_PHASE: usize = 40;
const DROP_RATE: f64 = 0.20;
const FAULT_SEED: u64 = 42;
/// GIIS chaining deadline — the cost of waiting for a dead child.
const CHAIN_TIMEOUT_MS: u64 = 400;

/// A one-entry host provider whose availability is flipped from the
/// driver thread (the live analogue of the netsim provider-failure
/// switch).
struct FlakyHostProvider {
    name: String,
    namespace: Dn,
    entry: Entry,
    fail: Arc<AtomicBool>,
}

impl FlakyHostProvider {
    fn new(host: &str, fail: Arc<AtomicBool>) -> FlakyHostProvider {
        let namespace = Dn::parse(&format!("hn={host}")).expect("dn");
        let entry = Entry::new(namespace.clone())
            .with_class("computer")
            .with("hn", host)
            .with("system", "linux");
        FlakyHostProvider {
            name: format!("flaky-host:{host}"),
            namespace,
            entry,
            fail,
        }
    }
}

impl InfoProvider for FlakyHostProvider {
    fn name(&self) -> &str {
        &self.name
    }
    fn namespace(&self) -> &Dn {
        &self.namespace
    }
    fn cache_ttl(&self) -> SimDuration {
        // Short TTL so the degraded phase actually re-fetches (and hits
        // the failure) instead of coasting on a fresh cache.
        SimDuration::from_millis(100)
    }
    fn fetch(&mut self, _spec: &SearchSpec, _now: SimTime) -> Result<Vec<Entry>, ProviderError> {
        if self.fail.load(Ordering::Relaxed) {
            return Err(ProviderError::Unavailable(self.name.clone()));
        }
        Ok(vec![self.entry.clone()])
    }
}

struct Deployment {
    rt: LiveRuntime,
    vo_url: LdapUrl,
    /// The child that the degraded phase will pause ("crash").
    crash_url: LdapUrl,
    /// Switch for the child whose provider the degraded phase fails.
    provider_fail: Arc<AtomicBool>,
    host_urls: Vec<LdapUrl>,
}

fn deploy(hardened: bool) -> Deployment {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo_url = LdapUrl::server("giis.e13");
    let mut config = GiisConfig::chaining(vo_url.clone(), Dn::root());
    config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(CHAIN_TIMEOUT_MS),
    };
    if hardened {
        config.breaker = Some(BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_secs(2),
            retry: true,
        });
    }
    rt.spawn_giis(
        Giis::new(
            config,
            SimDuration::from_millis(200),
            SimDuration::from_millis(800),
        ),
        ServeOptions::default(),
    )
    .unwrap();

    let provider_fail = Arc::new(AtomicBool::new(false));
    let mut host_urls = Vec::new();
    for i in 0..N_HOSTS {
        let host = format!("e13-{i}");
        let url = LdapUrl::server(format!("gris.{host}"));
        let mut config = GrisConfig::open(url.clone(), Dn::parse(&format!("hn={host}")).unwrap());
        if hardened {
            config.stale_ttl = Some(SimDuration::from_secs(120));
        }
        let mut gris = Gris::new(
            config,
            SimDuration::from_millis(200),
            SimDuration::from_millis(800),
        );
        // Host 1 carries the failable provider; the others never fail.
        let fail = if i == 1 {
            provider_fail.clone()
        } else {
            Arc::new(AtomicBool::new(false))
        };
        gris.add_provider(Box::new(FlakyHostProvider::new(&host, fail)));
        gris.agent.add_target(vo_url.clone());
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        host_urls.push(url);
    }
    // Host 0 is the crash victim.
    let crash_url = host_urls[0].clone();
    // Let registrations propagate before measuring.
    std::thread::sleep(Duration::from_millis(600));
    Deployment {
        rt,
        vo_url,
        crash_url,
        provider_fail,
        host_urls,
    }
}

#[derive(Default)]
struct Phase {
    answered: usize,
    total: usize,
    /// Mean fraction of the N_HOSTS host entries present per answer.
    completeness_sum: f64,
    stale_answers: usize,
    codes: Vec<ResultCode>,
    /// Ascending.
    latencies_ms: Vec<f64>,
}

impl Phase {
    fn completeness(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.completeness_sum / self.total as f64
        }
    }
    /// Fraction of answers that beat the chaining deadline: with a dead
    /// child still registered, only an open circuit makes this nonzero.
    fn below_deadline(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let cutoff = CHAIN_TIMEOUT_MS as f64 * 0.95;
        self.latencies_ms.iter().filter(|l| **l < cutoff).count() as f64
            / self.latencies_ms.len() as f64
    }
    fn code_summary(&self) -> String {
        let count = |c: ResultCode| self.codes.iter().filter(|x| **x == c).count();
        format!(
            "ok={} stale={} partial={}",
            count(ResultCode::Success),
            count(ResultCode::StaleResults),
            count(ResultCode::PartialResults),
        )
    }
}

fn measure(dep: &Deployment, hardened: bool) -> Phase {
    let mut client = dep.rt.client();
    let spec = SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap());
    let mut phase = Phase {
        total: QUERIES_PER_PHASE,
        ..Phase::default()
    };
    for _ in 0..QUERIES_PER_PHASE {
        let t0 = Instant::now();
        let result = if hardened {
            client
                .request(&dep.vo_url, spec.clone())
                .retry(RetryPolicy {
                    attempt_timeout: Duration::from_millis(700),
                    max_attempts: 4,
                    base_backoff: Duration::from_millis(30),
                    max_backoff: Duration::from_millis(250),
                })
                .send()
                .outcome
        } else {
            client
                .request(&dep.vo_url, spec.clone())
                .timeout(Duration::from_millis(700))
                .send()
                .outcome
        };
        if let Some((code, entries, _)) = result {
            phase.answered += 1;
            phase.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            phase.completeness_sum += entries.len().min(N_HOSTS) as f64 / N_HOSTS as f64;
            if entries.iter().any(|e| e.get_str("stale") == Some("TRUE")) {
                phase.stale_answers += 1;
            }
            phase.codes.push(code);
        }
    }
    phase.latencies_ms.sort_by(f64::total_cmp);
    phase
}

fn run_mode(hardened: bool) -> [Phase; 3] {
    let dep = deploy(hardened);

    let healthy = measure(&dep, hardened);

    // Inject the fault load: seeded loss everywhere, one crashed child,
    // one failed provider.
    dep.rt.set_fault_seed(FAULT_SEED);
    for url in std::iter::once(&dep.vo_url).chain(&dep.host_urls) {
        dep.rt.set_fault(
            url,
            ServiceFault {
                drop: DROP_RATE,
                latency: Duration::ZERO,
                paused: false,
            },
        );
    }
    dep.rt.pause_service(&dep.crash_url);
    dep.provider_fail.store(true, Ordering::Relaxed);
    // Let the serve-stale caches age past the provider TTL so degraded
    // queries really exercise the failure path.
    std::thread::sleep(Duration::from_millis(200));
    let degraded = measure(&dep, hardened);

    // Heal everything; wait out the breaker cooldown so half-open probes
    // can re-admit the crashed child, plus one registration interval.
    dep.rt.heal_all();
    dep.rt.resume_service(&dep.crash_url);
    dep.provider_fail.store(false, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(2500));
    let healed = measure(&dep, hardened);

    let metrics = dep.rt.net_metrics();
    println!(
        "  [{}] router counters: sent={} delivered={} dropped_fault={} \
         dropped_paused={} delayed={}",
        if hardened { "hardened" } else { "baseline" },
        metrics.sent,
        metrics.delivered,
        metrics.dropped_fault,
        metrics.dropped_paused,
        metrics.delayed,
    );
    dep.rt.shutdown();
    [healthy, degraded, healed]
}

fn main() {
    banner(
        "E13",
        "answer completeness and latency under injected faults",
        "degraded modes keep the directory useful while parts of it fail (§2.2, §6)",
    );
    println!(
        "1 chaining GIIS (deadline {CHAIN_TIMEOUT_MS}ms) + {N_HOSTS} GRIS on live threads;\n\
         {QUERIES_PER_PHASE} queries per phase; degraded phase injects {}% loss,\n\
         one crashed child and one failed provider (fault seed {FAULT_SEED}).\n",
        (DROP_RATE * 100.0) as u32
    );

    let baseline = run_mode(false);
    let hardened = run_mode(true);

    let mut table = Table::new(&[
        "mode",
        "phase",
        "answered",
        "completeness",
        "stale answers",
        "< deadline",
        "p50 (ms)",
        "p99 (ms)",
        "codes",
    ]);
    for (mode, phases) in [("baseline", &baseline), ("hardened", &hardened)] {
        for (name, p) in ["healthy", "degraded", "healed"].iter().zip(phases.iter()) {
            table.row(vec![
                mode.into(),
                (*name).into(),
                format!("{}/{}", p.answered, p.total),
                f2(p.completeness()),
                p.stale_answers.to_string(),
                f2(p.below_deadline()),
                f2(percentile(&p.latencies_ms, 0.5)),
                f2(percentile(&p.latencies_ms, 0.99)),
                p.code_summary(),
            ]);
        }
    }
    section("results (wall-clock, this machine)");
    table.print();

    section("acceptance checks");
    let b_deg = &baseline[1];
    let h_deg = &hardened[1];
    let h_healed = &hardened[2];
    let check = |label: &str, pass: bool, detail: String| {
        println!(
            "  [{}] {label}: {detail}",
            if pass { "PASS" } else { "FAIL" }
        );
    };
    check(
        "(a) breaker skips the dead child",
        h_deg.below_deadline() > 0.25 && b_deg.below_deadline() < 0.05,
        format!(
            "{}% of hardened degraded answers beat the {CHAIN_TIMEOUT_MS}ms \
             chaining deadline vs {}% baseline (without a breaker, a dead but \
             still-registered child makes every fan-out wait it out)",
            f2(h_deg.below_deadline() * 100.0),
            f2(b_deg.below_deadline() * 100.0),
        ),
    );
    check(
        "(b) serve-stale keeps the failed provider visible",
        h_deg.stale_answers > 0 && h_deg.completeness() > b_deg.completeness(),
        format!(
            "{} of {} hardened degraded answers carried stale-marked entries; \
             completeness {} vs {} baseline",
            h_deg.stale_answers,
            h_deg.total,
            f2(h_deg.completeness()),
            f2(b_deg.completeness()),
        ),
    );
    check(
        "(c) probes re-admit after heal",
        h_healed.completeness() > 0.99 && h_healed.answered == h_healed.total,
        format!(
            "healed completeness {} with {}/{} answered",
            f2(h_healed.completeness()),
            h_healed.answered,
            h_healed.total,
        ),
    );
    println!(
        "\nexpected shape: baseline loses the crashed child AND the failed\n\
         provider's entries, and every degraded query pays the full chaining\n\
         deadline; hardened answers keep 3/4 hosts live plus the fourth as a\n\
         stale-marked cache hit, return fast once the circuit opens, and\n\
         recover the complete view after healing."
    );
}

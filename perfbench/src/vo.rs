//! `vo_discovery` and `vo_churn`: brokers discover resources across a
//! VO's aggregate GIIS while sites join, refresh and leave through the
//! soft-state GRRP stream.
//!
//! Both stand up a harvest-mode root GIIS holding ≈40k entries,
//! harvested at set-up from 40 site GRIS endpoints (one per site, the
//! paper's deployment), each serving 250 hosts × 4 entries.
//!
//! * `vo_discovery` writes nothing in the window: GRRP TTLs and the
//!   harvest refresh are longer than the run. A closed loop of 2
//!   connections × 8 in flight runs the discovery mix, so both reactor
//!   shards search. Per-query cost is DIT search at this size.
//! * `vo_churn` makes the root durable (`ServeOptions::persist`: the
//!   live journal fsyncs every record and snapshots every 512) and runs
//!   an open-loop schedule: sites join by GRRP, present sites refresh on
//!   their interval, as many stop refreshing and expire, and reads of
//!   the discovery mix arrive at a fixed rate. Publish, integrate and
//!   the WAL do most of the work; reads share the same DIT.

use crate::driver::{Driver, Inbound};
use crate::grid::{self, Oracle, Query, Site, SiteProvider};
use crate::layers::{self, Layers, Source, Tracer};
use crate::load::{ClosedLoop, DEADLINE};
use crate::stats::{ctx_switches, threads};
use crate::window::Recorder;
use crate::{fail_setup, Config, Outcome, TICK};
use gis_core::{LiveRuntime, ServeOptions};
use gis_giis::{Giis, GiisConfig, GiisMode, GiisQueryPath};
use gis_gris::{Gris, GrisConfig, GrisQueryPath};
use gis_ldap::{Dn, Entry, Filter, LdapUrl};
use gis_netsim::{SimDuration, SimRng};
use gis_proto::{GripReply, GrrpMessage, MetricsRegistry, ResultCode, SearchSpec};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Discovery,
    Churn,
}

const SITES: usize = 40;
/// `vo_churn`: sites that refresh for the whole run; the other initial
/// sites are the first to leave.
const STABLE: usize = 20;
/// Set-ups per run (their median is `setup_s`).
fn setups(mode: Mode) -> usize {
    match mode {
        Mode::Discovery => 5,
        Mode::Churn => 5,
    }
}
/// `vo_discovery`: sites that join one at a time on each set-up's root
/// once it is otherwise idle, each timed from registration to
/// answerable. A set-up storm would not do: its 40 sites become
/// answerable together. Spreading the joins over every set-up keeps the
/// root near 40 sites and interleaves the two kinds of sample in time.
const IDLE_JOINS: usize = 10;
const CONNS: usize = 2;
/// `vo_discovery`: queries in flight per connection.
const DEPTH: usize = 8;
/// `vo_churn`: period of joins; as many sites leave.
///
/// Each join and each departure publishes a new snapshot of the ≈40k
/// entry directory (≈0.1–0.2 s of the root's owner thread), so at 2/s
/// the owner is busy more than half the time and every figure of the
/// workload follows the machine's speed of the moment through the
/// queue; one a second keeps it busy about a quarter of the time.
///
/// Departures are half a period out of phase with joins: a leaving site
/// sends its last registration then, so it expires, and the root sweeps
/// it (on its next 100-ms tick) and publishes, between two joins. Were
/// the two left to drift, a chance share of joins would wait behind a
/// sweep's publish, and the join tail would sit on that share.
const JOIN_EVERY: Duration = Duration::from_secs(1);
/// `vo_churn`: discovery reads per second, open loop.
const READ_RATE: f64 = 50.0;
/// `vo_churn`: GRRP refresh interval and TTL (3 × interval, §4.3). The
/// interval gives the journal several snapshot cycles (one per 512
/// records) in every window.
const REFRESH: Duration = Duration::from_secs(1);
const TTL: Duration = Duration::from_secs(3);
/// `vo_discovery`: registrations outlive the run.
const LONG_TTL: Duration = Duration::from_secs(3600);
const READY_DEADLINE: Duration = Duration::from_secs(60);
/// A join not answerable at the root within this is a failure.
const JOIN_DEADLINE: Duration = Duration::from_secs(5);
/// How often a pending join's last entry is probed for at the root.
const PROBE_EVERY: Duration = Duration::from_millis(2);
/// Probes in flight at once during the set-up storm.
const SETUP_PROBES: usize = 6;
/// A left site may still be served this long past its TTL (the root's
/// sweep runs on its tick, behind whatever the owner is doing).
const EXPIRY_SLACK: Duration = Duration::from_secs(2);

fn warmup(mode: Mode) -> Duration {
    match mode {
        Mode::Discovery => Duration::from_secs(2),
        // Long enough for the initial churn sites to start leaving.
        Mode::Churn => Duration::from_secs(4),
    }
}

/// The generator's view of one site's registration.
#[derive(Default, Clone)]
struct SiteState {
    url: Option<LdapUrl>,
    join_sent: Option<Instant>,
    visible_at: Option<Instant>,
    stopped_at: Option<Instant>,
    /// Validity end of the last registration sent.
    valid_until: Option<Instant>,
    killed: bool,
}

struct Registry {
    sites: Vec<SiteState>,
    /// Every site's generated entries, by site index.
    entries: Vec<Arc<Vec<Entry>>>,
    ttl: Duration,
}

impl Oracle for Registry {
    fn model(&self, dn: &Dn) -> Option<&Entry> {
        grid::site_entry(&self.entries, dn)
    }

    fn must_appear(&self, site: usize, sent: Instant) -> bool {
        let s = &self.sites[site];
        // The root may not yet have applied the newest refresh; the one
        // before it is a refresh interval older.
        s.visible_at.is_some_and(|v| v <= sent)
            && (s.stopped_at.is_none()
                || s.valid_until.is_some_and(|u| u > sent + REFRESH + DEADLINE))
    }

    fn may_appear(&self, site: usize, sent: Instant, received: Instant) -> bool {
        let s = &self.sites[site];
        s.join_sent.is_some_and(|j| j <= received)
            && (s.stopped_at.is_none() || s.valid_until.is_some_and(|u| u + EXPIRY_SLACK > sent))
    }
}

struct LiveSite {
    query: GrisQueryPath,
    metrics: Arc<MetricsRegistry>,
}

/// The running topology and everything the generator tracks about it.
struct Topology {
    rt: LiveRuntime,
    root_query: GiisQueryPath,
    root_metrics: Arc<MetricsRegistry>,
    driver: Driver,
    live: BTreeMap<usize, LiveSite>,
    reg: Registry,
    /// Refresh schedule: (due, site).
    refresh: BinaryHeap<Reverse<(Instant, usize)>>,
    interval: Option<Duration>,
}

fn spawn_site(rt: &mut LiveRuntime, site: &Site) -> io::Result<(LdapUrl, LiveSite)> {
    let mut config = GrisConfig::open(LdapUrl::tcp("127.0.0.1", 0), site.dn.clone());
    config.monitoring_refresh = SimDuration::from_secs(3600);
    let mut gris = Gris::new(
        config,
        SimDuration::from_secs(3600),
        SimDuration::from_secs(7200),
    );
    gris.add_provider(Box::new(SiteProvider::new(site)));
    let live = LiveSite {
        query: gris.query_path(),
        metrics: gris.metrics(),
    };
    let url = rt.spawn_gris(gris, ServeOptions::tcp())?;
    Ok((url, live))
}

impl Topology {
    fn register(&mut self, site: usize, sites: &[Site], now: Instant) {
        let s = &mut self.reg.sites[site];
        let url = s.url.clone().expect("site is spawned before it registers");
        let msg = GrrpMessage::register(
            url,
            sites[site].dn.clone(),
            self.rt.now(),
            SimDuration::from_micros(self.reg.ttl.as_micros() as u64),
        );
        s.valid_until = Some(now + self.reg.ttl);
        if s.join_sent.is_none() {
            s.join_sent = Some(now);
        }
        self.driver.grrp(0, msg);
    }

    /// Send the refreshes that are due, appending each one's lateness to
    /// `late`.
    fn refresh_due(&mut self, sites: &[Site], now: Instant, late: &mut Vec<Duration>) {
        let Some(interval) = self.interval else {
            return;
        };
        while let Some(&Reverse((due, site))) = self.refresh.peek() {
            if due > now {
                break;
            }
            self.refresh.pop();
            if self.reg.sites[site].stopped_at.is_some() {
                continue;
            }
            self.register(site, sites, now);
            late.push(now - due);
            self.refresh.push(Reverse((due + interval, site)));
        }
    }

    /// Join site `k` with nothing else in flight and probe its last
    /// entry at the root until it is answerable; returns join→visible in
    /// ms, or `None` if that took longer than [`JOIN_DEADLINE`].
    fn join_alone(&mut self, k: usize, sites: &[Site]) -> io::Result<Option<f64>> {
        let (url, l) = spawn_site(&mut self.rt, &sites[k])?;
        self.reg.sites[k].url = Some(url);
        self.live.insert(k, l);
        let sent = Instant::now();
        self.register(k, sites, sent);
        let deadline = sent + JOIN_DEADLINE;
        let spec = SearchSpec::lookup(sites[k].last_dn());
        while Instant::now() < deadline {
            let reply = self.driver.search_blocking(1, spec.clone(), deadline)?;
            let woke = Instant::now();
            if reply.as_ref().is_some_and(answers_one) {
                self.reg.sites[k].visible_at = Some(woke);
                return Ok(Some((woke - sent).as_secs_f64() * 1e3));
            }
            std::thread::sleep(PROBE_EVERY);
        }
        Ok(None)
    }

    /// [`IDLE_JOINS`] sites from `first` on join one at a time; each
    /// time is a join sample, each join not answerable in time a failure.
    fn idle_joins(&mut self, first: usize, sites: &[Site], out: &mut Outcome) -> io::Result<()> {
        for k in first..first + IDLE_JOINS {
            out.attempted += 1;
            match self.join_alone(k, sites)? {
                Some(ms) => out.join_ms.push(ms),
                None => out.failed += 1,
            }
        }
        Ok(())
    }

    fn shutdown(self) {
        drop(self.driver);
        self.rt.shutdown();
    }
}

/// Stand the topology up from empty: root, 40 sites, their registration
/// storm, and a probe of each site's last entry until all are
/// answerable.
fn setup(mode: Mode, sites: &[Site], persist: Option<PathBuf>) -> io::Result<Topology> {
    let mut rt = LiveRuntime::new(TICK);
    let mut config = GiisConfig::chaining(LdapUrl::tcp("127.0.0.1", 0), grid::vo_dn());
    config.mode = GiisMode::Harvest {
        refresh: SimDuration::from_secs(3600),
    };
    config.monitoring_refresh = SimDuration::from_secs(3600);
    let giis = Giis::new(
        config,
        SimDuration::from_secs(3600),
        SimDuration::from_secs(7200),
    );
    let root_query = giis.query_path();
    let root_metrics = giis.metrics();
    let opts = match persist {
        Some(dir) => ServeOptions::tcp().persist(dir),
        None => ServeOptions::tcp(),
    };
    let root_url = rt.spawn_giis(giis, opts)?;
    let mut live = BTreeMap::new();
    let mut reg = Registry {
        sites: vec![SiteState::default(); sites.len()],
        entries: sites.iter().map(|s| Arc::clone(&s.entries)).collect(),
        ttl: if mode == Mode::Churn { TTL } else { LONG_TTL },
    };
    for (k, site) in sites.iter().enumerate().take(SITES) {
        let (url, l) = spawn_site(&mut rt, site)?;
        reg.sites[k].url = Some(url);
        live.insert(k, l);
    }
    let addr: SocketAddr = root_url.authority().parse().map_err(io::Error::other)?;
    let driver = Driver::connect(addr, CONNS)?;
    let mut topo = Topology {
        rt,
        root_query,
        root_metrics,
        driver,
        live,
        reg,
        refresh: BinaryHeap::new(),
        interval: (mode == Mode::Churn).then_some(REFRESH),
    };
    let start = Instant::now();
    for k in 0..SITES {
        topo.register(k, sites, start);
        if let Some(interval) = topo.interval {
            // Stagger refreshes evenly over the interval.
            let phase = interval * (k as u32 + 1) / SITES as u32;
            topo.refresh.push(Reverse((start + phase, k)));
        }
    }
    let deadline = start + READY_DEADLINE;
    let mut probes: HashMap<u64, usize> = HashMap::new();
    let mut got: Vec<Inbound> = Vec::new();
    let mut unseen: Vec<usize> = (0..SITES).collect();
    let mut rotate = 0usize;
    let mut late = Vec::new();
    while !unseen.is_empty() {
        let now = Instant::now();
        if now >= deadline {
            let missing = unseen.len();
            topo.shutdown();
            return Err(fail_setup(&format!(
                "{missing} of {SITES} sites never became answerable at the root"
            )));
        }
        topo.refresh_due(sites, now, &mut late);
        if probes.is_empty() {
            // The oldest unseen sites (harvests complete roughly in
            // registration order) plus a rotating pick of the others.
            let mut pick: Vec<usize> = unseen.iter().take(SETUP_PROBES - 2).copied().collect();
            for _ in 0..2 {
                rotate += 1;
                let k = unseen[rotate % unseen.len()];
                if !pick.contains(&k) {
                    pick.push(k);
                }
            }
            for k in pick {
                let id = topo
                    .driver
                    .search(1, SearchSpec::lookup(sites[k].last_dn()), None);
                probes.insert(id, k);
            }
        }
        got.clear();
        topo.driver.poll(PROBE_EVERY, &mut got)?;
        let woke = Instant::now();
        for r in got.drain(..) {
            let Some(k) = probes.remove(&r.reply.id()) else {
                continue;
            };
            if answers_one(&r.reply) && topo.reg.sites[k].visible_at.is_none() {
                topo.reg.sites[k].visible_at = Some(woke);
                unseen.retain(|&u| u != k);
            }
        }
    }
    // Drain probes still in flight so the window starts clean.
    let drain = Instant::now() + DEADLINE;
    while !probes.is_empty() && Instant::now() < drain {
        got.clear();
        topo.driver.poll(Duration::from_millis(5), &mut got)?;
        for r in got.drain(..) {
            probes.remove(&r.reply.id());
        }
    }
    Ok(topo)
}

fn answers_one(reply: &GripReply) -> bool {
    matches!(reply, GripReply::SearchResult { code: ResultCode::Success, entries, .. } if entries.len() == 1)
}

pub fn run(cfg: &Config, mode: Mode) -> io::Result<Outcome> {
    // Inputs first, from the seed: every site that can appear in this
    // run, and the query pool with its expected answers.
    let warm = warmup(mode);
    let total_sites = match mode {
        Mode::Discovery => SITES + setups(mode) * IDLE_JOINS + 5,
        Mode::Churn => {
            let traced = if cfg.trace {
                crate::traced_window(cfg).as_secs_f64()
            } else {
                0.0
            };
            let run = warm.as_secs_f64() + cfg.seconds as f64 + traced + 3.0;
            SITES + (run / JOIN_EVERY.as_secs_f64()).ceil() as usize + 5
        }
    };
    let sites: Vec<Site> = (0..total_sites)
        .map(|k| Site::generate(cfg.seed, k))
        .collect();
    let mut rng = SimRng::new(cfg.seed);
    let targets: Vec<usize> = match mode {
        Mode::Discovery => (0..SITES).collect(),
        Mode::Churn => (0..STABLE).collect(),
    };
    let pool = grid::discovery_pool(&mut rng, &sites, &targets);

    let mut out = Outcome::default();
    let mut topo = timed_setup(mode, &sites, cfg, &mut out)?;
    let (ready_hists, dispatch_hists) = layers::reactor_hists(&topo.root_metrics);
    let ready_before: Vec<_> = ready_hists.iter().map(|h| h.snapshot()).collect();
    let dispatch_before: Vec<_> = dispatch_hists.iter().map(|h| h.snapshot()).collect();
    let ctx_before = ctx_switches();
    let recorder = match mode {
        Mode::Discovery => Recorder::new,
        Mode::Churn => Recorder::open_loop,
    };
    let mut rec = recorder(Duration::from_secs(cfg.seconds));
    let mut churn = Churn::new(&mut rng);
    let (sent, mut kept_replies) = match mode {
        Mode::Discovery => {
            let mut load = ClosedLoop::new(&mut topo.driver, &pool, rng.fork(), DEPTH, &topo.reg);
            load.run(warm, &mut rec, None)?;
            (load.sent, load.kept)
        }
        Mode::Churn => {
            let sent = churn.run(&mut topo, &sites, &pool, warm, &mut rec, None)?;
            out.join_ms = std::mem::take(&mut churn.joins_ms);
            (sent, Vec::new())
        }
    };
    out.ctx_per_op = (ctx_switches() - ctx_before) as f64 / sent.max(1) as f64;
    out.threads = threads();
    out.figures = rec.figures();
    out.rss_mb = crate::stats::rss_peak_mb();
    out.attempted = rec.attempted;
    out.failed = rec.failed;
    out.late_ms = std::mem::take(&mut rec.late_ms);

    if cfg.trace {
        let mut layers = Layers::default();
        layers.set(
            "reactor.ready_per_wake",
            layers::hists_mean(&ready_before, &ready_hists),
        );
        layers.set(
            "reactor.dispatch_us",
            layers::hists_mean(&dispatch_before, &dispatch_hists),
        );
        let inbox = topo.root_metrics.histogram("inbox-wait-us");
        let inbox_before = inbox.snapshot();
        let every = match mode {
            Mode::Discovery => (out.figures.qps / 1000.0).ceil() as u64,
            Mode::Churn => 1,
        };
        let mut tracer = Tracer::new(topo.rt.trace_sink(), every);
        let mut traced = recorder(crate::traced_window(cfg));
        match mode {
            Mode::Discovery => {
                let mut load =
                    ClosedLoop::new(&mut topo.driver, &pool, rng.fork(), DEPTH, &topo.reg);
                load.owner_probe = Some(Duration::from_millis(50));
                load.run(Duration::ZERO, &mut traced, Some(&mut tracer))?;
            }
            Mode::Churn => {
                churn.owner_probe = Some(Duration::from_millis(50));
                churn.run(
                    &mut topo,
                    &sites,
                    &pool,
                    Duration::ZERO,
                    &mut traced,
                    Some(&mut tracer),
                )?;
            }
        }
        let traced_figures = traced.figures();
        crate::note_overhead(&mut out, &mut layers, &traced_figures, every);
        tracer.analyse(&mut layers);
        let (p50, p99) = crate::inbox_wait(&inbox_before, &inbox);
        layers.set("live.inbox_wait_p50_us", p50);
        layers.set("live.inbox_wait_p99_us", p99);

        let (mut hits, mut misses) = (0u64, 0u64);
        for l in topo.live.values() {
            let s = l.query.stats();
            hits += s.cache_hits;
            misses += s.cache_misses;
        }
        let fetch: Vec<f64> = topo
            .live
            .values()
            .map(|l| crate::fetch_mean(&l.metrics, &["site".to_owned()]))
            .filter(|v| *v > 0.0)
            .collect();

        let sources: Vec<Source> = (0..SITES)
            .map(|k| Source {
                url: LdapUrl::tcp("127.0.0.1", 20_000 + k as u16),
                namespace: sites[k].dn.clone(),
                entries: Arc::clone(&sites[k].entries),
            })
            .collect();
        let joins: Vec<Source> = (0..5)
            .map(|j| {
                let k = total_sites - 5 + j;
                Source {
                    url: LdapUrl::tcp("127.0.0.1", 20_000 + k as u16),
                    namespace: sites[k].dn.clone(),
                    entries: Arc::clone(&sites[k].entries),
                }
            })
            .collect();
        if mode == Mode::Churn {
            // What the wire carries per join: the 1k-entry harvest reply.
            kept_replies = joins
                .iter()
                .map(|j| GripReply::SearchResult {
                    id: 1,
                    code: ResultCode::Success,
                    entries: j.entries.as_ref().clone(),
                    referrals: Vec::new(),
                })
                .collect();
        }
        let specs: Vec<SearchSpec> = pool.iter().map(|q| q.spec.clone()).collect();
        let (&first, site0) = topo.live.iter().next().expect("sites are live");
        let harvest = [SearchSpec::subtree(
            sites[first].dn.clone(),
            Filter::always(),
        )];
        let input = layers::Input {
            sources: &sources,
            joins: &joins,
            specs: &specs,
            replies: &kept_replies,
            // The churn root's query path is rebuilt when persistence
            // recovers at spawn, so a clone kept before spawn would see
            // an empty cache; its private replay engine stands in.
            giis: (mode == Mode::Discovery).then_some(&topo.root_query),
            gris: (&site0.query, &harvest),
            now: topo.rt.now(),
            workdir: &cfg.workdir,
        };
        layers::direct(&input, &mut layers);
        // Live figures replace the private engine's where they exist.
        layers.set(
            "gris.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.set("gris.fetch_us", crate::stats::mean(&fetch));
        let visible = topo
            .reg
            .sites
            .iter()
            .filter(|s| s.visible_at.is_some())
            .count();
        layers.set(
            "giis.harvest_ok_ratio",
            visible as f64 / topo.root_query.stats().harvests.max(1) as f64,
        );
        out.layers = Some(layers);
    }
    if mode == Mode::Discovery && !cfg.trace {
        topo.idle_joins(SITES, &sites, &mut out)?;
    }
    if mode == Mode::Churn {
        out.notes.push(format!(
            "durability: fsync every WAL record, snapshot every 512 records; \
             {} joins and {} departures in the window",
            churn.joins_in_window, churn.departures_in_window
        ));
    }
    topo.shutdown();
    // More set-ups for `setup_s`, after the window so their memory does
    // not count in its peak (torn-down topologies leave the allocator
    // holding a variable share of theirs).
    if !cfg.trace {
        for t in 1..setups(mode) {
            let mut topo = timed_setup(mode, &sites, cfg, &mut out)?;
            if mode == Mode::Discovery {
                topo.idle_joins(SITES + t * IDLE_JOINS, &sites, &mut out)?;
            }
            topo.shutdown();
        }
    }
    let _ = std::fs::remove_dir_all(cfg.workdir.join("root"));
    Ok(out)
}

/// One set-up from empty, timed into `out.setup_s`. A durable root
/// starts from an empty directory each time.
fn timed_setup(
    mode: Mode,
    sites: &[Site],
    cfg: &Config,
    out: &mut Outcome,
) -> io::Result<Topology> {
    let persist = (mode == Mode::Churn).then(|| cfg.workdir.join("root"));
    if let Some(dir) = &persist {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let topo = setup(mode, sites, persist)?;
    out.setup_s.push(t0.elapsed().as_secs_f64());
    Ok(topo)
}

struct PendingRead {
    query: usize,
    due: Instant,
    sent: Instant,
    counted: bool,
    traced: Option<u64>,
}

struct PendingJoin {
    site: usize,
    counted: bool,
    probe: Option<u64>,
    next_probe: Instant,
}

/// The `vo_churn` open-loop schedule. Its state carries over from the
/// measured window into the traced one.
struct Churn {
    rng: SimRng,
    next_site: usize,
    /// Churn sites in join order: the oldest leaves first.
    leaving: VecDeque<usize>,
    next_read: Option<Instant>,
    next_join: Option<Instant>,
    next_depart: Option<Instant>,
    reads: HashMap<(usize, u64), PendingRead>,
    joins: Vec<PendingJoin>,
    read_conn: usize,
    pub joins_ms: Vec<f64>,
    pub joins_in_window: u64,
    pub departures_in_window: u64,
    pub owner_probe: Option<Duration>,
}

impl Churn {
    fn new(rng: &mut SimRng) -> Churn {
        Churn {
            rng: rng.fork(),
            next_site: SITES,
            leaving: (STABLE..SITES).collect(),
            next_read: None,
            next_join: None,
            next_depart: None,
            reads: HashMap::new(),
            joins: Vec::new(),
            read_conn: 0,
            joins_ms: Vec::new(),
            joins_in_window: 0,
            departures_in_window: 0,
            owner_probe: None,
        }
    }

    /// Run the schedule through `warmup`, then `rec`'s window; then wait
    /// (bounded) for the window's reads and joins to finish. Returns the
    /// client operations sent.
    fn run(
        &mut self,
        topo: &mut Topology,
        sites: &[Site],
        pool: &[Query],
        warmup: Duration,
        rec: &mut Recorder,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<u64> {
        let read_every = Duration::from_secs_f64(1.0 / READ_RATE);
        let join_every = JOIN_EVERY;
        let start = Instant::now();
        let warm_end = start + warmup;
        let mut next_read = self.next_read.unwrap_or(start).max(start);
        // Joins start one TTL after departures: a departed site stays at
        // the root until its TTL runs out, so the root holds ≈40 sites.
        let mut next_depart = self
            .next_depart
            .unwrap_or(start + join_every / 2)
            .max(start);
        let mut next_join = self.next_join.unwrap_or(start + topo.reg.ttl).max(start);
        let mut measuring = false;
        let mut ops = 0u64;
        let mut got: Vec<Inbound> = Vec::new();
        let mut late = Vec::new();
        let mut probes: Vec<u64> = Vec::new();
        let mut next_owner_probe = start;
        loop {
            let now = Instant::now();
            if !measuring && now >= warm_end {
                rec.restart(now);
                measuring = true;
            }
            let closing = measuring && rec.done(now);
            if closing
                && self.reads.values().all(|r| !r.counted)
                && self.joins.iter().all(|j| !j.counted)
            {
                break;
            }
            rec.tick(now);
            let counting = measuring && !closing;

            // GRRP: refreshes, departures, joins.
            late.clear();
            topo.refresh_due(sites, now, &mut late);
            for l in &late {
                ops += 1;
                if counting {
                    rec.grrp(now);
                    rec.late(*l);
                }
            }
            if !closing {
                while next_depart <= now {
                    if let Some(k) = self.leaving.pop_front() {
                        // The last registration: the site expires one
                        // TTL from now, half a period from any join.
                        topo.register(k, sites, now);
                        topo.reg.sites[k].stopped_at = Some(now);
                        ops += 1;
                        if counting {
                            rec.grrp(now);
                            rec.late(now - next_depart);
                            self.departures_in_window += 1;
                        }
                    }
                    next_depart += join_every;
                }
                while next_join <= now {
                    let k = self.next_site;
                    assert!(k < sites.len(), "the site plan covers the run");
                    self.next_site += 1;
                    let (url, l) = spawn_site(&mut topo.rt, &sites[k])?;
                    topo.reg.sites[k].url = Some(url);
                    topo.live.insert(k, l);
                    let sent = Instant::now();
                    topo.register(k, sites, sent);
                    topo.refresh.push(Reverse((sent + REFRESH, k)));
                    self.leaving.push_back(k);
                    self.joins.push(PendingJoin {
                        site: k,
                        counted: counting,
                        probe: None,
                        next_probe: sent + PROBE_EVERY,
                    });
                    ops += 1;
                    if counting {
                        rec.op(sent);
                        rec.late(sent - next_join);
                        self.joins_in_window += 1;
                    }
                    next_join += join_every;
                }
                // Sites gone for good (swept at the root) stop serving.
                let gone: Vec<usize> = topo
                    .live
                    .keys()
                    .copied()
                    .filter(|&k| {
                        let s = &topo.reg.sites[k];
                        s.stopped_at.is_some()
                            && s.valid_until.is_some_and(|u| u + EXPIRY_SLACK < now)
                    })
                    .collect();
                for k in gone {
                    topo.live.remove(&k);
                    let s = &mut topo.reg.sites[k];
                    if let Some(url) = &s.url {
                        if !s.killed {
                            topo.rt.kill_service(url);
                            s.killed = true;
                        }
                    }
                }
                // Reads, open loop, alternating connections.
                while next_read <= now {
                    let query = self.rng.range_u64(0, pool.len() as u64) as usize;
                    let ctx = tracer.as_mut().and_then(|t| t.next_ctx());
                    let conn = self.read_conn;
                    self.read_conn = (self.read_conn + 1) % CONNS;
                    let id = topo.driver.search(conn, pool[query].spec.clone(), ctx);
                    let sent = Instant::now();
                    self.reads.insert(
                        (conn, id),
                        PendingRead {
                            query,
                            due: next_read,
                            sent,
                            counted: counting,
                            traced: ctx.map(|c| c.trace.0),
                        },
                    );
                    ops += 1;
                    if counting {
                        rec.op(sent);
                        rec.late(sent - next_read);
                    }
                    next_read += read_every;
                }
                if let Some(every) = self.owner_probe {
                    if now >= next_owner_probe {
                        next_owner_probe = now + every;
                        probes.push(topo.driver.bind(0));
                    }
                }
            }
            // Probe pending joins: the two oldest often (harvests mostly
            // land in join order), the rest less often, so a backlog does
            // not multiply the probe load.
            for (pos, j) in self.joins.iter_mut().enumerate() {
                let backoff = if pos < 2 {
                    Duration::ZERO
                } else {
                    PROBE_EVERY * 4
                };
                if j.probe.is_none() && j.next_probe + backoff <= now {
                    let spec = SearchSpec::lookup(sites[j.site].last_dn());
                    j.probe = Some(topo.driver.search(1, spec, None));
                }
            }

            let next_due = [next_read, next_join, next_depart]
                .into_iter()
                .chain(topo.refresh.peek().map(|r| r.0 .0))
                .min()
                .expect("non-empty");
            let wait = next_due
                .saturating_duration_since(Instant::now())
                .min(PROBE_EVERY);
            got.clear();
            topo.driver.poll(wait, &mut got)?;
            let woke = Instant::now();
            for Inbound { conn, reply, .. } in got.drain(..) {
                let id = reply.id();
                if conn == 0 && probes.contains(&id) {
                    probes.retain(|&p| p != id);
                    continue;
                }
                if conn == 1 {
                    if let Some(pos) = self.joins.iter().position(|j| j.probe == Some(id)) {
                        let j = &mut self.joins[pos];
                        j.probe = None;
                        j.next_probe = woke + PROBE_EVERY;
                        if answers_one(&reply) {
                            let j = self.joins.remove(pos);
                            let s = &mut topo.reg.sites[j.site];
                            s.visible_at = Some(woke);
                            if j.counted {
                                let sent = s.join_sent.expect("joined");
                                self.joins_ms.push((woke - sent).as_secs_f64() * 1e3);
                            }
                        }
                        continue;
                    }
                }
                let Some(r) = self.reads.remove(&(conn, id)) else {
                    continue;
                };
                let ok = match &reply {
                    GripReply::SearchResult { code, entries, .. } => {
                        *code == ResultCode::Success
                            && pool[r.query].check(entries, &topo.reg, r.sent, woke)
                    }
                    _ => false,
                };
                if let (Some(t), Some(tid)) = (tracer.as_mut(), r.traced) {
                    t.client_span(tid, woke - r.sent);
                }
                if r.counted {
                    if ok {
                        rec.answered(woke, woke - r.due);
                    } else {
                        rec.fail();
                    }
                }
            }
            // Deadlines.
            let expired: Vec<(usize, u64)> = self
                .reads
                .iter()
                .filter(|(_, r)| woke - r.sent > DEADLINE)
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                if self.reads.remove(&key).is_some_and(|r| r.counted) {
                    rec.fail();
                }
            }
            let mut i = 0;
            while i < self.joins.len() {
                let j = &self.joins[i];
                let sent = topo.reg.sites[j.site].join_sent.expect("joined");
                if woke - sent > JOIN_DEADLINE {
                    if self.joins.remove(i).counted {
                        rec.fail();
                    }
                } else {
                    i += 1;
                }
            }
        }
        self.next_read = Some(next_read);
        self.next_join = Some(next_join);
        self.next_depart = Some(next_depart);
        // Window's work is done; anything still pending belongs to no
        // window.
        for r in self.reads.values_mut() {
            r.counted = false;
        }
        Ok(ops)
    }
}

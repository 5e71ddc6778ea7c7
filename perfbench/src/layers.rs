//! The traced run: spans around calls into each layer's public
//! functions, fed with the workload's own inputs, plus the server-side
//! spans of `.traced()` queries reduced to self time.

use crate::stats::{mean, median, percentile};
use bytes::BytesMut;
use gis_giis::{Giis, GiisAction, GiisConfig, GiisMode, GiisQueryPath};
use gis_gris::GrisQueryPath;
use gis_ldap::{Dit, Dn, Entry, LdapUrl, SharedDit};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::frame::{encode_frame, FrameDecoder};
use gis_proto::metrics::HistogramSnapshot;
use gis_proto::{
    GripReply, GripRequest, GrrpMessage, Histogram, MetricsRegistry, ProtocolMessage, ResultCode,
    SearchSpec, TraceContext, TraceId, TraceSink,
};
use gis_store::{
    FileStorage, FsyncPolicy, GroupSnap, Journal, JournalOptions, RegSnap, SnapshotContent,
    TimeBase, WalOp, WalRecord,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit, the end-to-end metric it should
/// move, and on which workload. Names and units match `per_layer` in
/// BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("transport.wire_us", "us", "p50_us, qps", "vo_discovery"),
    (
        "proto.encode_us",
        "us",
        "cpu_us_per_op",
        "vo_discovery; vo_churn (1k-entry harvest reply)",
    ),
    (
        "proto.decode_us",
        "us",
        "cpu_us_per_op",
        "vo_discovery; vo_churn (1k-entry harvest reply)",
    ),
    (
        "proto.reply_bytes",
        "bytes",
        "cpu_us_per_op, join_visible_p50_ms",
        "vo_discovery; vo_churn",
    ),
    (
        "reactor.ready_per_wake",
        "count",
        "qps, p50_us",
        "vo_discovery",
    ),
    ("reactor.dispatch_us", "us", "qps, p50_us", "vo_discovery"),
    (
        "process.ctx_switches_per_op",
        "count",
        "qps, cpu_us_per_op",
        "all",
    ),
    ("process.threads", "count", "rss_peak_mb", "all"),
    ("gris.query_us", "us", "join_visible_p50_ms", "vo_churn"),
    (
        "gris.cache_hit_ratio",
        "ratio",
        "join_visible_p50_ms",
        "vo_churn",
    ),
    ("gris.fetch_us", "us", "join_visible_p50_ms", "vo_churn"),
    (
        "giis.query_us",
        "us",
        "qps, p50_us, cpu_us_per_op",
        "vo_discovery",
    ),
    ("ldap.search_p50_us", "us", "qps, p50_us", "vo_discovery"),
    (
        "ldap.search_p99_us",
        "us",
        "qps, cpu_us_per_op",
        "vo_discovery",
    ),
    (
        "ldap.entries_per_query",
        "count",
        "qps, cpu_us_per_op",
        "vo_discovery",
    ),
    (
        "ldap.publish_us",
        "us",
        "join_visible_p50_ms, setup_s",
        "vo_churn; vo_discovery set-up",
    ),
    (
        "giis.integrate_us",
        "us",
        "join_visible_p50_ms, cpu_us_per_op",
        "vo_churn",
    ),
    ("giis.grrp_us", "us", "cpu_us_per_op", "vo_churn"),
    (
        "giis.harvest_ok_ratio",
        "ratio",
        "failed share (failed/attempted)",
        "vo_churn, set-up",
    ),
    (
        "live.inbox_wait_p50_us",
        "us",
        "join_visible_p50_ms",
        "vo_churn",
    ),
    (
        "live.inbox_wait_p99_us",
        "us",
        "join_visible_p75_ms",
        "vo_churn",
    ),
    (
        "store.wal_append_us",
        "us",
        "join_visible_p50_ms",
        "vo_churn",
    ),
    (
        "store.wal_bytes_per_join",
        "bytes",
        "join_visible_p50_ms",
        "vo_churn",
    ),
    ("store.snapshot_ms", "ms", "join_visible_p75_ms", "vo_churn"),
    (
        "bench.gen_late_p99_ms",
        "ms",
        "validity of p50_us and join_visible_p50_ms",
        "vo_churn",
    ),
    ("trace.server_self_us", "us", "p50_us", "vo_discovery"),
    (
        "trace.overhead_pct",
        "%",
        "tracing cost on cpu_us_per_op",
        "all",
    ),
];

/// Collected per-layer values, by name.
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f` once.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, us(t.elapsed()))
}

/// Traces one query in `every`, keeping the client's send→reply time
/// so the server's spans can be subtracted from it.
pub struct Tracer {
    sink: Arc<TraceSink>,
    every: u64,
    n: u64,
    client: Vec<(u64, Duration)>,
}

/// Traced queries analysed (span lookup is linear in the sink).
const ANALYSED: usize = 1000;

impl Tracer {
    pub fn new(sink: Arc<TraceSink>, every: u64) -> Tracer {
        Tracer {
            sink,
            every: every.max(1),
            n: 0,
            client: Vec::new(),
        }
    }

    pub fn next_ctx(&mut self) -> Option<TraceContext> {
        self.n += 1;
        if !self.n.is_multiple_of(self.every) {
            return None;
        }
        let id = self.sink.next_span();
        Some(TraceContext {
            trace: TraceId(id),
            parent: id,
        })
    }

    pub fn client_span(&mut self, id: u64, took: Duration) {
        if self.client.len() < ANALYSED {
            self.client.push((id, took));
        }
    }

    /// Median wire time (client span minus the server's span for the
    /// same request) and median server self time (server span minus its
    /// child spans).
    pub fn analyse(&self, layers: &mut Layers) {
        let mut wire = Vec::new();
        let mut server_self = Vec::new();
        for &(id, took) in &self.client {
            let spans = self.sink.spans(TraceId(id));
            let Some(server) = spans.iter().find(|s| s.parent == Some(id)) else {
                continue;
            };
            let span_us = server.end.micros().saturating_sub(server.start.micros()) as f64;
            let children: f64 = spans
                .iter()
                .filter(|s| s.parent == Some(server.span))
                .map(|s| s.end.micros().saturating_sub(s.start.micros()) as f64)
                .sum();
            wire.push(us(took) - span_us);
            server_self.push((span_us - children).max(0.0));
        }
        layers.set("transport.wire_us", median(&wire));
        layers.set("trace.server_self_us", median(&server_self));
    }
}

/// Window difference of a histogram: mean and a quantile of what was
/// recorded between the two snapshots.
pub fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot, q: f64) -> (f64, f64) {
    let mut d = after.clone();
    for (b, a) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *b -= a;
    }
    d.count -= before.count;
    d.sum -= before.sum;
    (d.mean(), d.quantile(q) as f64)
}

/// The reactor's per-shard histograms as adopted into a service's
/// registry, summed over shards.
pub fn reactor_hists(registry: &MetricsRegistry) -> (Vec<Arc<Histogram>>, Vec<Arc<Histogram>>) {
    let shards = gis_core::reactor::reactor_shards();
    let get = |name: &str| {
        (0..shards)
            .map(|i| registry.labeled_histogram(name, Some(&format!("shard{i}"))))
            .collect::<Vec<_>>()
    };
    (get("reactor-ready-per-wake"), get("reactor-dispatch-us"))
}

/// Mean over the window of a set of histograms (count-weighted).
pub fn hists_mean(before: &[HistogramSnapshot], hists: &[Arc<Histogram>]) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for (b, h) in before.iter().zip(hists) {
        let a = h.snapshot();
        sum += a.sum - b.sum;
        count += a.count - b.count;
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// One source of entries (a site GRIS) as a directory sees it.
pub struct Source {
    pub url: LdapUrl,
    pub namespace: Dn,
    pub entries: Arc<Vec<Entry>>,
}

/// What the direct layer calls are fed with.
pub struct Input<'a> {
    /// The directory's initial sources.
    pub sources: &'a [Source],
    /// Sources that join (not in the directory yet).
    pub joins: &'a [Source],
    /// The workload's query specs.
    pub specs: &'a [SearchSpec],
    /// Replies whose encoding and decoding is timed.
    pub replies: &'a [GripReply],
    /// Live GIIS query path to time with `specs` (else a private
    /// engine's).
    pub giis: Option<&'a GiisQueryPath>,
    /// Live GRIS query path and the specs to time on it.
    pub gris: (&'a GrisQueryPath, &'a [SearchSpec]),
    /// The live runtime's clock (GRIS caches are stamped with it).
    pub now: SimTime,
    /// Scratch directory for the store layer.
    pub workdir: &'a Path,
}

/// Time spent per layer is bounded so a traced run stays short.
const LAYER_BUDGET: Duration = Duration::from_millis(1500);

fn search_specs(specs: &[SearchSpec], mut f: impl FnMut(&SearchSpec)) {
    let start = Instant::now();
    for (i, spec) in specs.iter().cycle().enumerate() {
        f(spec);
        if i + 1 >= specs.len() && start.elapsed() >= LAYER_BUDGET || i >= 20_000 {
            break;
        }
    }
}

fn now() -> SimTime {
    SimTime(1_000_000)
}

fn register(source: &Source, at: SimTime) -> GrrpMessage {
    GrrpMessage::register(
        source.url.clone(),
        source.namespace.clone(),
        at,
        SimDuration::from_secs(3600),
    )
}

/// A private harvest engine holding `sources`; returns it with the
/// time of each join's registration and harvest integration.
fn join_all(giis: &mut Giis, sources: &[Source], at: SimTime) -> (Vec<f64>, Vec<f64>) {
    let mut grrp = Vec::new();
    let mut integrate = Vec::new();
    for s in sources {
        let (actions, t) = timed(|| giis.handle_grrp(register(s, at), at));
        grrp.push(t);
        let id = actions
            .iter()
            .find_map(|a| match a {
                GiisAction::SendRequest {
                    request: GripRequest::Search { id, .. },
                    ..
                } => Some(*id),
                _ => None,
            })
            .expect("a harvest directory harvests each new child");
        let reply = GripReply::SearchResult {
            id,
            code: ResultCode::Success,
            entries: s.entries.as_ref().clone(),
            referrals: Vec::new(),
        };
        let (_, t) = timed(|| giis.handle_reply(&s.url, reply, at));
        integrate.push(t);
    }
    (grrp, integrate)
}

pub fn direct(input: &Input<'_>, layers: &mut Layers) {
    let all: Vec<Entry> = input
        .sources
        .iter()
        .flat_map(|s| s.entries.iter().cloned())
        .collect();

    // ldap: search on a Dit of the same entries, same specs.
    let dit = Dit::bulk_load(all.clone());
    let mut search = Vec::new();
    let mut returned = Vec::new();
    search_specs(input.specs, |spec| {
        let (found, t) = timed(|| {
            dit.search(
                &spec.base,
                spec.scope,
                &spec.filter,
                &spec.attrs,
                spec.size_limit as usize,
            )
        });
        search.push(t);
        returned.push(found.len() as f64);
    });
    layers.set("ldap.search_p50_us", percentile(&search, 0.5));
    layers.set("ldap.search_p99_us", percentile(&search, 0.99));
    layers.set("ldap.entries_per_query", mean(&returned));

    // ldap: publishing one join's batch into a shared tree of this size.
    let shared = SharedDit::from_dit(dit);
    let publish: Vec<f64> = input
        .joins
        .iter()
        .map(|j| {
            let batch = j.entries.as_ref().clone();
            timed(|| {
                shared.mutate(|d| {
                    for e in batch {
                        d.upsert(e);
                    }
                })
            })
            .1
        })
        .collect();
    layers.set("ldap.publish_us", median(&publish));

    // giis: a private harvest engine replaying the initial joins, then
    // the workload's joins and refreshes.
    let mut config = GiisConfig::chaining(LdapUrl::tcp("127.0.0.1", 1), crate::grid::vo_dn());
    config.mode = GiisMode::Harvest {
        refresh: SimDuration::from_secs(3600),
    };
    let mut giis = Giis::new(
        config,
        SimDuration::from_secs(60),
        SimDuration::from_secs(180),
    );
    join_all(&mut giis, input.sources, now());
    let (_, integrate) = join_all(&mut giis, input.joins, now());
    layers.set("giis.integrate_us", median(&integrate));
    let cached = giis.cache_snapshot();
    let holding = input
        .sources
        .iter()
        .chain(input.joins)
        .filter(|s| {
            s.entries
                .last()
                .is_some_and(|e| cached.get(e.dn()).is_some())
        })
        .count();
    layers.set(
        "giis.harvest_ok_ratio",
        holding as f64 / giis.stats().harvests.max(1) as f64,
    );
    let later = SimTime(now().micros() + 1_000_000);
    let mut refresh = Vec::new();
    for (i, s) in input.sources.iter().cycle().enumerate() {
        let msg = register(s, SimTime(later.micros() + i as u64));
        refresh.push(timed(|| giis.handle_grrp(msg, later)).1);
        if i >= 200 {
            break;
        }
    }
    layers.set("giis.grrp_us", median(&refresh));
    let private_path = giis.query_path();
    let query_path = input.giis.unwrap_or(&private_path);
    let mut giis_query = Vec::new();
    search_specs(input.specs, |spec| {
        let req = GripRequest::Search {
            id: 1,
            spec: spec.clone(),
        };
        let (answer, t) = timed(|| query_path.handle_query(0, req, later).map_err(drop));
        assert!(answer.is_ok(), "the harvest query path answers searches");
        giis_query.push(t);
    });
    layers.set("giis.query_us", median(&giis_query));

    // gris: the live query path with the workload's specs.
    let (gris, gris_specs) = input.gris;
    let mut gris_query = Vec::new();
    search_specs(gris_specs, |spec| {
        let req = GripRequest::Search {
            id: 1,
            spec: spec.clone(),
        };
        let (answer, t) = timed(|| gris.handle_query(0, req, input.now).map_err(drop));
        assert!(answer.is_ok(), "the GRIS query path answers searches");
        gris_query.push(t);
    });
    layers.set("gris.query_us", median(&gris_query));

    // store: one join's WAL records and a snapshot of this directory,
    // fsync on every record as the live journal does.
    store(input, &all, layers);

    // proto: the frame codec on the workload's replies.
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = Vec::new();
    let mut buf = BytesMut::new();
    for reply in input.replies {
        let msg = ProtocolMessage::Reply(reply.clone());
        buf.clear();
        enc.push(timed(|| encode_frame(&msg, &mut buf).expect("reply fits a frame")).1);
        bytes.push(buf.len() as f64);
        let mut decoder = FrameDecoder::new();
        let (frame, t) = timed(|| {
            decoder.feed(&buf);
            decoder.next_frame()
        });
        assert!(
            matches!(frame, Ok(Some(_))),
            "a frame the codec encoded must decode"
        );
        dec.push(t);
    }
    layers.set("proto.encode_us", median(&enc));
    layers.set("proto.decode_us", median(&dec));
    layers.set("proto.reply_bytes", mean(&bytes));
}

fn store(input: &Input<'_>, all: &[Entry], layers: &mut Layers) {
    let dir = input.workdir.join("store-layer");
    let _ = std::fs::remove_dir_all(&dir);
    let storage: Arc<dyn gis_store::Storage> =
        Arc::new(FileStorage::open(&dir).expect("scratch store directory"));
    let opts = JournalOptions {
        fsync: FsyncPolicy::Always,
        snapshot_every: 0,
        base: TimeBase::Continue,
        crash: None,
    };
    let (mut journal, _, _) = Journal::open(storage, opts, now());
    let mut append = Vec::new();
    let mut bytes = Vec::new();
    for j in input.joins {
        let ops = [
            WalOp::Observe {
                msg: register(j, now()),
                now: now(),
            },
            WalOp::Harvest {
                child: j.url.clone(),
                entries: j.entries.as_ref().clone(),
                now: now(),
            },
        ];
        bytes.push(
            ops.iter()
                .map(|op| {
                    gis_store::wal::frame_record(&WalRecord {
                        seq: 1,
                        op: op.clone(),
                    })
                    .len() as f64
                })
                .sum::<f64>(),
        );
        let (r, t) = timed(|| ops.iter().try_for_each(|op| journal.log(op).map(|_| ())));
        r.expect("WAL append in the scratch directory");
        append.push(t);
    }
    layers.set("store.wal_append_us", median(&append));
    layers.set("store.wal_bytes_per_join", mean(&bytes));
    let mut snap = Vec::new();
    for _ in 0..3 {
        let regs: Vec<RegSnap> = input
            .sources
            .iter()
            .map(|s| RegSnap {
                message: register(s, now()),
                first_seen: now(),
                last_seen: now(),
                refresh_count: 1,
            })
            .collect();
        let groups: Vec<GroupSnap> = input
            .sources
            .iter()
            .map(|s| GroupSnap {
                name: s.url.to_string(),
                at: Some(now()),
                dns: s.entries.iter().map(|e| e.dn().clone()).collect(),
                entries: Vec::new(),
            })
            .collect();
        let mut entries = all.iter();
        let content = SnapshotContent {
            regs,
            groups,
            targets: Vec::new(),
            entries: &mut entries,
        };
        let (r, t) = timed(|| journal.snapshot(content));
        r.expect("snapshot in the scratch directory");
        snap.push(t / 1e3);
    }
    layers.set("store.snapshot_ms", median(&snap));
    let _ = std::fs::remove_dir_all(&dir);
}

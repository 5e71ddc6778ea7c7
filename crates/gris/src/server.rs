//! The GRIS server engine (§10.3).
//!
//! "GRIS authenticates and parses each incoming GRIP request and then
//! dispatches those requests to one or more 'local' information
//! providers, depending on the type of information named in the request.
//! Results are then merged back to the client. To efficiently prune
//! search processing, a specific provider's results are only considered
//! if the provider's namespace intersects the query scope."
//!
//! The engine is sans-IO: `handle_request` consumes a request and `tick`
//! advances timers (registration refreshes, subscription deliveries);
//! both yield the effect list ([`Action`]) runtimes in `gis-core`
//! carry out. Bind, sessions, subscriptions, self-description and GRRP
//! emission are the shared [`Front`]'s; this engine answers searches.
//!
//! # Concurrent read path
//!
//! Queries are the hot path ("numerous concurrent enquiries", §5), so
//! [`Gris::search`] takes `&self` and every piece of state it touches is
//! safe to share across threads:
//!
//! * hot counters are atomics ([`gis_proto::Counter`], `Relaxed` — they
//!   carry no synchronization);
//! * each provider slot guards its provider behind its own mutex and its
//!   result cache behind its own reader-writer lock (striped by
//!   provider), so cache hits on different providers never contend and a
//!   hit never waits on a fetch in flight;
//! * bind sessions live in the front, behind a reader-writer lock.
//!
//! [`Gris::query_path`] packages this shared state into a cloneable
//! [`GrisQueryPath`] handle the live runtime hands to its query worker
//! threads, while mutation (registration refresh, subscriptions, GRRP)
//! stays with the engine's owner.

pub use crate::front::ClientId;
use crate::front::{self, Backend, Front, FrontStats};
use crate::provider::{namespace_intersects, InfoProvider, ProviderError};
use gis_gsi::{Requester, ServiceConfig};
use gis_ldap::{Dn, Entry, LdapUrl, Rdn, Schema, Scope, Strictness};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::metrics::{self, Gauge, Histogram, MetricsRegistry, PackedPair};
use gis_proto::trace::{SpanRecord, TraceContext};
use gis_proto::{
    Action, Counter, GripReply, GripRequest, GrrpMessage, RegistrationAgent, RequestId, ResultCode,
    SearchSpec,
};
use gis_store::{
    GroupSnap, Journal, JournalOptions, RecoveryReport, SnapshotContent, Storage, WalOp,
};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Operational counters (experiments report these). This is the plain
/// snapshot type returned by [`Gris::stats`]; the live counters are
/// atomics updated through shared references.
///
/// Snapshot semantics (see `gis_proto::stats`): each field is loaded
/// atomically, but the snapshot as a whole is not one consistent cut —
/// except `cache_hits`/`cache_misses`, which live in a single packed
/// word so their sum (total slot resolutions) never tears, even under
/// live concurrent load. Full cross-field identities (e.g.
/// `provider_invocations + stale_served + provider_failures ==
/// cache_misses`) hold after the workload quiesces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrisStats {
    /// Search/lookup requests served.
    pub queries: u64,
    /// Searches answered out of the `Mds-Vo-name=monitoring` namespace
    /// (self-description; also counted in `queries`).
    pub monitoring_queries: u64,
    /// Provider `fetch` calls actually made.
    pub provider_invocations: u64,
    /// Queries (per provider touched) answered from the result cache.
    /// Read coherently with `cache_misses` (one packed word).
    pub cache_hits: u64,
    /// Cache misses (fetch required). Read coherently with `cache_hits`.
    pub cache_misses: u64,
    /// Entries returned to clients.
    pub entries_returned: u64,
    /// Successful binds.
    pub binds_ok: u64,
    /// Failed binds.
    pub binds_failed: u64,
    /// Subscription updates pushed.
    pub updates_sent: u64,
    /// Provider entries dropped for violating the configured schema.
    pub schema_violations: u64,
    /// Provider failures answered from the last-known-good cache
    /// (serve-stale degraded mode).
    pub stale_served: u64,
    /// Provider failures with no cache to fall back on (entries omitted,
    /// answer partial).
    pub provider_failures: u64,
}

/// The atomic counterpart of [`GrisStats`], shared between the owner and
/// query workers (binds, updates and monitoring queries are the
/// front's).
#[derive(Debug, Default)]
struct GrisStatsAtomic {
    queries: Counter,
    provider_invocations: Counter,
    /// Cache hits (first) and misses (second) in one word: their sum is
    /// the slot-resolution total, an invariant readers check live.
    cache: PackedPair,
    entries_returned: Counter,
    schema_violations: Counter,
    stale_served: Counter,
    provider_failures: Counter,
}

impl GrisStatsAtomic {
    fn snapshot(&self, front: FrontStats) -> GrisStats {
        // Read the per-miss *outcome* counters before the packed cache
        // word: every miss is counted in the packed word before its
        // outcome is recorded, so this order keeps
        // `provider_invocations + stale_served + provider_failures <=
        // cache_misses` true on every live read (exact equality after
        // quiescing).
        let provider_invocations = self.provider_invocations.get();
        let stale_served = self.stale_served.get();
        let provider_failures = self.provider_failures.get();
        let (cache_hits, cache_misses) = self.cache.get();
        GrisStats {
            queries: self.queries.get(),
            monitoring_queries: front.monitoring_queries,
            provider_invocations,
            cache_hits,
            cache_misses,
            entries_returned: self.entries_returned.get(),
            binds_ok: front.binds_ok,
            binds_failed: front.binds_failed,
            updates_sent: front.updates_sent,
            schema_violations: self.schema_violations.get(),
            stale_served,
            provider_failures,
        }
    }
}

/// One configured provider and its private cache. The provider sits
/// behind its own mutex (taken only to fetch) and the cache behind its
/// own reader-writer lock, so the locking is striped per provider:
/// concurrent cache hits share read locks, and a fetch for one provider
/// never blocks hits on another.
struct Slot {
    /// Copied from the provider at registration so the read path can
    /// prune and probe caches without locking the provider.
    name: String,
    namespace: Dn,
    cacheable: bool,
    cache_ttl: SimDuration,
    provider: Mutex<Box<dyn InfoProvider>>,
    /// Last successful fetch. Kept past its TTL to back the serve-stale
    /// degraded mode.
    cached: RwLock<Option<(SimTime, Arc<Vec<Entry>>)>>,
    /// Wall-clock latency of this provider's `fetch` calls (registry
    /// handle, resolved once at registration).
    fetch_us: Arc<Histogram>,
}

/// GRIS configuration.
///
/// The shared service knobs (endpoint URL, [`gis_gsi::SecurityPolicy`],
/// observability) live in the embedded [`ServiceConfig`]; `GrisConfig`
/// derefs to it, so `config.url` / `config.security` /
/// `config.observability` read and write naturally.
#[derive(Clone)]
pub struct GrisConfig {
    /// The knobs every GIS service shares, including where security
    /// lives: the policy map, bind-token trust, and signing credential
    /// are all in `service.security`.
    pub service: ServiceConfig,
    /// The DN suffix this server serves (e.g. `hn=hostX`).
    pub suffix: Dn,
    /// When present, provider output is validated against this schema
    /// (§8's type authorities: "it can be desirable to be able to enforce
    /// standard formats for entity descriptions"). Invalid entries are
    /// dropped and counted, never served. `None` skips validation — the
    /// paper's "support but not force" stance.
    pub schema: Option<(Schema, Strictness)>,
    /// Serve-stale window: when a provider reports `Unavailable` and its
    /// last successful fetch is at most this old, the cached entries are
    /// served anyway — stamped `stale: TRUE` with their age — instead of
    /// silently vanishing from the answer (the fault-tolerant-BDII
    /// last-known-good idiom; the paper's "as much partial or even
    /// inconsistent information as is available", §2.2). `None` disables
    /// the degraded mode: failures omit the provider's entries.
    pub stale_ttl: Option<SimDuration>,
}

impl std::ops::Deref for GrisConfig {
    type Target = ServiceConfig;
    fn deref(&self) -> &ServiceConfig {
        &self.service
    }
}

impl std::ops::DerefMut for GrisConfig {
    fn deref_mut(&mut self) -> &mut ServiceConfig {
        &mut self.service
    }
}

impl GrisConfig {
    /// An open (no-security) GRIS at `url` serving `suffix`.
    pub fn open(url: LdapUrl, suffix: Dn) -> GrisConfig {
        GrisConfig {
            service: ServiceConfig::open(url),
            suffix,
            schema: None,
            stale_ttl: None,
        }
    }
}

/// The query state the owner and every [`GrisQueryPath`] share: the
/// provider slots, the counters and the front.
#[derive(Clone)]
struct Shared {
    slots: Arc<Vec<Slot>>,
    stats: Arc<GrisStatsAtomic>,
    front: Front,
}

impl Shared {
    /// The read path over this state under `config`.
    fn read<'a>(&'a self, config: &'a GrisConfig) -> ReadPathRef<'a> {
        ReadPathRef {
            config,
            shared: self,
        }
    }

    fn stats(&self) -> GrisStats {
        self.stats.snapshot(self.front.stats())
    }
}

/// A Grid Resource Information Service instance.
pub struct Gris {
    /// Configuration (public for inspection). Frozen once a
    /// [`GrisQueryPath`] has been created: the handle captures a copy.
    pub config: GrisConfig,
    /// The GRRP refresh agent; add directory targets to join VOs.
    pub agent: RegistrationAgent,
    shared: Shared,
    /// Active subscriptions, as of the last tick.
    subscriptions: Arc<Gauge>,
    /// Write-ahead journal: present once [`Gris::set_persistence`] ran.
    persist: Option<Journal>,
    /// Fingerprint (per-slot fetch stamps + target count) of the last
    /// snapshot written, to skip no-change snapshots on tick.
    persist_mark: Option<(Vec<Option<SimTime>>, usize)>,
}

/// What one provider slot contributed to a search.
enum SlotData {
    /// Fresh entries, shared with the slot cache (no copy).
    Fresh(Arc<Vec<Entry>>),
    /// Last-known-good entries stamped `stale`/`staleage` (degraded).
    Stale(Vec<Entry>),
    /// Provider unavailable with nothing to fall back on (partial).
    Failed,
    /// Provider refused the scope.
    TooWide,
}

/// What the query path reads: the configuration and the shared query
/// state. The owner and [`GrisQueryPath`] both answer through it.
struct ReadPathRef<'a> {
    config: &'a GrisConfig,
    shared: &'a Shared,
}

impl Backend for ReadPathRef<'_> {
    fn subscribes(&self) -> bool {
        true
    }

    fn evaluate(&self, spec: &SearchSpec, requester: &Requester, now: SimTime) -> Vec<Entry> {
        self.search(spec, requester, now, None).1
    }
}

impl ReadPathRef<'_> {
    /// The answer to `client`'s search, redacted for its session.
    fn answer(
        &self,
        client: ClientId,
        id: RequestId,
        spec: &SearchSpec,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> GripReply {
        let requester = self.shared.front.requester_of(client);
        let (code, entries) = self.search(spec, &requester, now, trace);
        self.shared.stats.entries_returned.add(entries.len() as u64);
        GripReply::SearchResult {
            id,
            code,
            entries,
            referrals: Vec::new(),
        }
    }

    /// Probe a slot's cache without touching the provider. `Some` is a
    /// countable cache hit.
    fn probe_cache(&self, slot: &Slot, now: SimTime) -> Option<Arc<Vec<Entry>>> {
        if !slot.cacheable {
            return None;
        }
        let guard = slot.cached.read();
        let (at, entries) = guard.as_ref()?;
        (now.since(*at) < slot.cache_ttl).then(|| Arc::clone(entries))
    }

    /// Record a provider-level span on the shared trace sink, if this
    /// search is traced.
    fn note_provider_span(
        &self,
        slot: &Slot,
        trace: Option<TraceContext>,
        now: SimTime,
        started: Instant,
        outcome: &str,
    ) {
        let (Some(sink), Some(ctx)) = (self.shared.front.sink(), trace) else {
            return;
        };
        let elapsed = SimDuration::from_micros(started.elapsed().as_micros() as u64);
        sink.record(SpanRecord {
            trace: ctx.trace,
            span: sink.next_span(),
            parent: Some(ctx.parent),
            service: self.config.url.to_string(),
            name: format!("provider:{}", slot.name),
            start: now,
            end: now + elapsed,
            outcome: outcome.to_string(),
        });
    }

    /// Produce a slot's contribution, consulting cache, provider, and the
    /// serve-stale fallback. `trace`, when present, is the context of the
    /// enclosing `gris.search` span: each provider resolution records a
    /// child span with its outcome.
    fn resolve_slot(
        &self,
        slot: &Slot,
        spec: &SearchSpec,
        now: SimTime,
        trace: Option<TraceContext>,
    ) -> SlotData {
        let stats = &self.shared.stats;
        let started = Instant::now();
        if let Some(entries) = self.probe_cache(slot, now) {
            stats.cache.bump_first();
            self.note_provider_span(slot, trace, now, started, "cache-hit");
            return SlotData::Fresh(entries);
        }
        let mut provider = slot.provider.lock();
        // Double-check under the provider lock: a concurrent worker may
        // have completed the same fetch while we waited. (Single-threaded
        // callers never hit this branch, keeping their counters exactly
        // as before.)
        if let Some(entries) = self.probe_cache(slot, now) {
            stats.cache.bump_first();
            self.note_provider_span(slot, trace, now, started, "cache-hit");
            return SlotData::Fresh(entries);
        }
        stats.cache.bump_second();
        let fetch_started = Instant::now();
        let fetched = provider.fetch(spec, now);
        if self.shared.front.enabled() {
            slot.fetch_us
                .record(fetch_started.elapsed().as_micros() as u64);
        }
        match fetched {
            Ok(entries) => {
                stats.provider_invocations.bump();
                self.note_provider_span(slot, trace, now, started, "fresh");
                let entries = Arc::new(entries);
                if slot.cacheable {
                    *slot.cached.write() = Some((now, Arc::clone(&entries)));
                }
                SlotData::Fresh(entries)
            }
            Err(ProviderError::Unavailable(_)) => {
                // Degraded serve-stale mode: fall back to the
                // last-known-good fetch when it is still inside the stale
                // window, stamping each entry so consumers can see (and
                // filter on) its age.
                let stale = self.config.stale_ttl.and_then(|window| {
                    let guard = slot.cached.read();
                    guard
                        .as_ref()
                        .filter(|(at, _)| now.since(*at) <= window)
                        .map(|(at, entries)| (*at, Arc::clone(entries)))
                });
                match stale {
                    Some((at, entries)) => {
                        stats.stale_served.bump();
                        self.note_provider_span(slot, trace, now, started, "stale");
                        let age_secs = now.since(at).micros() / 1_000_000;
                        SlotData::Stale(
                            entries
                                .iter()
                                .map(|e| {
                                    let mut e = e.clone();
                                    e.add("stale", "TRUE");
                                    e.add("staleage", age_secs);
                                    e
                                })
                                .collect(),
                        )
                    }
                    None => {
                        stats.provider_failures.bump();
                        self.note_provider_span(slot, trace, now, started, "failed");
                        SlotData::Failed
                    }
                }
            }
            Err(ProviderError::TooWide(_)) => {
                self.note_provider_span(slot, trace, now, started, "too-wide");
                SlotData::TooWide
            }
        }
    }

    /// The core search path: prune providers by namespace, consult
    /// caches, merge, redact, filter, project. When `trace` is present
    /// (and a sink is installed) the search records a `gris.search` span
    /// with one child span per provider resolution.
    fn search(
        &self,
        spec: &SearchSpec,
        requester: &Requester,
        now: SimTime,
        trace: Option<TraceContext>,
    ) -> (ResultCode, Vec<Entry>) {
        let started = Instant::now();
        let front = &self.shared.front;
        // Open this hop's span up front so provider resolutions can
        // parent onto it.
        let span = front.open_span(trace);
        let child_ctx = span.map(|(ctx, parent)| TraceContext {
            trace: ctx.trace,
            parent,
        });
        let (code, results) = self.search_body(spec, requester, now, child_ctx);
        let end = now + SimDuration::from_micros(started.elapsed().as_micros() as u64);
        front.searched(
            "gris.search",
            &self.config.url,
            span,
            now,
            end,
            code.label(),
        );
        (code, results)
    }

    fn search_body(
        &self,
        spec: &SearchSpec,
        requester: &Requester,
        now: SimTime,
        trace: Option<TraceContext>,
    ) -> (ResultCode, Vec<Entry>) {
        let stats = &self.shared.stats;
        stats.queries.bump();

        // The monitoring namespace is served ahead of the suffix check:
        // self-description lives under `Mds-Vo-name=monitoring`
        // regardless of the suffix this server answers for.
        if metrics::is_monitoring_dn(&spec.base) {
            let refresh = self.config.monitoring_refresh;
            let own = self
                .shared
                .front
                .monitoring_search(now, refresh, || self.build_monitoring());
            let Some(own) = own else {
                return (ResultCode::NoSuchObject, Vec::new());
            };
            let merged: BTreeMap<String, Entry> = own
                .iter()
                .map(|e| (e.dn().to_string(), e.clone()))
                .collect();
            return self.finish(merged, spec, requester, false, false, false);
        }

        // A search rooted entirely outside this server's namespace names
        // nothing we serve.
        let suffix = &self.config.suffix;
        if !namespace_intersects(suffix, &spec.base) && !suffix.is_root() {
            return (ResultCode::NoSuchObject, Vec::new());
        }

        let eligible: Vec<&Slot> = self
            .shared
            .slots
            .iter()
            .filter(|s| namespace_intersects(&s.namespace, &spec.base))
            .collect();

        // Resolve every eligible slot: cache hits first, then the
        // misses' provider calls in slot order. Contributions are merged
        // in slot order.
        let mut data: Vec<Option<SlotData>> = Vec::with_capacity(eligible.len());
        let mut missing: Vec<usize> = Vec::new();
        for (i, slot) in eligible.iter().enumerate() {
            match self.probe_cache(slot, now) {
                Some(entries) => {
                    stats.cache.bump_first();
                    self.note_provider_span(slot, trace, now, Instant::now(), "cache-hit");
                    data.push(Some(SlotData::Fresh(entries)));
                }
                None => {
                    data.push(None);
                    missing.push(i);
                }
            }
        }
        for &i in &missing {
            data[i] = Some(self.resolve_slot(eligible[i], spec, now, trace));
        }

        let mut partial = false;
        let mut degraded = false;
        let mut too_wide = false;
        let mut merged: BTreeMap<String, Entry> = BTreeMap::new();
        let mut merge_entry = |e: &Entry| {
            if let Some((schema, strictness)) = &self.config.schema {
                if schema.validate(e, *strictness).is_err() {
                    stats.schema_violations.bump();
                    return;
                }
            }
            match merged.get_mut(&e.dn().to_string()) {
                Some(existing) => existing.merge_from(e),
                None => {
                    merged.insert(e.dn().to_string(), e.clone());
                }
            }
        };
        for d in data.into_iter().flatten() {
            match d {
                SlotData::Fresh(entries) => entries.iter().for_each(&mut merge_entry),
                SlotData::Stale(entries) => {
                    degraded = true;
                    entries.iter().for_each(&mut merge_entry);
                }
                SlotData::Failed => partial = true,
                SlotData::TooWide => too_wide = true,
            }
        }
        self.finish(merged, spec, requester, partial, degraded, too_wide)
    }

    /// Build this server's self-description: one `mds-service` entry,
    /// one `mds-provider` entry per slot, and one `mds-metric` entry per
    /// registry instrument, all under
    /// `service=<url>, Mds-Vo-name=monitoring`.
    fn build_monitoring(&self) -> Vec<Entry> {
        let base =
            metrics::monitoring_base().child(Rdn::new("service", self.config.url.to_string()));
        let s = self.shared.stats();
        let resolutions = s.cache_hits + s.cache_misses;
        let ratio = if resolutions == 0 {
            0.0
        } else {
            s.cache_hits as f64 / resolutions as f64
        };
        let slots = &self.shared.slots;
        let mut entries = vec![Entry::new(base.clone())
            .with_class("mds-service")
            .with("service-type", "gris")
            .with("suffix", self.config.suffix.to_string())
            .with("queries", s.queries)
            .with("monitoring-queries", s.monitoring_queries)
            .with("cache-hits", s.cache_hits)
            .with("cache-misses", s.cache_misses)
            .with("cache-hit-ratio", format!("{ratio:.3}"))
            .with("provider-invocations", s.provider_invocations)
            .with("stale-served", s.stale_served)
            .with("provider-failures", s.provider_failures)
            .with("entries-returned", s.entries_returned)
            .with("updates-sent", s.updates_sent)
            .with("providers", slots.len() as u64)];
        for slot in slots.iter() {
            let f = slot.fetch_us.snapshot();
            entries.push(
                Entry::new(base.child(Rdn::new("provider", slot.name.clone())))
                    .with_class("mds-provider")
                    .with("namespace", slot.namespace.to_string())
                    .with("cacheable", if slot.cacheable { "TRUE" } else { "FALSE" })
                    .with("fetch-count", f.count)
                    .with("fetch-p50-us", f.quantile(0.50))
                    .with("fetch-p95-us", f.quantile(0.95))
                    .with("fetch-p99-us", f.quantile(0.99))
                    .with("fetch-max-us", f.max),
            );
        }
        entries.extend(self.shared.front.metrics().export_entries(&base));
        entries
    }

    /// The mandatory tail of every search: scope, redact, filter,
    /// project, pick the result code.
    fn finish(
        &self,
        merged: BTreeMap<String, Entry>,
        spec: &SearchSpec,
        requester: &Requester,
        partial: bool,
        degraded: bool,
        too_wide: bool,
    ) -> (ResultCode, Vec<Entry>) {
        // Mandatory final filtering (§10.3): scope and filter semantics
        // are enforced here, not in providers — and ACL redaction happens
        // *before* filter evaluation so filters cannot probe hidden
        // attributes.
        let policy = &self.config.security.policy_map;
        let mut results = Vec::new();
        let mut truncated = false;
        for entry in merged.into_values() {
            let dn = entry.dn();
            let in_scope = match spec.scope {
                Scope::Base => dn == &spec.base,
                Scope::One => dn.is_child_of(&spec.base),
                Scope::Sub => dn.is_under(&spec.base),
            };
            if !in_scope {
                continue;
            }
            let Some(redacted) = policy.redact(&entry, requester) else {
                continue;
            };
            if !spec.filter.matches(&redacted) {
                continue;
            }
            results.push(redacted.project(&spec.attrs));
            if spec.size_limit != 0 && results.len() >= spec.size_limit as usize {
                truncated = true;
                break;
            }
        }

        let code = if truncated {
            ResultCode::SizeLimitExceeded
        } else if too_wide && results.is_empty() {
            ResultCode::UnwillingToPerform
        } else if partial {
            // Entries are genuinely missing (a failed provider had no
            // usable last-known-good data). Dominates StaleResults.
            ResultCode::PartialResults
        } else if degraded {
            ResultCode::StaleResults
        } else {
            ResultCode::Success
        };
        (code, results)
    }
}

/// A cloneable handle over a GRIS's concurrent query state: everything a
/// worker thread needs to answer `Search` requests without the engine's
/// owner. Created by [`Gris::query_path`]; the configuration it captures
/// is frozen at creation.
#[derive(Clone)]
pub struct GrisQueryPath {
    config: Arc<GrisConfig>,
    shared: Shared,
}

impl GrisQueryPath {
    /// The front this handle shares with its engine.
    pub fn front(&self) -> &Front {
        &self.shared.front
    }

    /// Snapshot of the shared operational counters (for assertions and
    /// monitoring after the engine has moved into a runtime).
    pub fn stats(&self) -> GrisStats {
        self.shared.stats()
    }

    /// Handle a request if it is query-path work (`Search`); every other
    /// request is returned to the caller for the engine's owner
    /// (mutations: bind, subscriptions).
    // Err carries the request back unboxed: the worker forwards it to
    // the owner channel by value, so boxing would be an extra
    // allocation on a path taken for every non-Search message.
    #[allow(clippy::result_large_err)]
    pub fn handle_query(
        &self,
        client: ClientId,
        req: GripRequest,
        now: SimTime,
    ) -> Result<Vec<Action>, GripRequest> {
        self.handle_query_traced(client, req, None, now)
    }

    /// [`handle_query`](Self::handle_query) with a trace context: a
    /// traced `Search` records a `gris.search` span (with per-provider
    /// children) parented on `trace.parent`.
    #[allow(clippy::result_large_err)]
    pub fn handle_query_traced(
        &self,
        client: ClientId,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Result<Vec<Action>, GripRequest> {
        match req {
            GripRequest::Search { id, spec } => {
                let read = self.shared.read(&self.config);
                let reply = read.answer(client, id, &spec, trace, now);
                Ok(vec![Action::Reply { client, reply }])
            }
            other => Err(other),
        }
    }
}

impl Gris {
    /// Create a GRIS with the given registration cadence. The TTL attached
    /// to registrations should exceed the interval (typically 3×) so
    /// isolated message loss does not expire the soft state (§4.3).
    pub fn new(config: GrisConfig, reg_interval: SimDuration, reg_ttl: SimDuration) -> Gris {
        let agent = RegistrationAgent::new(
            config.url.clone(),
            config.suffix.clone(),
            reg_interval,
            reg_ttl,
        );
        let front = Front::new(config.observability);
        let subscriptions = front.metrics().gauge("subscriptions");
        Gris {
            config,
            agent,
            shared: Shared {
                slots: Arc::new(Vec::new()),
                stats: Arc::default(),
                front,
            },
            subscriptions,
            persist: None,
            persist_mark: None,
        }
    }

    /// Attach durable storage: warm every provider slot's cache from the
    /// newest snapshot (a restarted GRIS serves its last-known-good
    /// rows immediately instead of stampeding its providers), restore
    /// registration targets, and journal target changes + slot caches
    /// from here on.
    ///
    /// Call after [`Gris::add_provider`] (slots are matched by provider
    /// name) and before serving. Recovery never fails: damaged state
    /// degrades toward cold caches, with warnings in the report.
    pub fn set_persistence(
        &mut self,
        storage: Arc<dyn Storage>,
        opts: JournalOptions,
        now: SimTime,
    ) -> RecoveryReport {
        let (journal, state, report) = Journal::open(storage, opts, now);
        let mut restored = 0usize;
        for slot in self.shared.slots.iter() {
            let Some(g) = state.groups.get(&slot.name) else {
                continue;
            };
            let Some(at) = g.at else {
                continue;
            };
            if g.entries.is_empty() {
                continue;
            }
            restored += g.entries.len();
            *slot.cached.write() = Some((at, Arc::new(g.entries.clone())));
        }
        for t in state.targets {
            self.agent.add_target(t);
        }
        let r = self.shared.front.metrics();
        r.gauge("persist-recovered-entries").set(restored as u64);
        r.gauge("persist-wal-replayed")
            .set(report.wal_records as u64);
        r.gauge("persist-warnings")
            .set(report.warnings.len() as u64);
        self.persist = Some(journal);
        report
    }

    /// Journal one mutation; I/O trouble degrades to a counted error,
    /// never a panic (slot caches can always be refetched).
    fn wal_log(&mut self, op: &WalOp) {
        if let Some(journal) = self.persist.as_mut() {
            if journal.log(op).is_err() {
                self.shared.front.metrics().counter("persist-errors").bump();
            }
        }
    }

    /// Current persistence fingerprint: which slot fetched when, plus
    /// how many directory targets are configured.
    fn persist_fingerprint(&self) -> (Vec<Option<SimTime>>, usize) {
        let stamps = self
            .shared
            .slots
            .iter()
            .map(|s| s.cached.read().as_ref().map(|(at, _)| *at))
            .collect();
        (stamps, self.agent.targets().len())
    }

    /// Snapshot the slot caches + targets and compact the WAL. Skipped
    /// when nothing changed since the last snapshot.
    fn snapshot_persist(&mut self) {
        let mark = self.persist_fingerprint();
        if self.persist_mark.as_ref() == Some(&mark) {
            return;
        }
        let Some(journal) = self.persist.as_mut() else {
            return;
        };
        let groups: Vec<GroupSnap> = self
            .shared
            .slots
            .iter()
            .filter_map(|slot| {
                let guard = slot.cached.read();
                let (at, entries) = guard.as_ref()?;
                Some(GroupSnap {
                    name: slot.name.clone(),
                    at: Some(*at),
                    dns: Vec::new(),
                    entries: (**entries).clone(),
                })
            })
            .collect();
        let mut entries = std::iter::empty::<&Entry>();
        let content = SnapshotContent {
            regs: Vec::new(),
            groups,
            targets: self.agent.targets().to_vec(),
            entries: &mut entries,
        };
        if journal.snapshot(content).is_err() {
            self.shared.front.metrics().counter("persist-errors").bump();
            return;
        }
        self.persist_mark = Some(mark);
    }

    /// This engine's metrics registry (exported under the monitoring
    /// namespace; the live runtime adds its worker-pool instruments
    /// here).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.shared.front.metrics())
    }

    /// Plug in an information provider. Providers are configured before
    /// the engine starts serving; this panics if a [`GrisQueryPath`]
    /// handle already exists.
    pub fn add_provider(&mut self, provider: Box<dyn InfoProvider>) {
        let fetch_us = self
            .shared
            .front
            .metrics()
            .labeled_histogram("provider-fetch-us", Some(provider.name()));
        let slot = Slot {
            name: provider.name().to_owned(),
            namespace: provider.namespace().clone(),
            cacheable: provider.cacheable(),
            cache_ttl: provider.cache_ttl(),
            provider: Mutex::new(provider),
            cached: RwLock::new(None),
            fetch_us,
        };
        Arc::get_mut(&mut self.shared.slots)
            .expect("providers are configured before query handles are created")
            .push(slot);
    }

    /// Number of configured providers.
    pub fn provider_count(&self) -> usize {
        self.shared.slots.len()
    }

    /// Snapshot of the operational counters.
    pub fn stats(&self) -> GrisStats {
        self.shared.stats()
    }

    /// A cloneable concurrent-query handle sharing this engine's slots,
    /// front and counters. The configuration it captures is frozen at
    /// this point.
    pub fn query_path(&self) -> GrisQueryPath {
        GrisQueryPath {
            config: Arc::new(self.config.clone()),
            shared: self.shared.clone(),
        }
    }

    /// Mutable access to a provider by name, downcast to its concrete
    /// type (experiments use this for failure injection and counter
    /// reads). `None` once query handles exist.
    pub fn provider_mut<T: InfoProvider>(&mut self, name: &str) -> Option<&mut T> {
        let slots = Arc::get_mut(&mut self.shared.slots)?;
        slots.iter_mut().find(|s| s.name == name).and_then(|s| {
            let any: &mut dyn std::any::Any = s.provider.get_mut().as_mut();
            any.downcast_mut::<T>()
        })
    }

    /// Shared access to a provider by name, downcast to its concrete
    /// type. Takes `&mut self` because the provider sits behind the
    /// slot's lock, which is bypassed through exclusive access.
    pub fn provider<T: InfoProvider>(&mut self, name: &str) -> Option<&T> {
        self.provider_mut::<T>(name).map(|p| &*p)
    }

    /// Handle one GRIP request from `client`.
    pub fn handle_request(
        &mut self,
        client: ClientId,
        req: GripRequest,
        now: SimTime,
    ) -> Vec<Action> {
        self.handle_request_traced(client, req, None, now)
    }

    /// [`handle_request`](Self::handle_request) with a trace context
    /// (from a [`ProtocolMessage::Traced`](gis_proto::ProtocolMessage)
    /// envelope): a traced `Search` records its span tree.
    pub fn handle_request_traced(
        &mut self,
        client: ClientId,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<Action> {
        let read = self.shared.read(&self.config);
        let reply = match self
            .shared
            .front
            .request(client, req, &self.config, &read, now)
        {
            Ok(reply) => reply,
            Err(GripRequest::Search { id, spec }) => read.answer(client, id, &spec, trace, now),
            // Bulk delta sync is a directory-to-directory protocol; a
            // provider's whole tree is already one harvest query wide,
            // so a GIIS pulls it via plain Search instead.
            Err(other) => front::unwilling(other.id()),
        };
        vec![Action::Reply { client, reply }]
    }

    /// Handle an incoming GRRP message (a GRIS receives invitations):
    /// an invitation adds its directory as a registration target.
    pub fn handle_grrp(&mut self, msg: &GrrpMessage) -> Vec<Action> {
        if self.agent.accept_invite(msg) {
            if let Some(directory) = msg.reply_to.clone() {
                self.wal_log(&WalOp::Target { directory });
            }
        }
        Vec::new()
    }

    /// The engine's front: sessions, subscriptions, instruments.
    pub fn front(&self) -> &Front {
        &self.shared.front
    }

    /// Advance timers: keep the monitoring-namespace snapshot warm, emit
    /// due GRRP registrations, then due subscription deliveries.
    pub fn tick(&mut self, now: SimTime) -> Vec<Action> {
        let read = self.shared.read(&self.config);
        let front = &self.shared.front;
        front.monitoring(now, self.config.monitoring_refresh, || {
            read.build_monitoring()
        });
        let mut actions = front::registrations(&mut self.agent, &self.config, now);
        self.subscriptions.set(front.subscription_count() as u64);
        actions.extend(front.deliveries(&read, now));
        // Checkpoint the slot caches when they changed since the last
        // snapshot (fetch stamps or targets moved) — GRIS state is
        // snapshot-shaped, so the WAL stays nearly empty and each
        // checkpoint compacts it.
        if self.persist.is_some() {
            self.snapshot_persist();
        }
        actions
    }

    /// The core search path: prune providers by namespace, consult caches,
    /// merge, redact, filter, project. Takes `&self` — searches never
    /// require exclusive access and run concurrently from worker threads.
    pub fn search(
        &self,
        spec: &SearchSpec,
        requester: &Requester,
        now: SimTime,
    ) -> (ResultCode, Vec<Entry>) {
        self.shared
            .read(&self.config)
            .search(spec, requester, now, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::{
        DynamicHostProvider, FilesystemProvider, HostSpec, QueueProvider, StaticHostProvider,
    };
    use gis_gsi::{Acl, CertAuthority, Grant, PolicyMap, Principal, SecurityPolicy, TrustStore};
    use gis_ldap::Filter;
    use gis_netsim::secs;
    use gis_proto::SubscriptionMode;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + secs(s)
    }

    /// A GRIS for Figure 3's hostX with all four standard providers.
    fn host_gris() -> Gris {
        let host = HostSpec::irix("hostX", 8);
        let config = GrisConfig::open(LdapUrl::server("gris.hostX"), host.dn());
        let mut gris = Gris::new(config, secs(30), secs(90));
        gris.add_provider(Box::new(StaticHostProvider::new(host.clone())));
        gris.add_provider(Box::new(DynamicHostProvider::new(
            &host,
            42,
            1.5,
            secs(10),
            secs(30),
        )));
        gris.add_provider(Box::new(FilesystemProvider::new(
            &host,
            "scratch",
            "/disks/scratch1",
            40_000,
            7,
            secs(60),
        )));
        gris.add_provider(Box::new(QueueProvider::new(
            &host,
            "default",
            4.0,
            9,
            secs(30),
        )));
        gris
    }

    fn search(gris: &mut Gris, spec: SearchSpec, now: SimTime) -> (ResultCode, Vec<Entry>) {
        let replies = replies_of(gris.handle_request(1, GripRequest::Search { id: 1, spec }, now));
        match replies.into_iter().next().unwrap() {
            GripReply::SearchResult { code, entries, .. } => (code, entries),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// The replies among `actions`.
    fn replies_of(actions: Vec<Action>) -> Vec<GripReply> {
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::Reply { reply, .. } => Some(reply),
                _ => None,
            })
            .collect()
    }

    /// The clients `actions` deliver subscription updates to.
    fn updated(actions: &[Action]) -> Vec<ClientId> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Reply {
                    client,
                    reply: GripReply::Update { .. },
                } => Some(*client),
                _ => None,
            })
            .collect()
    }

    /// The GRRP messages among `actions`, with their directories.
    fn registrations(actions: &[Action]) -> Vec<(&LdapUrl, &GrrpMessage)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::SendGrrp { to, message } => Some((to, message)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn subtree_search_merges_all_providers() {
        let mut gris = host_gris();
        let (code, entries) = search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            t(0),
        );
        assert_eq!(code, ResultCode::Success);
        // host + perf + store + queue entries.
        assert_eq!(entries.len(), 4);
    }

    #[test]
    fn lookup_returns_single_entry() {
        let mut gris = host_gris();
        let (code, entries) = search(
            &mut gris,
            SearchSpec::lookup(Dn::parse("queue=default, hn=hostX").unwrap()),
            t(0),
        );
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].has_class("queue"));
    }

    #[test]
    fn filter_selects_by_attributes() {
        let mut gris = host_gris();
        let (_, entries) = search(
            &mut gris,
            SearchSpec::subtree(
                Dn::parse("hn=hostX").unwrap(),
                Filter::parse("(objectclass=computer)").unwrap(),
            ),
            t(0),
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get_str("system"), Some("mips irix"));
    }

    #[test]
    fn namespace_pruning_skips_unrelated_providers() {
        let mut gris = host_gris();
        // A lookup under the store subtree prunes the dynamic-host and
        // queue providers (disjoint subtrees). The static host provider's
        // namespace *contains* the base, so it cannot be pruned.
        let (_, entries) = search(
            &mut gris,
            SearchSpec::lookup(Dn::parse("store=scratch, hn=hostX").unwrap()),
            t(0),
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(
            gris.stats().provider_invocations,
            2,
            "fs + static-host run; perf and queue are pruned"
        );
    }

    #[test]
    fn cache_prevents_repeated_invocations() {
        let mut gris = host_gris();
        // The lookup touches the dynamic provider (TTL 30s) and the
        // static host provider whose namespace contains the base
        // (TTL 1h).
        let spec = SearchSpec::lookup(Dn::parse("perf=load, hn=hostX").unwrap());
        search(&mut gris, spec.clone(), t(0));
        assert_eq!(gris.stats().provider_invocations, 2);
        search(&mut gris, spec.clone(), t(5)); // both within TTL
        assert_eq!(gris.stats().provider_invocations, 2);
        assert_eq!(gris.stats().cache_hits, 2);
        search(&mut gris, spec, t(31)); // dynamic TTL expired, static cached
        assert_eq!(gris.stats().provider_invocations, 3);
        assert_eq!(gris.stats().cache_hits, 3);
    }

    #[test]
    fn provider_failure_yields_partial_results() {
        let mut gris = host_gris();
        gris.provider_mut::<DynamicHostProvider>("dynamic-host:hostX")
            .unwrap()
            .fail = true;
        let (code, entries) = search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            t(0),
        );
        assert_eq!(code, ResultCode::PartialResults);
        assert_eq!(entries.len(), 3, "other providers still answer");
    }

    #[test]
    fn serve_stale_within_window_marks_entries_and_code() {
        let mut gris = host_gris();
        gris.config.stale_ttl = Some(secs(300));
        // Populate the dynamic provider's cache, then fail it.
        search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            t(0),
        );
        gris.provider_mut::<DynamicHostProvider>("dynamic-host:hostX")
            .unwrap()
            .fail = true;
        // t=40: past the 30s cache TTL, inside the 300s stale window.
        let (code, entries) = search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            t(40),
        );
        assert_eq!(code, ResultCode::StaleResults);
        assert_eq!(entries.len(), 4, "failed provider's entries retained");
        let perf = entries
            .iter()
            .find(|e| e.dn().to_string().starts_with("perf="))
            .expect("stale perf entry present");
        assert_eq!(perf.get_str("stale"), Some("TRUE"));
        assert_eq!(perf.get_str("staleage"), Some("40"));
        assert_eq!(gris.stats().stale_served, 1);

        // Recovery: once the provider heals, answers are fresh again.
        gris.provider_mut::<DynamicHostProvider>("dynamic-host:hostX")
            .unwrap()
            .fail = false;
        let (code, entries) = search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            t(80),
        );
        assert_eq!(code, ResultCode::Success);
        assert!(entries.iter().all(|e| !e.has("stale")));
    }

    #[test]
    fn serve_stale_window_expiry_degrades_to_partial() {
        let mut gris = host_gris();
        gris.config.stale_ttl = Some(secs(300));
        search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            t(0),
        );
        gris.provider_mut::<DynamicHostProvider>("dynamic-host:hostX")
            .unwrap()
            .fail = true;
        // t=400: even the stale window has lapsed — the data is gone.
        let (code, entries) = search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            t(400),
        );
        assert_eq!(code, ResultCode::PartialResults);
        assert_eq!(entries.len(), 3);
        assert_eq!(gris.stats().provider_failures, 1);
    }

    #[test]
    fn search_outside_suffix_is_no_such_object() {
        let mut gris = host_gris();
        let (code, entries) = search(
            &mut gris,
            SearchSpec::lookup(Dn::parse("hn=hostY").unwrap()),
            t(0),
        );
        assert_eq!(code, ResultCode::NoSuchObject);
        assert!(entries.is_empty());
    }

    #[test]
    fn size_limit_enforced() {
        let mut gris = host_gris();
        let (code, entries) = search(
            &mut gris,
            SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()).limit(2),
            t(0),
        );
        assert_eq!(code, ResultCode::SizeLimitExceeded);
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn attribute_projection() {
        let mut gris = host_gris();
        let (_, entries) = search(
            &mut gris,
            SearchSpec::lookup(Dn::parse("hn=hostX").unwrap()).select(&["system"]),
            t(0),
        );
        assert!(entries[0].has("system"));
        assert!(!entries[0].has("cpucount"));
    }

    #[test]
    fn acl_restricts_attributes_and_filter_cannot_probe() {
        let host = HostSpec::linux("h", 4);
        let mut config = GrisConfig::open(LdapUrl::server("gris.h"), host.dn());
        // Anonymous users may see the system type but not load averages.
        config.security.policy_map.set(
            host.dn(),
            Acl::default()
                .with_rule(
                    Principal::Anonymous,
                    Grant::Attrs(vec!["system".into(), "objectclass".into()]),
                )
                .with_rule(Principal::Authenticated, Grant::All),
        );
        let mut gris = Gris::new(config, secs(30), secs(90));
        gris.add_provider(Box::new(StaticHostProvider::new(host.clone())));
        gris.add_provider(Box::new(DynamicHostProvider::new(
            &host,
            1,
            1.0,
            secs(10),
            secs(30),
        )));

        // Anonymous: load5 invisible, and a filter on load5 matches nothing.
        let (_, entries) = search(
            &mut gris,
            SearchSpec::subtree(host.dn(), Filter::parse("(load5=*)").unwrap()),
            t(0),
        );
        assert!(entries.is_empty(), "filter must not see hidden attributes");
        let (_, entries) = search(
            &mut gris,
            SearchSpec::subtree(host.dn(), Filter::parse("(system=*)").unwrap()),
            t(0),
        );
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].has("cpucount"), "cpucount not granted");
    }

    #[test]
    fn bind_flow_with_authenticator() {
        let ca = CertAuthority::new("/O=Grid/CN=CA", 11);
        let mut trust = TrustStore::new();
        trust.add_ca(&ca);
        let url = LdapUrl::server("gris.h");
        let host = HostSpec::linux("h", 2);
        let mut config = GrisConfig::open(url.clone(), host.dn());
        config.security = SecurityPolicy::authenticated(ca.issue("/O=Grid/CN=gris.svc"), trust)
            .with_policy_map(PolicyMap::with_default(Acl::authenticated_only()));
        let mut gris = Gris::new(config, secs(30), secs(90));
        gris.add_provider(Box::new(StaticHostProvider::new(host.clone())));

        // Anonymous search is denied everything.
        let (_, entries) = search(
            &mut gris,
            SearchSpec::subtree(host.dn(), Filter::always()),
            t(0),
        );
        assert!(entries.is_empty());

        // Bind as alice, then the search succeeds.
        let alice = ca.issue("/O=Grid/CN=alice");
        let token = gis_gsi::BindToken::create(&alice, &url.to_string()).to_bytes();
        let replies = replies_of(gris.handle_request(
            1,
            GripRequest::Bind {
                id: 9,
                subject: "/O=Grid/CN=alice".into(),
                token,
            },
            t(1),
        ));
        assert!(matches!(replies[0], GripReply::BindResult { ok: true, .. }));
        let (_, entries) = search(
            &mut gris,
            SearchSpec::subtree(host.dn(), Filter::always()),
            t(2),
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(gris.stats().binds_ok, 1);

        // A different client is still anonymous.
        let replies = replies_of(gris.handle_request(
            2,
            GripRequest::Search {
                id: 1,
                spec: SearchSpec::subtree(host.dn(), Filter::always()),
            },
            t(3),
        ));
        match &replies[0] {
            GripReply::SearchResult { entries, .. } => assert!(entries.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bind_without_authenticator_fails_closed() {
        let mut gris = host_gris();
        let replies = replies_of(gris.handle_request(
            1,
            GripRequest::Bind {
                id: 1,
                subject: "/CN=anyone".into(),
                token: vec![],
            },
            t(0),
        ));
        assert!(matches!(
            replies[0],
            GripReply::BindResult { ok: false, .. }
        ));
        assert_eq!(gris.stats().binds_failed, 1);
    }

    #[test]
    fn periodic_subscription_delivers_on_schedule() {
        let mut gris = host_gris();
        let spec = SearchSpec::lookup(Dn::parse("perf=load, hn=hostX").unwrap());
        let replies = replies_of(gris.handle_request(
            5,
            GripRequest::Subscribe {
                id: 77,
                spec,
                mode: SubscriptionMode::Periodic(secs(10)),
            },
            t(0),
        ));
        assert!(
            matches!(replies[0], GripReply::Update { .. }),
            "initial snapshot"
        );
        assert_eq!(gris.shared.front.subscription_count(), 1);

        assert!(updated(&gris.tick(t(5))).is_empty(), "not due yet");
        assert_eq!(updated(&gris.tick(t(10))), vec![5]);

        // Unsubscribe stops delivery.
        gris.handle_request(5, GripRequest::Unsubscribe { id: 77 }, t(11));
        assert!(updated(&gris.tick(t(20))).is_empty());
        assert_eq!(gris.shared.front.subscription_count(), 0);
    }

    #[test]
    fn on_change_subscription_suppresses_unchanged() {
        let mut gris = host_gris();
        // Static host data never changes: after the initial snapshot, no
        // further updates arrive.
        let spec = SearchSpec::lookup(Dn::parse("hn=hostX").unwrap());
        gris.handle_request(
            6,
            GripRequest::Subscribe {
                id: 1,
                spec,
                mode: SubscriptionMode::OnChange,
            },
            t(0),
        );
        assert!(updated(&gris.tick(t(100))).is_empty());
        assert!(updated(&gris.tick(t(5000))).is_empty());

        // Dynamic data does change (cache TTL 30s, load period 10s).
        let spec = SearchSpec::lookup(Dn::parse("perf=load, hn=hostX").unwrap());
        gris.handle_request(
            6,
            GripRequest::Subscribe {
                id: 2,
                spec,
                mode: SubscriptionMode::OnChange,
            },
            t(5000),
        );
        let out = gris.tick(t(5040));
        assert_eq!(updated(&out).len(), 1, "load changed after TTL expiry");
    }

    #[test]
    fn tick_emits_registrations() {
        let mut gris = host_gris();
        gris.agent.add_target(LdapUrl::server("giis.vo-a"));
        let out = gris.tick(t(0));
        let regs = registrations(&out);
        assert_eq!(regs.len(), 1);
        let (dir, msg) = regs[0];
        assert_eq!(dir, &LdapUrl::server("giis.vo-a"));
        assert_eq!(msg.service_url, LdapUrl::server("gris.hostX"));
        // Not due again immediately.
        assert!(registrations(&gris.tick(t(1))).is_empty());
        assert_eq!(registrations(&gris.tick(t(30))).len(), 1);
    }

    #[test]
    fn invitation_adds_target() {
        let mut gris = host_gris();
        let invite = GrrpMessage::invite(
            LdapUrl::server("gris.hostX"),
            LdapUrl::server("giis.vo-b"),
            t(0),
            secs(60),
        );
        assert!(gris.handle_grrp(&invite).is_empty());
        let out = gris.tick(t(0));
        let regs = registrations(&out);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].0, &LdapUrl::server("giis.vo-b"));
    }

    #[test]
    fn schema_validation_drops_invalid_entries() {
        use gis_ldap::{ObjectClassDef, Schema, Strictness};
        // A provider that emits one valid and one invalid entry.
        struct SloppyProvider {
            ns: Dn,
        }
        impl crate::provider::InfoProvider for SloppyProvider {
            fn name(&self) -> &str {
                "sloppy"
            }
            fn namespace(&self) -> &Dn {
                &self.ns
            }
            fn cache_ttl(&self) -> SimDuration {
                SimDuration::ZERO
            }
            fn fetch(
                &mut self,
                _spec: &SearchSpec,
                _now: SimTime,
            ) -> Result<Vec<Entry>, crate::provider::ProviderError> {
                Ok(vec![
                    Entry::new(self.ns.clone())
                        .with_class("widget")
                        .with("serial", "123"),
                    Entry::new(self.ns.child(gis_ldap::Rdn::new("w", "bad"))).with_class("widget"), // missing required "serial"
                ])
            }
        }

        let ns = Dn::parse("hn=w").unwrap();
        let mut schema = Schema::new();
        schema.define(ObjectClassDef::new("widget").requires("serial"));
        let mut config = GrisConfig::open(LdapUrl::server("gris.w"), ns.clone());
        config.schema = Some((schema, Strictness::Lenient));
        let mut gris = Gris::new(config, secs(30), secs(90));
        gris.add_provider(Box::new(SloppyProvider { ns: ns.clone() }));

        let (code, entries) = gris.search(
            &SearchSpec::subtree(ns, Filter::always()),
            &gis_gsi::Requester::anonymous(),
            t(0),
        );
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 1, "invalid entry dropped");
        assert_eq!(gris.stats().schema_violations, 1);
    }

    #[test]
    fn monitoring_namespace_search() {
        let mut gris = host_gris();
        // Generate some traffic so the self-description has data.
        let spec = SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always());
        search(&mut gris, spec.clone(), t(0));
        search(&mut gris, spec, t(5));

        // A plain GRIP search of the monitoring namespace answers with
        // the service entry, per-provider entries, and metric entries.
        let (code, entries) = search(
            &mut gris,
            SearchSpec::subtree(
                Dn::parse("Mds-Vo-name=monitoring").unwrap(),
                Filter::always(),
            ),
            t(10),
        );
        assert_eq!(code, ResultCode::Success);
        let svc = entries
            .iter()
            .find(|e| e.has_class("mds-service"))
            .expect("service entry");
        assert_eq!(svc.get_str("service-type"), Some("gris"));
        // 2 data queries plus the monitoring query itself (counted
        // before the snapshot was built).
        assert_eq!(svc.get_str("queries"), Some("3"));
        assert_eq!(svc.get_str("providers"), Some("4"));
        // 8 resolutions: 4 misses at t=0, 4 hits at t=5.
        assert_eq!(svc.get_str("cache-hits"), Some("4"));
        assert_eq!(svc.get_str("cache-misses"), Some("4"));
        assert_eq!(svc.get_str("cache-hit-ratio"), Some("0.500"));
        assert_eq!(
            entries
                .iter()
                .filter(|e| e.has_class("mds-provider"))
                .count(),
            4
        );
        // Histograms export live percentiles.
        let hist = entries
            .iter()
            .find(|e| e.get_str("metric-kind") == Some("histogram") && e.has("p50-us"))
            .expect("histogram metric entry");
        assert!(hist.get_str("p95-us").is_some());
        assert!(hist.get_str("p99-us").is_some());

        // Ordinary filters work against the namespace.
        let (_, filtered) = search(
            &mut gris,
            SearchSpec::subtree(
                Dn::parse("Mds-Vo-name=monitoring").unwrap(),
                Filter::parse("(objectclass=mds-provider)").unwrap(),
            ),
            t(11),
        );
        assert_eq!(filtered.len(), 4);
        assert_eq!(gris.stats().monitoring_queries, 2);
    }

    #[test]
    fn monitoring_snapshot_refreshes_on_soft_state_timer() {
        let mut gris = host_gris();
        let mon = SearchSpec::subtree(
            Dn::parse("Mds-Vo-name=monitoring").unwrap(),
            Filter::parse("(objectclass=mds-service)").unwrap(),
        );
        // The first monitoring query builds the snapshot (and is itself
        // already counted).
        let (_, before) = search(&mut gris, mon.clone(), t(0));
        assert_eq!(before[0].get_str("queries"), Some("1"));
        // Traffic arrives; within the refresh window the snapshot is
        // unchanged, after it the new counters appear.
        let spec = SearchSpec::lookup(Dn::parse("hn=hostX").unwrap());
        search(&mut gris, spec, t(1));
        let (_, during) = search(&mut gris, mon.clone(), t(2));
        assert_eq!(during[0].get_str("queries"), Some("1"), "within TTL");
        let (_, after) = search(&mut gris, mon, t(10));
        let q: i64 = after[0].get_str("queries").unwrap().parse().unwrap();
        assert!(q >= 2, "snapshot rebuilt after refresh interval");
    }

    #[test]
    fn traced_search_records_span_tree() {
        use gis_proto::trace::{TraceContext, TraceId, TraceSink};
        let mut gris = host_gris();
        let sink = Arc::new(TraceSink::new());
        gris.front().set_trace_sink(Arc::clone(&sink));
        let trace = TraceId(sink.next_span());
        let ctx = TraceContext {
            trace,
            parent: trace.0,
        };
        let replies = replies_of(gris.handle_request_traced(
            1,
            GripRequest::Search {
                id: 1,
                spec: SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            },
            Some(ctx),
            t(0),
        ));
        assert!(matches!(
            replies[0],
            GripReply::SearchResult {
                code: ResultCode::Success,
                ..
            }
        ));
        let spans = sink.spans(trace);
        let search_span = spans
            .iter()
            .find(|s| s.name == "gris.search")
            .expect("search span");
        assert_eq!(search_span.parent, Some(trace.0));
        assert_eq!(search_span.outcome, "success");
        // All four providers fetched, each a child of the search span.
        let provider_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("provider:"))
            .collect();
        assert_eq!(provider_spans.len(), 4);
        assert!(provider_spans
            .iter()
            .all(|s| s.parent == Some(search_span.span) && s.outcome == "fresh"));
        // A repeat query's provider spans are cache hits.
        gris.handle_request_traced(
            1,
            GripRequest::Search {
                id: 2,
                spec: SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always()),
            },
            Some(ctx),
            t(1),
        );
        assert!(sink.spans(trace).iter().any(|s| s.outcome == "cache-hit"));
        // Untraced searches record nothing new.
        let before = sink.len();
        gris.search(
            &SearchSpec::lookup(Dn::parse("hn=hostX").unwrap()),
            &Requester::anonymous(),
            t(2),
        );
        assert_eq!(sink.len(), before);
    }

    #[test]
    fn stats_snapshot_holds_invariants_under_concurrent_hammer() {
        let gris = {
            let mut g = host_gris();
            g.config.stale_ttl = Some(secs(300));
            g
        };
        let path = gris.query_path();
        let spec = SearchSpec::subtree(Dn::parse("hn=hostX").unwrap(), Filter::always());
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Reader thread: every live snapshot must satisfy the
            // documented invariants — the packed cache word never tears,
            // and per-miss outcomes never exceed counted misses.
            let stats = &path;
            let done = &done;
            s.spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = stats.stats();
                    assert!(
                        s.provider_invocations + s.stale_served + s.provider_failures
                            <= s.cache_misses,
                        "outcomes exceed misses: {s:?}"
                    );
                    std::hint::spin_loop();
                }
            });
            let searchers: Vec<_> = (0..4)
                .map(|w| {
                    let path = path.clone();
                    let spec = spec.clone();
                    s.spawn(move || {
                        for i in 0..300u64 {
                            // Advancing sim time expires cache TTLs,
                            // mixing hits and misses.
                            let now = SimTime::ZERO + secs(i * 7 + w);
                            let _ = path.handle_query(
                                w,
                                GripRequest::Search {
                                    id: i,
                                    spec: spec.clone(),
                                },
                                now,
                            );
                        }
                    })
                })
                .collect();
            for h in searchers {
                h.join().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // Quiesced: the identities are exact. Every search resolves all
        // four slots (all cacheable, all eligible).
        let s = path.stats();
        assert_eq!(s.queries, 4 * 300);
        assert_eq!(s.cache_hits + s.cache_misses, 4 * 300 * 4);
        assert_eq!(
            s.provider_invocations + s.stale_served + s.provider_failures,
            s.cache_misses
        );
    }

    #[test]
    fn persistence_warms_slot_caches_across_restart() {
        let storage: Arc<dyn gis_store::Storage> = Arc::new(gis_store::MemStorage::new());
        let mut gris = host_gris();
        gris.set_persistence(storage.clone(), JournalOptions::default(), t(0));
        // Invitation target must also survive the restart.
        gris.handle_grrp(&GrrpMessage::invite(
            LdapUrl::server("gris.hostX"),
            LdapUrl::server("giis.vo"),
            t(0),
            secs(90),
        ));
        assert_eq!(gris.agent.targets(), &[LdapUrl::server("giis.vo")]);
        // Populate every slot cache, then tick to checkpoint it.
        let (_, entries) = search(
            &mut gris,
            SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=*)").unwrap()),
            t(0),
        );
        assert!(!entries.is_empty());
        let fetched = gris.stats().provider_invocations;
        assert_eq!(fetched, 4, "all four providers fetched cold");
        gris.tick(t(1));
        drop(gris);

        // Restart within every provider's cache TTL: the first search is
        // answered entirely from the recovered caches.
        let mut gris = host_gris();
        let report = gris.set_persistence(storage, JournalOptions::default(), t(5));
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.snapshot.is_some(), "tick wrote a checkpoint");
        let (_, warm) = search(
            &mut gris,
            SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=*)").unwrap()),
            t(5),
        );
        assert_eq!(warm.len(), entries.len());
        assert_eq!(
            gris.stats().provider_invocations,
            0,
            "served from warm cache"
        );
        assert_eq!(
            gris.agent.targets(),
            &[LdapUrl::server("giis.vo")],
            "invitation target recovered"
        );
    }

    #[test]
    fn persistence_skips_unchanged_snapshots() {
        let storage: Arc<dyn gis_store::Storage> = Arc::new(gis_store::MemStorage::new());
        let mut gris = host_gris();
        gris.set_persistence(storage.clone(), JournalOptions::default(), t(0));
        search(
            &mut gris,
            SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=*)").unwrap()),
            t(0),
        );
        gris.tick(t(1));
        let after_first = storage.list().unwrap();
        // Nothing re-fetched between ticks → no new snapshot files.
        gris.tick(t(2));
        gris.tick(t(3));
        assert_eq!(storage.list().unwrap(), after_first);
    }
}

//! The GIIS server engine (§5, §10.4).
//!
//! "The GIIS framework comprises three major components: generic GRRP
//! handling, pluggable index construction, and pluggable search handling."
//!
//! All three are here:
//!
//! * GRRP handling — a [`SoftStateRegistry`] fed by `handle_grrp`, with a
//!   membership [`AcceptPolicy`] ("administrators ... will want to control
//!   membership", §2.3) and invitation support;
//! * index construction — [`GiisMode`] selects what is precomputed: name
//!   records only, a harvested entry cache (the "relational aggregate
//!   directory" of §3), or per-child Bloom summaries (§5.1);
//! * search handling — local answering, chaining with namespace scoping
//!   (Figure 5), Bloom-pruned chaining, and LDAP referrals when data may
//!   not be relayed (§10.4).
//!
//! The engine is sans-IO and asynchronous: methods return [`GiisAction`]s
//! (messages to send, replies to deliver) that the runtime executes.
//! Chained queries are correlated through pending-query state and expire
//! against a deadline, which is what yields *partial results* rather than
//! hangs when children are partitioned away (Figures 1 and 4).

use crate::bloom::{attr_token, BloomFilter};
use gis_gsi::{PolicyMap, Requester, SecurityPolicy, ServiceConfig};
use gis_ldap::{Dit, Dn, Entry, Filter, LdapUrl, Rdn, Scope, SharedDit, SnapshotLineage, Wire};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::{
    metrics, result_digest, Counter, GripReply, GripRequest, GrrpMessage, Histogram,
    MetricsRegistry, Notification, PackedPair, RegistrationAgent, RequestId, ResultCode,
    SearchSpec, SoftStateRegistry, SpanRecord, SubscriptionMode, SubscriptionTable, SyncCookie,
    TraceContext, TraceSink,
};
use gis_store::{
    GroupSnap, Journal, JournalOptions, RecoveryReport, RegSnap, SnapshotContent, Storage, WalOp,
};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Identifies a client connection (assigned by the runtime).
pub type ClientId = u64;

/// How the directory builds its index and answers searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiisMode {
    /// Name-serving directory (§3): "simply records the name of each
    /// entity for which a GRRP registration was recorded, and supports
    /// only name-resolution queries." Searches are answered from
    /// registration records; referrals point at the providers.
    Name,
    /// MDS-2.1's simple aggregate directory (§10.4): "we implement
    /// chaining: GRIP requests directed to the GIIS are simply forwarded
    /// on to the appropriate information provider", scoped by registered
    /// namespace. Unanswered children time out into partial results.
    Chain {
        /// How long to wait for children before answering partially.
        timeout: SimDuration,
    },
    /// Relational-style directory (§3): "follows up each registration of
    /// a new entity with a GRIP query to determine its properties, which
    /// it records" locally; searches are answered from the harvested
    /// cache (freshness bounded by the refresh interval).
    Harvest {
        /// Re-harvest cadence (the §12 freshness-vs-cost knob).
        refresh: SimDuration,
    },
    /// Chaining with SDS-style lossy Bloom routing (§5.1): harvested
    /// summaries prune which children receive each equality query.
    BloomChain {
        /// Chaining deadline.
        timeout: SimDuration,
        /// Summary refresh cadence.
        refresh: SimDuration,
        /// Bloom sizing: bits per indexed token.
        bits_per_element: usize,
    },
    /// Federated scale-out: the directory periodically *pulls* each
    /// registered child's tree through the bulk delta-sync protocol
    /// ([`GripRequest::SyncPull`]) instead of chaining queries down or
    /// re-harvesting whole subtrees. Incremental deltas ride snapshot
    /// lineage cookies; searches are answered from the local replica at
    /// local-read speed, every entry carrying the child-stamped
    /// freshness attributes.
    Federated {
        /// Pull cadence per child (the staleness knob: served data is
        /// at most `interval + deadline` old).
        interval: SimDuration,
        /// How long an unanswered pull counts as in flight before it is
        /// abandoned and scored against the child's circuit.
        deadline: SimDuration,
    },
}

/// Which GRRP registrations this directory accepts — the VO membership
/// policy of §2.3/§7.
#[derive(Debug, Clone)]
pub enum AcceptPolicy {
    /// Accept any registration.
    All,
    /// Accept only services whose namespace falls under a suffix (a VO
    /// that only federates one organization's resources).
    NamespaceUnder(Dn),
    /// Accept only messages carrying one of these authenticated subjects
    /// (signed GRRP, §7).
    Subjects(Vec<String>),
}

impl AcceptPolicy {
    /// Does the policy admit this message?
    pub fn admits(&self, msg: &GrrpMessage) -> bool {
        match self {
            AcceptPolicy::All => true,
            AcceptPolicy::NamespaceUnder(suffix) => msg.namespace.is_under(suffix),
            AcceptPolicy::Subjects(allowed) => msg
                .subject
                .as_ref()
                .is_some_and(|s| allowed.iter().any(|a| a == s)),
        }
    }
}

/// An effect the runtime must carry out for the GIIS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiisAction {
    /// Send a GRIP request to another server (chained query or harvest).
    SendRequest {
        /// Target server.
        to: LdapUrl,
        /// The request (its id is GIIS-generated and unique).
        request: GripRequest,
        /// When present, the request belongs to a traced query: the
        /// runtime wraps it in [`gis_proto::ProtocolMessage::Traced`] so
        /// the child's spans join the same causal tree.
        trace: Option<TraceContext>,
    },
    /// Send a GRRP message (parent registration or invitation).
    SendGrrp {
        /// Target server.
        to: LdapUrl,
        /// The notification.
        message: GrrpMessage,
    },
    /// Deliver a reply to a connected client.
    Reply {
        /// The client.
        client: ClientId,
        /// The reply.
        reply: GripReply,
    },
}

/// Operational counters.
///
/// # Snapshot semantics
///
/// Like [`gis_gris::GrisStats`]'s, a snapshot taken while queries are in
/// flight is *per-counter* atomic, not globally consistent. Two
/// mitigations keep live reads usable:
///
/// * `searches` and `local_answers` share one packed word
///   ([`PackedPair`]), so `local_answers <= searches` holds on **every**
///   snapshot, however concurrent;
/// * a result-cache hit bumps the `searches` half *before*
///   `result_cache_hits`, and the snapshot reads `result_cache_hits`
///   before the packed word, so `result_cache_hits <= searches` also
///   holds on every live read.
///
/// Exact identities (e.g. `local_answers + result_cache_hits + chained
/// fan-outs == searches`) hold once the engine is quiescent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GiisStats {
    /// GRRP messages received.
    pub grrp_received: u64,
    /// GRRP messages rejected by the accept policy.
    pub grrp_rejected: u64,
    /// Registrations that expired (soft-state purges).
    pub expirations: u64,
    /// Searches served.
    pub searches: u64,
    /// Searches answered entirely from local state.
    pub local_answers: u64,
    /// Requests chained to children.
    pub chained_requests: u64,
    /// Children pruned from a fan-out by Bloom routing.
    pub bloom_pruned: u64,
    /// Harvest queries issued.
    pub harvests: u64,
    /// Fan-outs that timed out waiting for at least one child.
    pub timeouts: u64,
    /// Referrals returned to clients.
    pub referrals_issued: u64,
    /// Entries returned to clients.
    pub entries_returned: u64,
    /// Chained searches answered from the GIIS result cache.
    pub result_cache_hits: u64,
    /// Children skipped from a fan-out because their circuit was open.
    pub breaker_skips: u64,
    /// Circuits opened (child reached the consecutive-failure threshold).
    pub breaker_opens: u64,
    /// Half-open probe requests issued to suspect children.
    pub breaker_probes: u64,
    /// Probes that failed, re-opening the circuit for another cooldown.
    pub breaker_reopens: u64,
    /// Circuits closed again after a reply (children re-admitted).
    pub breaker_closes: u64,
    /// Chained requests re-sent once inside the fan-out deadline.
    pub chain_retries: u64,
    /// Searches against the `Mds-Vo-name=monitoring` namespace.
    pub monitoring_queries: u64,
    /// Federation sync pulls issued to children.
    pub sync_pulls: u64,
    /// Sync replies integrated as full tree replacements.
    pub full_syncs: u64,
    /// Sync replies integrated as incremental deltas.
    pub delta_syncs: u64,
    /// Sync pulls that timed out or were declined by the child.
    pub sync_failures: u64,
}

/// The atomic counterpart of [`GiisStats`], shared between the owner and
/// query workers.
#[derive(Debug, Default)]
struct GiisStatsAtomic {
    grrp_received: Counter,
    grrp_rejected: Counter,
    expirations: Counter,
    /// `searches` (first) and `local_answers` (second) packed into one
    /// word: a locally-answered search bumps both halves in a single
    /// atomic op, so `local_answers <= searches` can never be observed
    /// violated.
    work: PackedPair,
    chained_requests: Counter,
    bloom_pruned: Counter,
    harvests: Counter,
    timeouts: Counter,
    referrals_issued: Counter,
    entries_returned: Counter,
    result_cache_hits: Counter,
    breaker_skips: Counter,
    breaker_opens: Counter,
    breaker_probes: Counter,
    breaker_reopens: Counter,
    breaker_closes: Counter,
    chain_retries: Counter,
    monitoring_queries: Counter,
    sync_pulls: Counter,
    full_syncs: Counter,
    delta_syncs: Counter,
    sync_failures: Counter,
}

impl GiisStatsAtomic {
    fn snapshot(&self) -> GiisStats {
        // Read-order discipline: every `result_cache_hits` bump is
        // preceded by its search's bump of the packed word, so reading
        // the hits *before* the packed word guarantees
        // `result_cache_hits <= searches` on every live snapshot.
        let result_cache_hits = self.result_cache_hits.get();
        let (searches, local_answers) = self.work.get();
        GiisStats {
            grrp_received: self.grrp_received.get(),
            grrp_rejected: self.grrp_rejected.get(),
            expirations: self.expirations.get(),
            searches,
            local_answers,
            chained_requests: self.chained_requests.get(),
            bloom_pruned: self.bloom_pruned.get(),
            harvests: self.harvests.get(),
            timeouts: self.timeouts.get(),
            referrals_issued: self.referrals_issued.get(),
            entries_returned: self.entries_returned.get(),
            result_cache_hits,
            breaker_skips: self.breaker_skips.get(),
            breaker_opens: self.breaker_opens.get(),
            breaker_probes: self.breaker_probes.get(),
            breaker_reopens: self.breaker_reopens.get(),
            breaker_closes: self.breaker_closes.get(),
            chain_retries: self.chain_retries.get(),
            monitoring_queries: self.monitoring_queries.get(),
            sync_pulls: self.sync_pulls.get(),
            full_syncs: self.full_syncs.get(),
            delta_syncs: self.delta_syncs.get(),
            sync_failures: self.sync_failures.get(),
        }
    }
}

/// GIIS configuration.
///
/// The shared service knobs (endpoint URL, [`SecurityPolicy`],
/// observability) live in the embedded [`ServiceConfig`]; `GiisConfig`
/// derefs to it, so `config.url` / `config.security` /
/// `config.observability` read and write naturally. The old separate
/// `policy`/`authenticator`/`credential`/`grrp_trust` knobs are all
/// derived from `service.security`: the trust store verifies both bind
/// tokens and registration signatures, the credential signs harvest
/// binds, and the policy map filters outgoing results.
pub struct GiisConfig {
    /// The knobs every GIS service shares, including the unified
    /// security posture. With [`SecurityPolicy::verifies_registrations`]
    /// true, incoming registrations must carry a valid signature
    /// chaining to `service.security.trust`; the verified subject
    /// *replaces* any claimed subject before the accept policy runs
    /// ("(1) ensure that registration messages are authentic, and (2)
    /// control which registration events are accepted", §7). When a
    /// credential is present, the directory also authenticates to
    /// children before harvesting (§7's trusted-directory model).
    pub service: ServiceConfig,
    /// The namespace this directory aggregates (its registration
    /// namespace when joining parent directories; `root` for a whole-VO
    /// directory).
    pub namespace: Dn,
    /// Index/search mode.
    pub mode: GiisMode,
    /// Membership policy for incoming registrations.
    pub accept: AcceptPolicy,
    /// Result cache TTL for chaining modes ("performance concerns make
    /// caching data within the GIIS desirable, and this capability is
    /// provided as part of the basic GIIS framework", §10.4). Cached
    /// results are keyed per requester identity, because "access control
    /// issues complicate caching" — one client's view must never be
    /// served to another. `None` disables caching.
    pub result_cache_ttl: Option<SimDuration>,
    /// Per-child circuit breaker for the chaining modes. `None` (the
    /// default) preserves the passive behaviour: a dead child eats the
    /// full fan-out deadline on every query until its registration
    /// expires. With a breaker, K consecutive timeouts open the child's
    /// circuit and subsequent fan-outs skip it instantly (the answer is
    /// marked partial); after a cooldown, one live query doubles as a
    /// half-open probe that re-admits the child if it answers.
    pub breaker: Option<BreakerConfig>,
    /// VO/suffix shards for [`GiisMode::Federated`]: when non-empty,
    /// only children whose registered namespace intersects one of these
    /// subtrees are pulled, and each pull asks for just the
    /// intersecting subtrees — a replicated root can own a slice of the
    /// VO namespace instead of the whole tree. Empty means unsharded
    /// (pull everything).
    pub shards: Vec<Dn>,
}

/// Circuit-breaker tuning for chained queries (health-aware routing, the
/// fault-tolerant-BDII idiom layered on §5's partial-result semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive chained-request timeouts that open a child's circuit.
    pub failure_threshold: u32,
    /// How long an open circuit rests before a half-open probe is tried.
    pub cooldown: SimDuration,
    /// When true, a still-unanswered chained request is re-sent once at
    /// the fan-out deadline midpoint, recovering isolated message loss
    /// without waiting for the deadline to declare partial results.
    pub retry: bool,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(10),
            retry: true,
        }
    }
}

/// Health of one registered child's chained-query circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Circuit {
    /// Normal operation; requests flow.
    Closed,
    /// Skipping this child until the cooldown lapses.
    Open {
        /// When a half-open probe becomes permissible.
        until: SimTime,
    },
    /// One probe request is in flight; further fan-outs still skip.
    HalfOpen,
}

impl GiisConfig {
    /// An open chaining directory with a 2-second fan-out deadline.
    pub fn chaining(url: LdapUrl, namespace: Dn) -> GiisConfig {
        GiisConfig {
            service: ServiceConfig::open(url),
            namespace,
            mode: GiisMode::Chain {
                timeout: SimDuration::from_secs(2),
            },
            accept: AcceptPolicy::All,
            result_cache_ttl: None,
            breaker: None,
            shards: Vec::new(),
        }
    }

    /// Replaces the security posture, builder-style.
    pub fn with_security(mut self, security: SecurityPolicy) -> GiisConfig {
        self.service.security = security;
        self
    }

    /// A federated directory: pulls children on `interval`, abandons
    /// unanswered pulls after `deadline`, answers queries locally.
    pub fn federated(
        url: LdapUrl,
        namespace: Dn,
        interval: SimDuration,
        deadline: SimDuration,
    ) -> GiisConfig {
        let mut config = GiisConfig::chaining(url, namespace);
        config.mode = GiisMode::Federated { interval, deadline };
        config
    }
}

impl std::ops::Deref for GiisConfig {
    type Target = ServiceConfig;

    fn deref(&self) -> &ServiceConfig {
        &self.service
    }
}

impl std::ops::DerefMut for GiisConfig {
    fn deref_mut(&mut self) -> &mut ServiceConfig {
        &mut self.service
    }
}

struct ChildState {
    /// DNs currently held in the harvested cache for this child.
    harvested: Vec<Dn>,
    last_harvest: Option<SimTime>,
    /// Lineage cookie from the child's last sync reply: presenting it
    /// on the next pull yields an incremental delta when still inside
    /// the child's change window.
    sync_cookie: Option<SyncCookie>,
    /// The child-asserted "state as of" time of the last integrated
    /// sync reply (staleness-gauge input).
    sync_asof: Option<SimTime>,
    /// When the last sync reply was integrated (distinct from
    /// `last_harvest`, which is marked eagerly at *issue* time).
    last_sync: Option<SimTime>,
    bloom: Option<BloomFilter>,
    /// Whether this directory has authenticated to the child.
    bound: bool,
    /// Consecutive chained-request timeouts (breaker input).
    consec_failures: u32,
    /// Chained-query circuit state.
    circuit: Circuit,
    /// Chained-request round-trip latency (registry handle, resolved
    /// when the child first registers).
    rtt: Arc<Histogram>,
}

/// Observability state shared by the owner and every query handle:
/// whether instrumentation is on, the engine's metrics registry, the
/// pre-resolved hot-path histogram, and the optional trace sink.
#[derive(Clone)]
struct Obs {
    enabled: bool,
    registry: Arc<MetricsRegistry>,
    search_us: Arc<Histogram>,
    sink: Option<Arc<TraceSink>>,
}

impl Obs {
    fn new(enabled: bool) -> Obs {
        let registry = Arc::new(MetricsRegistry::new());
        let search_us = registry.histogram("search-us");
        Obs {
            enabled,
            registry,
            search_us,
            sink: None,
        }
    }
}

/// The monitoring-namespace snapshot: entries under
/// `service=<url>, Mds-Vo-name=monitoring` plus the sim time they were
/// built at. Rebuilt when older than the monitoring refresh interval
/// (soft-state), by the owner — tick or monitoring search — whichever
/// notices first.
type MonitorCell = Arc<RwLock<Option<(SimTime, Arc<Vec<Entry>>)>>>;

struct PendingQuery {
    client: ClientId,
    client_req: RequestId,
    cache_key: String,
    outstanding: Vec<u64>,
    merged: BTreeMap<String, Entry>,
    referrals: Vec<LdapUrl>,
    partial: bool,
    /// A child answered from its serve-stale cache (`StaleResults`).
    degraded: bool,
    deadline: SimTime,
    /// When set, still-unanswered children are re-asked once at this
    /// instant (the in-deadline retry); cleared after firing.
    retry_at: Option<SimTime>,
    spec: SearchSpec,
    requester: Requester,
    /// Whether a successful answer may enter the result cache
    /// (monitoring fan-outs bypass it: metrics must not be frozen for a
    /// TTL).
    cacheable: bool,
    /// When the fan-out started (span start / `search-us` input).
    started_at: SimTime,
    /// The trace context the query arrived with, if any.
    trace: Option<TraceContext>,
    /// This query's own `giis.search` span id (allocated at fan-out
    /// when traced; children parent onto it).
    span: Option<u64>,
}

struct CachedResult {
    at: SimTime,
    code: ResultCode,
    entries: Vec<Entry>,
    referrals: Vec<LdapUrl>,
}

/// Search a harvested-cache snapshot: scope/filter against the tree, then
/// redact, filter and project per requester. Shared by the engine's own
/// local answering and by [`GiisQueryPath`] workers.
fn snapshot_answer(
    snapshot: &gis_ldap::Dit,
    policy: &PolicyMap,
    spec: &SearchSpec,
    requester: &Requester,
) -> Vec<Entry> {
    let raw = snapshot.search_shared(&spec.base, spec.scope, &spec.filter, &[], 0);
    let mut out = Vec::new();
    for e in raw {
        let Some(redacted) = policy.redact(&e, requester) else {
            continue;
        };
        if !spec.filter.matches(&redacted) {
            continue;
        }
        out.push(redacted.project(&spec.attrs));
        if spec.size_limit != 0 && out.len() >= spec.size_limit as usize {
            break;
        }
    }
    out
}

/// Probe the chained-result cache. On a fresh hit, counts the search and
/// the hit and returns the ready-to-send reply. Shared by the engine and
/// query workers; the caller must NOT count the search again on a hit.
fn result_cache_probe(
    result_cache: &RwLock<BTreeMap<String, CachedResult>>,
    stats: &GiisStatsAtomic,
    key: &str,
    ttl: SimDuration,
    id: RequestId,
    now: SimTime,
) -> Option<GripReply> {
    let cache = result_cache.read();
    let hit = cache.get(key)?;
    if now.since(hit.at) >= ttl {
        return None;
    }
    // The search is accounted *before* the hit so a concurrent stats
    // snapshot (which reads hits before searches) can never observe
    // `result_cache_hits > searches`.
    stats.work.bump_first();
    stats.result_cache_hits.bump();
    stats.entries_returned.add(hit.entries.len() as u64);
    Some(GripReply::SearchResult {
        id,
        code: hit.code,
        entries: hit.entries.clone(),
        referrals: hit.referrals.clone(),
    })
}

/// Span outcome label for a chained reply.
fn reply_outcome(reply: &GripReply) -> &'static str {
    match reply {
        GripReply::SearchResult { code, .. } => code.label(),
        _ => "reply",
    }
}

/// Cache key: the full query shape plus the requester identity.
fn cache_key(spec: &SearchSpec, requester: &Requester) -> String {
    format!(
        "{}|{:?}|{}|{:?}|{}|{:?}",
        spec.base, spec.scope, spec.filter, spec.attrs, spec.size_limit, requester.subject
    )
}

enum OutboundKind {
    Chained {
        query: u64,
        child: LdapUrl,
        /// When the request was sent (RTT histogram input; span start).
        sent: SimTime,
        /// The `chain:<child>` span id when the query is traced — the
        /// context the child received has this as its parent.
        span: Option<u64>,
    },
    Harvest {
        child: LdapUrl,
    },
    HarvestBind {
        child: LdapUrl,
    },
    /// A federation sync pull awaiting its [`GripReply::SyncDelta`].
    SyncPull {
        child: LdapUrl,
        /// When the pull was issued (deadline scan + RTT input).
        sent: SimTime,
    },
}

/// A cloneable handle over a GIIS's concurrent query state: what a
/// worker thread can answer without the engine's owner. Harvest-mode
/// searches run against the shared cache snapshot; chain-mode searches
/// are answered only on a result-cache hit (a miss needs the owner's
/// fan-out machinery). Created by [`Giis::query_path`].
#[derive(Clone)]
pub struct GiisQueryPath {
    url: LdapUrl,
    mode: GiisMode,
    policy: PolicyMap,
    result_cache_ttl: Option<SimDuration>,
    cache: Arc<SharedDit>,
    result_cache: Arc<RwLock<BTreeMap<String, CachedResult>>>,
    sessions: Arc<RwLock<BTreeMap<ClientId, Requester>>>,
    stats: Arc<GiisStatsAtomic>,
    obs: Obs,
}

impl GiisQueryPath {
    /// Snapshot of the shared operational counters (for assertions and
    /// monitoring after the engine has moved into a runtime).
    pub fn stats(&self) -> GiisStats {
        self.stats.snapshot()
    }

    /// Handle a request if it is query-path work; everything else —
    /// binds, subscriptions, Name-mode answering, chain-mode cache
    /// misses, monitoring searches — is returned to the caller for the
    /// engine's owner.
    // Err carries the request back unboxed: the worker forwards it to
    // the owner channel by value, so boxing would be an extra
    // allocation on a path taken for every non-Search message.
    #[allow(clippy::result_large_err)]
    pub fn handle_query(
        &self,
        client: ClientId,
        req: GripRequest,
        now: SimTime,
    ) -> Result<Vec<GiisAction>, GripRequest> {
        self.handle_query_traced(client, req, None, now)
    }

    /// [`handle_query`](Self::handle_query) with a trace context: a
    /// worker-answered `Search` records a `giis.search` span parented on
    /// `trace.parent`.
    #[allow(clippy::result_large_err)]
    pub fn handle_query_traced(
        &self,
        client: ClientId,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Result<Vec<GiisAction>, GripRequest> {
        let GripRequest::Search { id, spec } = req else {
            return Err(req);
        };
        // The monitoring namespace needs the owner's registry/child
        // state (and, in chain modes, its fan-out machinery).
        if metrics::is_monitoring_dn(&spec.base) {
            return Err(GripRequest::Search { id, spec });
        }
        let started = Instant::now();
        match self.mode {
            GiisMode::Harvest { .. } | GiisMode::Federated { .. } => {
                self.stats.work.bump_both();
                let requester = self.requester_of(client);
                let entries =
                    snapshot_answer(&self.cache.snapshot(), &self.policy, &spec, &requester);
                self.stats.entries_returned.add(entries.len() as u64);
                self.note_search(trace, now, started, "local");
                Ok(vec![GiisAction::Reply {
                    client,
                    reply: GripReply::SearchResult {
                        id,
                        code: ResultCode::Success,
                        entries,
                        referrals: Vec::new(),
                    },
                }])
            }
            GiisMode::Chain { .. } | GiisMode::BloomChain { .. } => {
                let Some(ttl) = self.result_cache_ttl else {
                    return Err(GripRequest::Search { id, spec });
                };
                let requester = self.requester_of(client);
                let key = cache_key(&spec, &requester);
                match result_cache_probe(&self.result_cache, &self.stats, &key, ttl, id, now) {
                    Some(reply) => {
                        self.note_search(trace, now, started, "cache-hit");
                        Ok(vec![GiisAction::Reply { client, reply }])
                    }
                    None => Err(GripRequest::Search { id, spec }),
                }
            }
            // Name-serving answers come from the soft-state registry,
            // which the owner mutates freely.
            GiisMode::Name => Err(GripRequest::Search { id, spec }),
        }
    }

    /// Record the `search-us` histogram and, when traced, a `giis.search`
    /// span for a worker-answered search.
    fn note_search(&self, trace: Option<TraceContext>, now: SimTime, started: Instant, how: &str) {
        let elapsed = started.elapsed().as_micros() as u64;
        if self.obs.enabled {
            self.obs.search_us.record(elapsed);
        }
        let (Some(sink), Some(ctx)) = (self.obs.sink.as_deref(), trace) else {
            return;
        };
        sink.record(SpanRecord {
            trace: ctx.trace,
            span: sink.next_span(),
            parent: Some(ctx.parent),
            service: self.url.to_string(),
            name: "giis.search".into(),
            start: now,
            end: now + SimDuration::from_micros(elapsed),
            outcome: how.to_string(),
        });
    }

    fn requester_of(&self, client: ClientId) -> Requester {
        self.sessions
            .read()
            .get(&client)
            .cloned()
            .unwrap_or_else(Requester::anonymous)
    }

    /// Record that `client` authenticated as `requester`.
    ///
    /// The transport layer calls this when a connection completes the
    /// §7 mutual-auth handshake, so every query on that connection is
    /// redacted for the proven identity — the wire analog of a
    /// successful in-band Bind.
    pub fn authenticate_session(&self, client: ClientId, requester: Requester) {
        self.sessions.write().insert(client, requester);
    }
}

/// A Grid Index Information Service instance.
pub struct Giis {
    /// Configuration.
    pub config: GiisConfig,
    /// The soft-state registration table (public: experiments inspect it).
    pub registry: SoftStateRegistry,
    /// Registers this GIIS with parent directories (hierarchy, Figure 5).
    pub agent: RegistrationAgent,
    stats: Arc<GiisStatsAtomic>,
    sessions: Arc<RwLock<BTreeMap<ClientId, Requester>>>,
    subs: SubscriptionTable<ClientId>,
    sub_requester: BTreeMap<(ClientId, RequestId), Requester>,
    sub_next_due: BTreeMap<(ClientId, RequestId), SimTime>,
    children: BTreeMap<String, ChildState>,
    /// The harvested entry cache, published as shared snapshots so query
    /// workers can answer from it while the owner integrates harvests.
    cache: Arc<SharedDit>,
    result_cache: Arc<RwLock<BTreeMap<String, CachedResult>>>,
    pending: BTreeMap<u64, PendingQuery>,
    outbound: BTreeMap<u64, OutboundKind>,
    next_outbound: u64,
    next_query: u64,
    obs: Obs,
    monitor: MonitorCell,
    /// Write-ahead journal: present once [`Giis::set_persistence`] ran.
    persist: Option<Journal>,
    /// Versioned change tracking over the published cache snapshots —
    /// what lets this directory answer [`GripRequest::SyncPull`] with
    /// incremental deltas. Observed lazily at serve time (the `Arc`
    /// pointer fast path makes a no-change observation O(1)).
    lineage: SnapshotLineage,
}

impl Giis {
    /// Create a GIIS; `reg_interval`/`reg_ttl` pace its own registrations
    /// with parent directories.
    pub fn new(config: GiisConfig, reg_interval: SimDuration, reg_ttl: SimDuration) -> Giis {
        let agent = RegistrationAgent::new(
            config.url.clone(),
            config.namespace.clone(),
            reg_interval,
            reg_ttl,
        );
        let obs = Obs::new(config.observability);
        Giis {
            config,
            registry: SoftStateRegistry::new(),
            agent,
            stats: Arc::new(GiisStatsAtomic::default()),
            sessions: Arc::new(RwLock::new(BTreeMap::new())),
            subs: SubscriptionTable::new(),
            sub_requester: BTreeMap::new(),
            sub_next_due: BTreeMap::new(),
            children: BTreeMap::new(),
            cache: Arc::new(SharedDit::new()),
            result_cache: Arc::new(RwLock::new(BTreeMap::new())),
            pending: BTreeMap::new(),
            outbound: BTreeMap::new(),
            next_outbound: 1,
            next_query: 1,
            obs,
            monitor: Arc::new(RwLock::new(None)),
            persist: None,
            lineage: SnapshotLineage::default(),
        }
    }

    /// Attach durable storage: recover the harvested cache, the
    /// soft-state registry (with its original expiry deadlines), harvest
    /// attribution and agent targets from `storage`, and journal every
    /// subsequent mutation there.
    ///
    /// Must be called before [`Giis::query_path`] — recovery replaces
    /// the shared cache the query handles capture. Recovery never fails:
    /// damaged or missing state degrades toward empty, with one warning
    /// per degradation in the returned report (also surfaced as the
    /// `persist-warnings` gauge).
    pub fn set_persistence(
        &mut self,
        storage: Arc<dyn Storage>,
        opts: JournalOptions,
        now: SimTime,
    ) -> RecoveryReport {
        let (journal, state, report) = Journal::open(storage, opts, now);
        self.cache = Arc::new(SharedDit::from_dit(state.dit));
        self.registry = state.registry;
        self.children.clear();
        for (key, g) in state.groups {
            let rtt = self
                .obs
                .registry
                .labeled_histogram("chain-rtt-us", Some(&key));
            self.children.insert(
                key,
                ChildState {
                    harvested: g.dns,
                    last_harvest: g.at,
                    // Sync cookies are not persisted: the first pull
                    // after recovery is a full sync, which re-converges
                    // whatever the WAL tail missed.
                    sync_cookie: None,
                    sync_asof: g.at,
                    last_sync: g.at,
                    // Bloom summaries are not persisted; they rebuild on
                    // the next harvest of each child.
                    bloom: None,
                    bound: false,
                    consec_failures: 0,
                    circuit: Circuit::Closed,
                    rtt,
                },
            );
        }
        for t in state.targets {
            self.agent.add_target(t);
        }
        let r = &self.obs.registry;
        r.gauge("persist-recovered-entries")
            .set(self.cache.len() as u64);
        r.gauge("persist-recovered-regs")
            .set(self.registry.len() as u64);
        r.gauge("persist-wal-replayed")
            .set(report.wal_records as u64);
        r.gauge("persist-warnings")
            .set(report.warnings.len() as u64);
        self.persist = Some(journal);
        report
    }

    /// Journal one mutation ahead of applying it. I/O trouble degrades
    /// to "keep serving, count the error" — persistence is an
    /// availability optimization for soft state, never worth a panic.
    fn wal_log(&mut self, op: &WalOp) {
        if let Some(journal) = self.persist.as_mut() {
            if journal.log(op).is_err() {
                self.obs.registry.counter("persist-errors").bump();
            }
        }
    }

    /// Write a snapshot of the current state and compact the WAL into
    /// it. Called by the owner on cadence (never on the query path).
    fn snapshot_persist(&mut self) {
        let Some(journal) = self.persist.as_mut() else {
            return;
        };
        let published = self.cache.snapshot();
        let regs: Vec<RegSnap> = self.registry.registrations().map(RegSnap::of).collect();
        let groups: Vec<GroupSnap> = self
            .children
            .iter()
            .map(|(name, st)| GroupSnap {
                name: name.clone(),
                at: st.last_harvest,
                dns: st.harvested.clone(),
                entries: Vec::new(),
            })
            .collect();
        let mut entries = published.iter();
        let content = SnapshotContent {
            regs,
            groups,
            targets: self.agent.targets().to_vec(),
            entries: &mut entries,
        };
        if journal.snapshot(content).is_err() {
            self.obs.registry.counter("persist-errors").bump();
        }
    }

    /// Install a shared trace sink: traced searches record spans here.
    /// Call before creating query-path handles (they capture the sink).
    pub fn set_trace_sink(&mut self, sink: Arc<TraceSink>) {
        self.obs.sink = Some(sink);
    }

    /// This engine's metrics registry (exported under the monitoring
    /// namespace; the live runtime adds its worker-pool instruments
    /// here).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.obs.registry)
    }

    /// The children (service URLs) currently fresh in the registry.
    pub fn active_children(&self, now: SimTime) -> Vec<LdapUrl> {
        self.registry
            .active(now)
            .map(|r| r.message.service_url.clone())
            .collect()
    }

    /// Number of harvested entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// The current published cache snapshot (tests and experiments
    /// compare federated replicas against ground truth through this).
    pub fn cache_snapshot(&self) -> Arc<Dit> {
        self.cache.snapshot()
    }

    /// The lineage cookie recorded from `child`'s last sync reply.
    pub fn sync_cookie_of(&self, child: &LdapUrl) -> Option<SyncCookie> {
        self.children
            .get(&child.to_string())
            .and_then(|s| s.sync_cookie)
    }

    /// The child-reported "as of" time of `child`'s last integrated sync
    /// — the serve-time staleness bound is `now - sync_asof_of(child)`.
    pub fn sync_asof_of(&self, child: &LdapUrl) -> Option<SimTime> {
        self.children
            .get(&child.to_string())
            .and_then(|s| s.sync_asof)
    }

    /// Snapshot of the operational counters.
    pub fn stats(&self) -> GiisStats {
        self.stats.snapshot()
    }

    /// A cloneable concurrent-query handle sharing this directory's
    /// harvested cache, result cache, sessions and counters. The config
    /// slice it captures (mode, policy, cache TTL) is frozen at this
    /// point. Registry-backed answering (Name mode) and fan-out state
    /// stay with the engine's owner.
    pub fn query_path(&self) -> GiisQueryPath {
        GiisQueryPath {
            url: self.config.url.clone(),
            mode: self.config.mode,
            policy: self.config.security.policy_map.clone(),
            result_cache_ttl: self.config.result_cache_ttl,
            cache: Arc::clone(&self.cache),
            result_cache: Arc::clone(&self.result_cache),
            sessions: Arc::clone(&self.sessions),
            stats: Arc::clone(&self.stats),
            obs: self.obs.clone(),
        }
    }

    /// Issue an invitation asking `service` to register here (§10.4's
    /// invitation flow; also how "an entire organization's resources can
    /// be added to a VO by registering the appropriate directory", §9).
    pub fn invite(&self, service: LdapUrl, now: SimTime, ttl: SimDuration) -> GiisAction {
        GiisAction::SendGrrp {
            to: service.clone(),
            message: GrrpMessage::invite(service, self.config.url.clone(), now, ttl),
        }
    }

    /// Handle an incoming GRRP message (no reply channel: datagram-style
    /// delivery, as in the simulated fabric).
    pub fn handle_grrp(&mut self, msg: GrrpMessage, now: SimTime) -> Vec<GiisAction> {
        self.handle_grrp_from(None, msg, now)
    }

    /// Handle an incoming GRRP message that arrived over a connection.
    ///
    /// GRRP is one-way — accepted registrations are deliberately never
    /// acknowledged (soft-state refresh is the liveness signal) — but a
    /// *rejected* registration from a connected peer gets an explicit
    /// [`GripReply::GrrpResult`] with [`ResultCode::AuthRejected`] so a
    /// misconfigured provider learns its signature does not chain to the
    /// directory's trust store instead of silently timing out of
    /// existence (§7: "ensure that registration messages are
    /// authentic").
    pub fn handle_grrp_from(
        &mut self,
        origin: Option<ClientId>,
        msg: GrrpMessage,
        now: SimTime,
    ) -> Vec<GiisAction> {
        self.stats.grrp_received.bump();
        match msg.notification {
            Notification::Invite => {
                // This directory was itself invited to join a parent.
                if self.agent.accept_invite(&msg) {
                    if let Some(directory) = msg.reply_to.clone() {
                        self.wal_log(&WalOp::Target { directory });
                    }
                }
                Vec::new()
            }
            Notification::Register => {
                let mut msg = msg;
                if let Some(trust) = self
                    .config
                    .security
                    .verifies_registrations()
                    .then_some(self.config.security.trust.as_ref())
                    .flatten()
                {
                    // Authenticity gate: unsigned or badly-signed
                    // registrations are dropped, and the subject the
                    // policy sees is the *verified* one.
                    let verified = msg.signature.as_ref().and_then(|sig| {
                        gis_gsi::verify_signed_registration(trust, &msg.signable_bytes(), sig)
                    });
                    match verified {
                        Some(subject) => msg.subject = Some(subject),
                        None => {
                            self.stats.grrp_rejected.bump();
                            return Giis::grrp_rejection(origin);
                        }
                    }
                }
                if !self.config.accept.admits(&msg) {
                    self.stats.grrp_rejected.bump();
                    return Giis::grrp_rejection(origin);
                }
                let url = msg.service_url.clone();
                if self.persist.is_some() {
                    // Journal the *verified* message (subject attached)
                    // so replay re-runs exactly the observation below.
                    self.wal_log(&WalOp::Observe {
                        msg: msg.clone(),
                        now,
                    });
                }
                let is_new = self.registry.observe(msg, now);
                let harvesting = self.harvest_refresh().is_some();
                let key = url.to_string();
                // Resolved on every registration, but get-or-create in
                // the registry makes repeats cheap (one map lookup).
                let rtt = self
                    .obs
                    .registry
                    .labeled_histogram("chain-rtt-us", Some(&key));
                let state = self.children.entry(key).or_insert_with(|| ChildState {
                    harvested: Vec::new(),
                    last_harvest: None,
                    sync_cookie: None,
                    sync_asof: None,
                    last_sync: None,
                    bloom: None,
                    bound: false,
                    consec_failures: 0,
                    circuit: Circuit::Closed,
                    rtt,
                });
                // New children are harvested immediately in harvesting
                // modes ("follows up each registration of a new entity
                // with a GRIP query", §3); a federated directory issues
                // its first sync pull the same way.
                if is_new && state.last_harvest.is_none() {
                    if harvesting {
                        state.last_harvest = Some(now);
                        return self.issue_harvest(url);
                    }
                    if matches!(self.config.mode, GiisMode::Federated { .. }) {
                        state.last_harvest = Some(now);
                        return self.issue_sync_pull(url, now);
                    }
                }
                Vec::new()
            }
        }
    }

    /// The action set for a rejected registration: empty for datagram
    /// delivery, an explicit `GrrpResult` reply when the sender is a
    /// live connection. GRRP carries no request id, so the reply uses
    /// id 0 — the reserved "unsolicited" slot.
    fn grrp_rejection(origin: Option<ClientId>) -> Vec<GiisAction> {
        match origin {
            Some(client) => vec![GiisAction::Reply {
                client,
                reply: GripReply::GrrpResult {
                    id: 0,
                    code: ResultCode::AuthRejected,
                },
            }],
            None => Vec::new(),
        }
    }

    fn harvest_refresh(&self) -> Option<SimDuration> {
        match self.config.mode {
            GiisMode::Harvest { refresh } => Some(refresh),
            GiisMode::BloomChain { refresh, .. } => Some(refresh),
            _ => None,
        }
    }

    fn issue_harvest(&mut self, child: LdapUrl) -> Vec<GiisAction> {
        // Authenticate first when operating as a trusted directory.
        if let Some(cred) = &self.config.security.credential {
            let bound = self
                .children
                .get(&child.to_string())
                .is_some_and(|s| s.bound);
            if !bound {
                let token = gis_gsi::BindToken::create(cred, &child.to_string()).to_bytes();
                let id = self.next_outbound;
                self.next_outbound += 1;
                self.outbound.insert(
                    id,
                    OutboundKind::HarvestBind {
                        child: child.clone(),
                    },
                );
                return vec![GiisAction::SendRequest {
                    to: child,
                    request: GripRequest::Bind {
                        id,
                        subject: cred.subject().to_owned(),
                        token,
                    },
                    trace: None,
                }];
            }
        }
        let id = self.next_outbound;
        self.next_outbound += 1;
        self.outbound.insert(
            id,
            OutboundKind::Harvest {
                child: child.clone(),
            },
        );
        self.stats.harvests.bump();
        let namespace = self
            .registry
            .get(&child)
            .map(|r| r.message.namespace.clone())
            .unwrap_or_else(Dn::root);
        vec![GiisAction::SendRequest {
            to: child,
            request: GripRequest::Search {
                id,
                spec: SearchSpec::subtree(namespace, Filter::always()),
            },
            trace: None,
        }]
    }

    /// The shard subtrees a pull of `child` should request: `Some(vec![])`
    /// when unsharded, the intersecting shards when sharded, `None` when
    /// the child's registered namespace misses every shard (it is not
    /// pulled at all).
    fn shard_scope(&self, child: &LdapUrl) -> Option<Vec<Dn>> {
        if self.config.shards.is_empty() {
            return Some(Vec::new());
        }
        let ns = self
            .registry
            .get(child)
            .map(|r| r.message.namespace.clone())
            .unwrap_or_else(Dn::root);
        let hit: Vec<Dn> = self
            .config
            .shards
            .iter()
            .filter(|s| ns.is_under(s) || s.is_under(&ns))
            .cloned()
            .collect();
        if hit.is_empty() {
            None
        } else {
            Some(hit)
        }
    }

    /// Is a sync pull to `child` already awaiting its reply?
    fn sync_inflight(&self, child: &LdapUrl) -> bool {
        self.outbound
            .values()
            .any(|k| matches!(k, OutboundKind::SyncPull { child: c, .. } if c == child))
    }

    /// Issue one federation sync pull, presenting the child's last
    /// cookie so it can answer with an incremental delta.
    fn issue_sync_pull(&mut self, child: LdapUrl, now: SimTime) -> Vec<GiisAction> {
        let Some(subtrees) = self.shard_scope(&child) else {
            return Vec::new();
        };
        let cookie = self
            .children
            .get(&child.to_string())
            .and_then(|s| s.sync_cookie);
        let id = self.next_outbound;
        self.next_outbound += 1;
        self.outbound.insert(
            id,
            OutboundKind::SyncPull {
                child: child.clone(),
                sent: now,
            },
        );
        self.stats.sync_pulls.bump();
        vec![GiisAction::SendRequest {
            to: child,
            request: GripRequest::SyncPull {
                id,
                cookie,
                subtrees,
            },
            trace: None,
        }]
    }

    /// Answer a sync pull from the lineage over the local cache. Only
    /// the cache-backed modes can serve deltas; the others decline, and
    /// the puller scores the decline like a timeout.
    fn sync_reply(
        &mut self,
        id: RequestId,
        cookie: Option<SyncCookie>,
        subtrees: &[Dn],
        now: SimTime,
    ) -> GripReply {
        let serves = matches!(
            self.config.mode,
            GiisMode::Harvest { .. } | GiisMode::BloomChain { .. } | GiisMode::Federated { .. }
        );
        if !serves {
            return GripReply::SubscriptionDone {
                id,
                code: ResultCode::UnwillingToPerform,
            };
        }
        // Catch the lineage up with whatever the cache published since
        // the last serve; a republished unchanged snapshot is an `Arc`
        // pointer comparison.
        self.lineage.observe(self.cache.snapshot(), now);
        // A cookie from a different lineage incarnation (pre-restart
        // epoch) can collide numerically with this one's version; only
        // same-epoch cookies are eligible for an incremental answer.
        if let Some(cookie) = cookie {
            if cookie.epoch == self.lineage.epoch() {
                if let Some(delta) = self.lineage.delta_since(cookie.version, subtrees) {
                    return GripReply::SyncDelta {
                        id,
                        full: false,
                        epoch: self.lineage.epoch(),
                        version: self.lineage.version(),
                        at: self.lineage.as_of(),
                        entries: delta.upserts,
                        deletes: delta.deletes,
                    };
                }
            }
        }
        GripReply::SyncDelta {
            id,
            full: true,
            epoch: self.lineage.epoch(),
            version: self.lineage.version(),
            at: self.lineage.as_of(),
            entries: self.lineage.full(subtrees),
            deletes: Vec::new(),
        }
    }

    /// Integrate one sync reply: a full payload rebuilds this child's
    /// slice of the cache through the sorted bulk build (other
    /// children's rows are retained by shared handle); an incremental
    /// payload lands as one publish-once mutation batch.
    #[allow(clippy::too_many_arguments)]
    fn integrate_sync(
        &mut self,
        child: &LdapUrl,
        full: bool,
        epoch: u64,
        version: u64,
        at: SimTime,
        entries: Vec<Entry>,
        deletes: Vec<Dn>,
        now: SimTime,
    ) {
        let key = child.to_string();
        if !self.children.contains_key(&key) {
            return; // registration expired between pull and reply
        }
        if self.obs.enabled {
            let bytes: usize = entries.iter().map(|e| e.to_wire().len()).sum();
            self.obs
                .registry
                .gauge("sync-delta-bytes")
                .set(bytes as u64);
        }
        if full {
            self.stats.full_syncs.bump();
            if self.persist.is_some() {
                self.wal_log(&WalOp::Harvest {
                    child: child.clone(),
                    entries: entries.clone(),
                    now,
                });
            }
            let state = self.children.get_mut(&key).expect("checked above");
            let old: BTreeSet<Dn> = state.harvested.drain(..).collect();
            state.harvested = entries.iter().map(|e| e.dn().clone()).collect();
            state.sync_cookie = Some(SyncCookie { epoch, version });
            state.sync_asof = Some(at);
            state.last_sync = Some(now);
            let snap = self.cache.snapshot();
            let mut batch: Vec<Arc<Entry>> = snap
                .iter_shared()
                .filter(|(_, e)| !old.contains(e.dn()))
                .map(|(_, e)| Arc::clone(e))
                .collect();
            // New rows come after retained ones: bulk_load keeps the
            // last occurrence of a duplicate key, so the fresh payload
            // wins if the child re-announced a DN another child owns.
            batch.extend(entries.into_iter().map(Arc::new));
            self.cache.replace(Dit::bulk_load_shared(batch));
        } else {
            self.stats.delta_syncs.bump();
            if self.persist.is_some() {
                self.wal_log(&WalOp::Delta {
                    child: child.clone(),
                    upserts: entries.clone(),
                    deletes: deletes.clone(),
                    now,
                });
            }
            let state = self.children.get_mut(&key).expect("checked above");
            state.sync_cookie = Some(SyncCookie { epoch, version });
            state.sync_asof = Some(at);
            state.last_sync = Some(now);
            for dn in &deletes {
                state.harvested.retain(|d| d != dn);
            }
            for e in &entries {
                if !state.harvested.contains(e.dn()) {
                    state.harvested.push(e.dn().clone());
                }
            }
            self.cache.mutate(|dit| {
                for dn in &deletes {
                    dit.delete(dn);
                }
                for e in entries {
                    dit.upsert(e);
                }
            });
        }
    }

    /// Handle one GRIP request from a client.
    pub fn handle_request(
        &mut self,
        client: ClientId,
        req: GripRequest,
        now: SimTime,
    ) -> Vec<GiisAction> {
        self.handle_request_traced(client, req, None, now)
    }

    /// [`handle_request`](Self::handle_request) with a trace context: a
    /// traced `Search` records a `giis.search` span, chained children
    /// receive derived contexts and record `chain:<child>` child spans.
    pub fn handle_request_traced(
        &mut self,
        client: ClientId,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<GiisAction> {
        match req {
            GripRequest::Bind {
                id,
                subject: _,
                token,
            } => {
                let outcome = self
                    .config
                    .security
                    .authenticator(self.config.url.to_string())
                    .and_then(|a| a.authenticate(&token));
                let (ok, subject) = match outcome {
                    Some(s) => {
                        self.sessions
                            .write()
                            .insert(client, Requester::subject(s.clone()));
                        (true, Some(s))
                    }
                    None => (false, None),
                };
                vec![GiisAction::Reply {
                    client,
                    reply: GripReply::BindResult { id, ok, subject },
                }]
            }
            GripRequest::Search { id, spec } => self.start_search(client, id, spec, trace, now),
            GripRequest::SyncPull {
                id,
                cookie,
                subtrees,
            } => {
                let reply = self.sync_reply(id, cookie, &subtrees, now);
                vec![GiisAction::Reply { client, reply }]
            }
            GripRequest::Subscribe { id, spec, mode } => {
                // MDS-2.1 shipped "with the exception of push operations"
                // (§10); §12 lists subscription push as future work. We
                // implement it for the local-answer modes, where the
                // directory can evaluate the watch against its own state.
                // Chaining modes would need fan-out subscriptions; those
                // watches belong at the authoritative GRIS, so they are
                // declined.
                match self.config.mode {
                    GiisMode::Name | GiisMode::Harvest { .. } | GiisMode::Federated { .. } => {
                        let requester = self.requester_of(client);
                        self.subs.subscribe(client, id, spec.clone(), mode);
                        self.sub_requester.insert((client, id), requester.clone());
                        if let SubscriptionMode::Periodic(period) = mode {
                            self.sub_next_due.insert((client, id), now + period);
                        }
                        let entries = self.subscription_snapshot(&spec, &requester, now);
                        self.note_delivery(client, id, &entries);
                        vec![GiisAction::Reply {
                            client,
                            reply: GripReply::Update { id, entries },
                        }]
                    }
                    _ => vec![GiisAction::Reply {
                        client,
                        reply: GripReply::SubscriptionDone {
                            id,
                            code: ResultCode::UnwillingToPerform,
                        },
                    }],
                }
            }
            GripRequest::Unsubscribe { id } => {
                let existed = self.subs.unsubscribe(client, id);
                self.sub_requester.remove(&(client, id));
                self.sub_next_due.remove(&(client, id));
                vec![GiisAction::Reply {
                    client,
                    reply: GripReply::SubscriptionDone {
                        id,
                        code: if existed {
                            ResultCode::Success
                        } else {
                            ResultCode::NoSuchObject
                        },
                    },
                }]
            }
        }
    }

    fn requester_of(&self, client: ClientId) -> Requester {
        self.sessions
            .read()
            .get(&client)
            .cloned()
            .unwrap_or_else(Requester::anonymous)
    }

    fn start_search(
        &mut self,
        client: ClientId,
        id: RequestId,
        spec: SearchSpec,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<GiisAction> {
        let requester = self.requester_of(client);
        // The monitoring namespace is served ahead of the mode dispatch:
        // self-description answers the same way whatever the index mode,
        // except that the chaining modes also fan it out to the children.
        if metrics::is_monitoring_dn(&spec.base) {
            return self.monitoring_search(client, id, spec, requester, trace, now);
        }
        let started = Instant::now();
        match self.config.mode {
            GiisMode::Name => {
                self.stats.work.bump_both();
                let (entries, referrals) = self.name_answer(&spec, &requester, now);
                self.stats.entries_returned.add(entries.len() as u64);
                self.stats.referrals_issued.add(referrals.len() as u64);
                self.note_local_search(trace, now, started, "local");
                vec![GiisAction::Reply {
                    client,
                    reply: GripReply::SearchResult {
                        id,
                        code: ResultCode::Success,
                        entries,
                        referrals,
                    },
                }]
            }
            GiisMode::Harvest { .. } | GiisMode::Federated { .. } => {
                self.stats.work.bump_both();
                let entries = self.local_answer(&spec, &requester);
                self.stats.entries_returned.add(entries.len() as u64);
                self.note_local_search(trace, now, started, "local");
                vec![GiisAction::Reply {
                    client,
                    reply: GripReply::SearchResult {
                        id,
                        code: ResultCode::Success,
                        entries,
                        referrals: Vec::new(),
                    },
                }]
            }
            GiisMode::Chain { timeout } => {
                self.chain(client, id, spec, requester, now, timeout, false, trace)
            }
            GiisMode::BloomChain { timeout, .. } => {
                self.chain(client, id, spec, requester, now, timeout, true, trace)
            }
        }
    }

    /// Record `search-us` and, when traced, a `giis.search` span for a
    /// search answered without fan-out.
    fn note_local_search(
        &self,
        trace: Option<TraceContext>,
        now: SimTime,
        started: Instant,
        how: &str,
    ) {
        let elapsed = started.elapsed().as_micros() as u64;
        if self.obs.enabled {
            self.obs.search_us.record(elapsed);
        }
        let (Some(sink), Some(ctx)) = (self.obs.sink.as_deref(), trace) else {
            return;
        };
        sink.record(SpanRecord {
            trace: ctx.trace,
            span: sink.next_span(),
            parent: Some(ctx.parent),
            service: self.config.url.to_string(),
            name: "giis.search".into(),
            start: now,
            end: now + SimDuration::from_micros(elapsed),
            outcome: how.to_string(),
        });
    }

    /// Answer a search against `Mds-Vo-name=monitoring`. The directory's
    /// own self-description always contributes; in the chaining modes the
    /// query additionally fans out to every active child — namespace
    /// scoping and Bloom pruning are skipped (children's monitoring
    /// entries live outside their registered namespaces) but the circuit
    /// breaker still applies. Successful answers bypass the result cache
    /// so metrics are never frozen for a TTL.
    fn monitoring_search(
        &mut self,
        client: ClientId,
        id: RequestId,
        spec: SearchSpec,
        requester: Requester,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<GiisAction> {
        if !self.obs.enabled {
            return vec![GiisAction::Reply {
                client,
                reply: GripReply::SearchResult {
                    id,
                    code: ResultCode::NoSuchObject,
                    entries: Vec::new(),
                    referrals: Vec::new(),
                },
            }];
        }
        self.stats.work.bump_first();
        self.stats.monitoring_queries.bump();
        let own = self.monitoring_entries(now);
        let merged: BTreeMap<String, Entry> = own
            .iter()
            .map(|e| (e.dn().to_string(), e.clone()))
            .collect();
        let timeout = match self.config.mode {
            GiisMode::Chain { timeout } | GiisMode::BloomChain { timeout, .. } => Some(timeout),
            GiisMode::Name | GiisMode::Harvest { .. } | GiisMode::Federated { .. } => None,
        };
        let mut targets: Vec<LdapUrl> = Vec::new();
        let mut skipped_by_breaker = false;
        if timeout.is_some() {
            for child in self.active_children(now) {
                if self.breaker_admits(&child, now) {
                    targets.push(child);
                } else {
                    skipped_by_breaker = true;
                }
            }
        }
        self.fan_out(
            client,
            id,
            spec,
            requester,
            now,
            timeout.unwrap_or(SimDuration::from_micros(0)),
            targets,
            merged,
            skipped_by_breaker,
            false,
            trace,
        )
    }

    /// Name-serving answer: one entry per fresh registration, carrying
    /// the service URL; referrals point clients at the providers.
    fn name_answer(
        &self,
        spec: &SearchSpec,
        requester: &Requester,
        now: SimTime,
    ) -> (Vec<Entry>, Vec<LdapUrl>) {
        let mut entries = Vec::new();
        let mut referrals = Vec::new();
        for reg in self.registry.active(now) {
            let ns = &reg.message.namespace;
            let in_scope = match spec.scope {
                Scope::Base => ns == &spec.base,
                Scope::One => ns.is_child_of(&spec.base),
                Scope::Sub => ns.is_under(&spec.base),
            };
            if !in_scope {
                continue;
            }
            let mut e = Entry::new(ns.clone())
                .with_class("registration")
                .with("url", reg.message.service_url.to_string())
                .with("registeredsince", reg.first_seen.micros())
                .with("refreshcount", reg.refresh_count);
            e.normalize_naming_attr();
            let Some(redacted) = self.config.security.policy_map.redact(&e, requester) else {
                continue;
            };
            if !spec.filter.matches(&redacted) {
                continue;
            }
            referrals.push(reg.message.service_url.clone());
            entries.push(redacted.project(&spec.attrs));
            if spec.size_limit != 0 && entries.len() >= spec.size_limit as usize {
                break;
            }
        }
        (entries, referrals)
    }

    /// Answer from the harvested cache. Runs against a point-in-time
    /// snapshot — concurrent harvest integration never tears a result —
    /// and uses the shared-handle search so cached entries reach
    /// redaction without being deep-copied.
    fn local_answer(&self, spec: &SearchSpec, requester: &Requester) -> Vec<Entry> {
        snapshot_answer(
            &self.cache.snapshot(),
            &self.config.security.policy_map,
            spec,
            requester,
        )
    }

    /// Serve the monitoring snapshot, rebuilding it when it has aged past
    /// the refresh interval (soft-state semantics).
    fn monitoring_entries(&self, now: SimTime) -> Arc<Vec<Entry>> {
        if let Some((at, entries)) = self.monitor.read().as_ref() {
            if now.since(*at) < self.config.monitoring_refresh {
                return Arc::clone(entries);
            }
        }
        let built = Arc::new(self.build_monitoring(now));
        *self.monitor.write() = Some((now, Arc::clone(&built)));
        built
    }

    /// Build this directory's self-description: one `mds-service` entry,
    /// one `mds-child` entry per registered child (circuit state, RTT
    /// quantiles), and one `mds-metric` entry per registry instrument,
    /// all under `service=<url>, Mds-Vo-name=monitoring`.
    fn build_monitoring(&self, now: SimTime) -> Vec<Entry> {
        let base =
            metrics::monitoring_base().child(Rdn::new("service", self.config.url.to_string()));
        let s = self.stats.snapshot();
        let mode = match self.config.mode {
            GiisMode::Name => "name",
            GiisMode::Chain { .. } => "chain",
            GiisMode::Harvest { .. } => "harvest",
            GiisMode::BloomChain { .. } => "bloom-chain",
            GiisMode::Federated { .. } => "federated",
        };
        let mut entries = vec![Entry::new(base.clone())
            .with_class("mds-service")
            .with("service-type", "giis")
            .with("mode", mode)
            .with("namespace", self.config.namespace.to_string())
            .with("searches", s.searches)
            .with("local-answers", s.local_answers)
            .with("monitoring-queries", s.monitoring_queries)
            .with("chained-requests", s.chained_requests)
            .with("result-cache-hits", s.result_cache_hits)
            .with("harvests", s.harvests)
            .with("timeouts", s.timeouts)
            .with("breaker-opens", s.breaker_opens)
            .with("breaker-closes", s.breaker_closes)
            .with("breaker-skips", s.breaker_skips)
            .with("entries-returned", s.entries_returned)
            .with("sync-pulls", s.sync_pulls)
            .with("full-syncs", s.full_syncs)
            .with("delta-syncs", s.delta_syncs)
            .with("sync-failures", s.sync_failures)
            .with("children", self.registry.active(now).count() as u64)
            .with("subscriptions", self.subs.len() as u64)];
        // Fleet-worst federation gauges: the laggiest child defines the
        // directory's staleness. Both recover once a sick child is
        // re-admitted and resyncs.
        if self.obs.enabled {
            if let Some(oldest) = self.children.values().filter_map(|s| s.sync_asof).min() {
                self.obs
                    .registry
                    .gauge("sync-lag-us")
                    .set(now.since(oldest).micros());
            }
            if let Some(oldest) = self.children.values().filter_map(|s| s.last_sync).min() {
                self.obs
                    .registry
                    .gauge("last-sync-age-us")
                    .set(now.since(oldest).micros());
            }
        }
        for (url, state) in &self.children {
            let circuit = match state.circuit {
                Circuit::Closed => "closed",
                Circuit::Open { .. } => "open",
                Circuit::HalfOpen => "half-open",
            };
            let r = state.rtt.snapshot();
            let mut ce = Entry::new(base.child(Rdn::new("child", url.clone())))
                .with_class("mds-child")
                .with("circuit", circuit)
                .with("consec-failures", u64::from(state.consec_failures))
                .with("bound", if state.bound { "TRUE" } else { "FALSE" })
                .with("harvested-entries", state.harvested.len() as u64)
                .with("rtt-count", r.count)
                .with("rtt-p50-us", r.quantile(0.50))
                .with("rtt-p95-us", r.quantile(0.95))
                .with("rtt-p99-us", r.quantile(0.99))
                .with("rtt-max-us", r.max);
            if let Some(cookie) = state.sync_cookie {
                ce = ce
                    .with("sync-epoch", cookie.epoch)
                    .with("sync-cookie", cookie.version);
            }
            if let Some(asof) = state.sync_asof {
                ce = ce
                    .with("sync-asof-us", asof.micros())
                    .with("sync-lag-us", now.since(asof).micros());
            }
            if let Some(at) = state.last_sync {
                ce = ce.with("last-sync-age-us", now.since(at).micros());
            }
            entries.push(ce);
        }
        entries.extend(self.obs.registry.export_entries(&base));
        entries
    }

    /// The equality tokens a child must contain for this filter to
    /// possibly match there: conservative — only top-level `Eq` terms of
    /// the filter (or of a top-level `And`) are usable for pruning.
    fn prunable_tokens(filter: &Filter) -> Vec<String> {
        match filter {
            Filter::Eq(a, v) => vec![attr_token(a, v)],
            Filter::And(fs) => fs
                .iter()
                .filter_map(|f| match f {
                    Filter::Eq(a, v) => Some(attr_token(a, v)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Circuit-breaker gate for one child of a fan-out. Flips a
    /// cooled-down open circuit to half-open (this query doubles as the
    /// probe); returns whether the child may be consulted.
    fn breaker_admits(&mut self, child: &LdapUrl, now: SimTime) -> bool {
        if self.config.breaker.is_none() {
            return true;
        }
        let Some(state) = self.children.get_mut(&child.to_string()) else {
            return true;
        };
        match state.circuit {
            Circuit::Closed => true,
            Circuit::Open { until } if now >= until => {
                state.circuit = Circuit::HalfOpen;
                self.stats.breaker_probes.bump();
                true
            }
            Circuit::Open { .. } | Circuit::HalfOpen => {
                // At most one in-flight probe per child.
                self.stats.breaker_skips.bump();
                false
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn chain(
        &mut self,
        client: ClientId,
        id: RequestId,
        spec: SearchSpec,
        requester: Requester,
        now: SimTime,
        timeout: SimDuration,
        bloom_route: bool,
        trace: Option<TraceContext>,
    ) -> Vec<GiisAction> {
        // Result cache (§10.4): a fresh identical query from the same
        // requester is answered locally. A hit accounts for the search
        // itself (see `result_cache_probe`); every other path below is
        // accounted by `fan_out`.
        let key = cache_key(&spec, &requester);
        if let Some(ttl) = self.config.result_cache_ttl {
            if let Some(reply) =
                result_cache_probe(&self.result_cache, &self.stats, &key, ttl, id, now)
            {
                self.note_local_search(trace, now, Instant::now(), "cache-hit");
                return vec![GiisAction::Reply { client, reply }];
            }
        }
        self.stats.work.bump_first();

        // Namespace scoping (Figure 5): only children whose registered
        // namespace intersects the search base are consulted.
        let mut targets: Vec<LdapUrl> = Vec::new();
        let mut skipped_by_breaker = false;
        let tokens = if bloom_route {
            Self::prunable_tokens(&spec.filter)
        } else {
            Vec::new()
        };
        let candidates: Vec<LdapUrl> = self
            .registry
            .active(now)
            .filter(|reg| {
                let ns = &reg.message.namespace;
                ns.is_under(&spec.base) || spec.base.is_under(ns)
            })
            .map(|reg| reg.message.service_url.clone())
            .collect();
        for child in candidates {
            if !tokens.is_empty() {
                if let Some(state) = self.children.get(&child.to_string()) {
                    if let Some(bloom) = &state.bloom {
                        if tokens.iter().any(|t| !bloom.may_contain(t)) {
                            self.stats.bloom_pruned.bump();
                            continue;
                        }
                    }
                }
            }
            // Circuit breaker: open children are skipped instantly
            // (answer marked partial) instead of burning the deadline;
            // once the cooldown lapses, this query doubles as the
            // half-open probe.
            if self.breaker_admits(&child, now) {
                targets.push(child);
            } else {
                skipped_by_breaker = true;
            }
        }

        self.fan_out(
            client,
            id,
            spec,
            requester,
            now,
            timeout,
            targets,
            BTreeMap::new(),
            skipped_by_breaker,
            true,
            trace,
        )
    }

    /// Shared fan-out tail of `chain` and `monitoring_search`: register
    /// the pending query (pre-seeded with `merged`), send one chained
    /// request per target — with derived trace contexts when traced —
    /// and finalize immediately when there is nothing to wait for.
    #[allow(clippy::too_many_arguments)]
    fn fan_out(
        &mut self,
        client: ClientId,
        id: RequestId,
        spec: SearchSpec,
        requester: Requester,
        now: SimTime,
        timeout: SimDuration,
        targets: Vec<LdapUrl>,
        merged: BTreeMap<String, Entry>,
        skipped_by_breaker: bool,
        cacheable: bool,
        trace: Option<TraceContext>,
    ) -> Vec<GiisAction> {
        let key = cache_key(&spec, &requester);
        let query = self.next_query;
        self.next_query += 1;
        // Allocate this query's own span up front: chained children
        // parent onto it, and the context each child receives descends
        // from it.
        let own_span = match (self.obs.sink.as_deref(), trace) {
            (Some(sink), Some(_)) => Some(sink.next_span()),
            _ => None,
        };
        let mut actions = Vec::with_capacity(targets.len() + 1);
        let mut outstanding = Vec::with_capacity(targets.len());
        for child in targets {
            let out_id = self.next_outbound;
            self.next_outbound += 1;
            let child_span = match (self.obs.sink.as_deref(), trace) {
                (Some(sink), Some(_)) => Some(sink.next_span()),
                _ => None,
            };
            let child_trace = match (trace, child_span) {
                (Some(ctx), Some(span)) => Some(TraceContext {
                    trace: ctx.trace,
                    parent: span,
                }),
                _ => None,
            };
            self.outbound.insert(
                out_id,
                OutboundKind::Chained {
                    query,
                    child: child.clone(),
                    sent: now,
                    span: child_span,
                },
            );
            self.stats.chained_requests.bump();
            outstanding.push(out_id);
            actions.push(GiisAction::SendRequest {
                to: child,
                request: GripRequest::Search {
                    id: out_id,
                    spec: spec.clone(),
                },
                trace: child_trace,
            });
        }
        let retry_at = self
            .config
            .breaker
            .filter(|b| b.retry)
            .map(|_| now + SimDuration::from_micros(timeout.micros() / 2));
        let done = outstanding.is_empty();
        self.pending.insert(
            query,
            PendingQuery {
                client,
                client_req: id,
                cache_key: key,
                outstanding,
                merged,
                referrals: Vec::new(),
                partial: skipped_by_breaker,
                degraded: false,
                deadline: now + timeout,
                retry_at,
                spec,
                requester,
                // An instant no-children answer is never cached: a child
                // registering a moment later should become visible at
                // the next query, not a TTL later.
                cacheable: cacheable && !done,
                started_at: now,
                trace,
                span: own_span,
            },
        );
        if done {
            // Nothing to wait for (no eligible children, or a
            // local-mode monitoring search): answer immediately through
            // the same finalize path.
            actions.extend(self.finalize(query, now));
        }
        actions
    }

    /// Handle a GRIP reply arriving from a child server.
    pub fn handle_reply(
        &mut self,
        from: &LdapUrl,
        reply: GripReply,
        now: SimTime,
    ) -> Vec<GiisAction> {
        let out_id = reply.id();
        let Some(kind) = self.outbound.remove(&out_id) else {
            return Vec::new(); // late reply for an expired query
        };
        match kind {
            OutboundKind::HarvestBind { child } => {
                // Whether or not the bind succeeded, proceed to harvest:
                // a failed bind just yields the child's anonymous view.
                if let GripReply::BindResult { ok, .. } = reply {
                    if let Some(state) = self.children.get_mut(&child.to_string()) {
                        state.bound = ok;
                    }
                }
                self.issue_harvest(child)
            }
            OutboundKind::Harvest { child } => {
                if let GripReply::SearchResult { entries, .. } = reply {
                    self.integrate_harvest(&child, entries, now);
                }
                Vec::new()
            }
            OutboundKind::SyncPull { child, sent } => {
                match reply {
                    GripReply::SyncDelta {
                        full,
                        epoch,
                        version,
                        at,
                        entries,
                        deletes,
                        ..
                    } => {
                        self.record_child_success(&child);
                        if self.obs.enabled {
                            if let Some(state) = self.children.get(&child.to_string()) {
                                state.rtt.record(now.since(sent).micros());
                            }
                        }
                        self.integrate_sync(
                            &child, full, epoch, version, at, entries, deletes, now,
                        );
                    }
                    _ => {
                        // Declined (or nonsense): scored against the
                        // child's circuit like an unanswered pull.
                        self.stats.sync_failures.bump();
                        self.record_child_failure(&child, now);
                    }
                }
                Vec::new()
            }
            OutboundKind::Chained {
                query,
                child,
                sent,
                span,
            } => {
                debug_assert_eq!(&child, from, "reply source mismatch");
                // Any reply — whatever its code — proves the child is
                // reachable: reset its failure streak and close its
                // circuit (a successful half-open probe re-admits it).
                self.record_child_success(&child);
                if self.obs.enabled {
                    if let Some(state) = self.children.get(&child.to_string()) {
                        state.rtt.record(now.since(sent).micros());
                    }
                }
                self.note_chain_span(query, &child, sent, span, now, reply_outcome(&reply));
                let Some(p) = self.pending.get_mut(&query) else {
                    return Vec::new();
                };
                p.outstanding.retain(|&o| o != out_id);
                if let GripReply::SearchResult {
                    code,
                    entries,
                    referrals,
                    ..
                } = reply
                {
                    match code {
                        ResultCode::InsufficientAccess => {
                            // The child will not tell *us*; point the
                            // client at it directly (§10.4's referral
                            // fallback in the absence of delegation).
                            p.referrals.push(child);
                        }
                        ResultCode::PartialResults | ResultCode::Unavailable => {
                            p.partial = true;
                        }
                        ResultCode::StaleResults => {
                            p.degraded = true;
                        }
                        _ => {}
                    }
                    for e in entries {
                        match p.merged.get_mut(&e.dn().to_string()) {
                            Some(existing) => existing.merge_from(&e),
                            None => {
                                p.merged.insert(e.dn().to_string(), e);
                            }
                        }
                    }
                    p.referrals.extend(referrals);
                }
                if self
                    .pending
                    .get(&query)
                    .is_some_and(|p| p.outstanding.is_empty())
                {
                    return self.finalize(query, now);
                }
                Vec::new()
            }
        }
    }

    /// Record a `chain:<child>` span for one leg of a traced fan-out
    /// (reply arrival or timeout).
    fn note_chain_span(
        &self,
        query: u64,
        child: &LdapUrl,
        sent: SimTime,
        span: Option<u64>,
        now: SimTime,
        outcome: &str,
    ) {
        let (Some(sink), Some(span)) = (self.obs.sink.as_deref(), span) else {
            return;
        };
        let Some(p) = self.pending.get(&query) else {
            return;
        };
        let Some(ctx) = p.trace else {
            return;
        };
        sink.record(SpanRecord {
            trace: ctx.trace,
            span,
            parent: p.span,
            service: self.config.url.to_string(),
            name: format!("chain:{child}"),
            start: sent,
            end: now,
            outcome: outcome.to_string(),
        });
    }

    /// Breaker bookkeeping: a reply arrived from `child`.
    fn record_child_success(&mut self, child: &LdapUrl) {
        if self.config.breaker.is_none() {
            return;
        }
        if let Some(state) = self.children.get_mut(&child.to_string()) {
            state.consec_failures = 0;
            if state.circuit != Circuit::Closed {
                state.circuit = Circuit::Closed;
                self.stats.breaker_closes.bump();
            }
        }
    }

    /// Breaker bookkeeping: a chained request to `child` timed out.
    fn record_child_failure(&mut self, child: &LdapUrl, now: SimTime) {
        let Some(bk) = self.config.breaker else {
            return;
        };
        let Some(state) = self.children.get_mut(&child.to_string()) else {
            return;
        };
        match state.circuit {
            Circuit::HalfOpen => {
                // The probe went unanswered: rest for another cooldown.
                state.circuit = Circuit::Open {
                    until: now + bk.cooldown,
                };
                self.stats.breaker_reopens.bump();
            }
            Circuit::Open { .. } => {}
            Circuit::Closed => {
                state.consec_failures += 1;
                if state.consec_failures >= bk.failure_threshold {
                    state.circuit = Circuit::Open {
                        until: now + bk.cooldown,
                    };
                    self.stats.breaker_opens.bump();
                }
            }
        }
    }

    fn integrate_harvest(&mut self, child: &LdapUrl, entries: Vec<Entry>, now: SimTime) {
        let bits_per_element = match self.config.mode {
            GiisMode::BloomChain {
                bits_per_element, ..
            } => Some(bits_per_element),
            _ => None,
        };
        let key = child.to_string();
        if !self.children.contains_key(&key) {
            return;
        }
        if self.persist.is_some() {
            self.wal_log(&WalOp::Harvest {
                child: child.clone(),
                entries: entries.clone(),
                now,
            });
        }
        let Some(state) = self.children.get_mut(&key) else {
            return;
        };
        let stale: Vec<Dn> = state.harvested.drain(..).collect();
        let mut bloom = bits_per_element.map(|b| {
            let tokens: usize = entries.iter().map(Entry::attr_count).sum();
            BloomFilter::for_capacity(tokens.max(8), b)
        });
        for e in &entries {
            if let Some(bloom) = bloom.as_mut() {
                for (attr, values) in e.attrs() {
                    for v in values {
                        bloom.insert(&attr_token(attr, v.as_str()));
                    }
                }
            }
            state.harvested.push(e.dn().clone());
        }
        state.bloom = bloom;
        state.last_harvest = Some(now);
        // One published snapshot per harvest: queries see either the
        // child's old entry set or its new one, never a mix.
        self.cache.mutate(|dit| {
            for dn in &stale {
                dit.delete(dn);
            }
            for e in entries {
                dit.upsert(e);
            }
        });
    }

    fn finalize(&mut self, query: u64, now: SimTime) -> Vec<GiisAction> {
        let Some(p) = self.pending.remove(&query) else {
            return Vec::new();
        };
        let mut entries = Vec::new();
        for e in p.merged.into_values() {
            // The GIIS applies its own policy on top of whatever the
            // children released to it.
            let Some(redacted) = self.config.security.policy_map.redact(&e, &p.requester) else {
                continue;
            };
            if !p.spec.filter.matches(&redacted) {
                continue;
            }
            entries.push(redacted.project(&p.spec.attrs));
            if p.spec.size_limit != 0 && entries.len() >= p.spec.size_limit as usize {
                break;
            }
        }
        let code = if p.partial || !p.outstanding.is_empty() {
            ResultCode::PartialResults
        } else if p.degraded {
            // Complete, but some child served last-known-good entries.
            ResultCode::StaleResults
        } else {
            ResultCode::Success
        };
        self.stats.entries_returned.add(entries.len() as u64);
        self.stats.referrals_issued.add(p.referrals.len() as u64);
        if self.obs.enabled {
            self.obs.search_us.record(now.since(p.started_at).micros());
        }
        if let (Some(sink), Some(ctx), Some(span)) = (self.obs.sink.as_deref(), p.trace, p.span) {
            sink.record(SpanRecord {
                trace: ctx.trace,
                span,
                parent: Some(ctx.parent),
                service: self.config.url.to_string(),
                name: "giis.search".into(),
                start: p.started_at,
                end: now,
                outcome: code.label().into(),
            });
        }
        if p.cacheable && self.config.result_cache_ttl.is_some() && code == ResultCode::Success {
            // Partial answers are never cached: a healed partition should
            // become visible at the next query, not a TTL later.
            self.result_cache.write().insert(
                p.cache_key,
                CachedResult {
                    at: now,
                    code,
                    entries: entries.clone(),
                    referrals: p.referrals.clone(),
                },
            );
        }
        vec![GiisAction::Reply {
            client: p.client,
            reply: GripReply::SearchResult {
                id: p.client_req,
                code,
                entries,
                referrals: p.referrals,
            },
        }]
    }

    /// Evaluate a subscription's spec against local state.
    fn subscription_snapshot(
        &self,
        spec: &SearchSpec,
        requester: &Requester,
        now: SimTime,
    ) -> Vec<Entry> {
        match self.config.mode {
            GiisMode::Name => self.name_answer(spec, requester, now).0,
            _ => self.local_answer(spec, requester),
        }
    }

    fn note_delivery(&mut self, client: ClientId, id: RequestId, entries: &[Entry]) {
        let digest = result_digest(entries);
        for (c, i, sub) in self.subs.iter_mut() {
            if c == client && i == id {
                sub.last_digest = Some(digest);
            }
        }
    }

    /// Evaluate due subscriptions; returns the updates to deliver.
    fn subscription_updates(&mut self, now: SimTime) -> Vec<GiisAction> {
        let mut due: Vec<(
            ClientId,
            RequestId,
            SearchSpec,
            SubscriptionMode,
            Option<u64>,
        )> = Vec::new();
        for (client, id, sub) in self.subs.iter_mut() {
            due.push((client, id, sub.spec.clone(), sub.mode, sub.last_digest));
        }
        let mut out = Vec::new();
        for (client, id, spec, mode, last_digest) in due {
            let requester = self
                .sub_requester
                .get(&(client, id))
                .cloned()
                .unwrap_or_else(Requester::anonymous);
            match mode {
                SubscriptionMode::Periodic(period) => {
                    let due_at = self.sub_next_due.get(&(client, id)).copied().unwrap_or(now);
                    if now < due_at {
                        continue;
                    }
                    let entries = self.subscription_snapshot(&spec, &requester, now);
                    self.note_delivery(client, id, &entries);
                    self.sub_next_due.insert((client, id), due_at + period);
                    out.push(GiisAction::Reply {
                        client,
                        reply: GripReply::Update { id, entries },
                    });
                }
                SubscriptionMode::OnChange => {
                    let entries = self.subscription_snapshot(&spec, &requester, now);
                    if last_digest == Some(result_digest(&entries)) {
                        continue;
                    }
                    self.note_delivery(client, id, &entries);
                    out.push(GiisAction::Reply {
                        client,
                        reply: GripReply::Update { id, entries },
                    });
                }
            }
        }
        out
    }

    /// Advance timers: registry sweep, parent registrations, harvest
    /// refreshes, fan-out deadlines, and subscription deliveries. Call at
    /// least as often as the finest deadline granularity required.
    pub fn tick(&mut self, now: SimTime) -> Vec<GiisAction> {
        let mut actions = Vec::new();

        // Keep the monitoring snapshot warm (soft-state refresh).
        if self.obs.enabled {
            let due = match self.monitor.read().as_ref() {
                Some((at, _)) => now.since(*at) >= self.config.monitoring_refresh,
                None => true,
            };
            if due {
                let built = Arc::new(self.build_monitoring(now));
                *self.monitor.write() = Some((now, built));
            }
        }

        // Soft-state sweep: purge expired children and their cache rows
        // (one published snapshot for the whole sweep). Journaled only
        // when something *can* expire — sweeps are idempotent on replay,
        // but an unconditional record per tick would bloat the WAL.
        if self.persist.is_some()
            && self
                .registry
                .next_possible_expiry()
                .is_some_and(|t| t <= now)
        {
            self.wal_log(&WalOp::Sweep { now });
        }
        let mut purged: Vec<Dn> = Vec::new();
        for url in self.registry.sweep(now) {
            self.stats.expirations.bump();
            if let Some(state) = self.children.remove(&url.to_string()) {
                purged.extend(state.harvested);
            }
        }
        if !purged.is_empty() {
            self.cache.mutate(|dit| {
                for dn in &purged {
                    dit.delete(dn);
                }
            });
        }

        // Result-cache expiry (bound memory; stale rows are useless).
        if let Some(ttl) = self.config.result_cache_ttl {
            self.result_cache
                .write()
                .retain(|_, c| now.since(c.at) < ttl);
        }

        // Own registrations to parent directories.
        for (dir, msg) in self.agent.due_messages(now) {
            actions.push(GiisAction::SendGrrp {
                to: dir,
                message: msg,
            });
        }

        // Harvest refreshes.
        if let Some(refresh) = self.harvest_refresh() {
            let due: Vec<LdapUrl> = self
                .registry
                .active(now)
                .filter(|reg| {
                    self.children
                        .get(&reg.message.service_url.to_string())
                        .is_none_or(|s| s.last_harvest.is_none_or(|at| now.since(at) >= refresh))
                })
                .map(|reg| reg.message.service_url.clone())
                .collect();
            for child in due {
                // Mark eagerly so a slow child is not re-harvested every
                // tick while its reply is in flight.
                if let Some(state) = self.children.get_mut(&child.to_string()) {
                    state.last_harvest = Some(now);
                }
                actions.extend(self.issue_harvest(child));
            }
        }

        // Federation sync pulls: abandon overdue pulls (scored against
        // the child's circuit), then pull every due child the breaker
        // admits — a cooled-down open circuit flips to half-open and
        // this pull doubles as the probe.
        if let GiisMode::Federated { interval, deadline } = self.config.mode {
            let overdue: Vec<(u64, LdapUrl)> = self
                .outbound
                .iter()
                .filter_map(|(&id, kind)| match kind {
                    OutboundKind::SyncPull { child, sent } if now.since(*sent) >= deadline => {
                        Some((id, child.clone()))
                    }
                    _ => None,
                })
                .collect();
            for (id, child) in overdue {
                self.outbound.remove(&id);
                self.stats.sync_failures.bump();
                self.record_child_failure(&child, now);
            }
            let due: Vec<LdapUrl> = self
                .registry
                .active(now)
                .filter(|reg| {
                    self.children
                        .get(&reg.message.service_url.to_string())
                        .is_none_or(|s| s.last_harvest.is_none_or(|at| now.since(at) >= interval))
                })
                .map(|reg| reg.message.service_url.clone())
                .collect();
            for child in due {
                if self.sync_inflight(&child) || !self.breaker_admits(&child, now) {
                    continue;
                }
                if let Some(state) = self.children.get_mut(&child.to_string()) {
                    state.last_harvest = Some(now);
                }
                actions.extend(self.issue_sync_pull(child, now));
            }
        }

        // Subscription deliveries (local modes only; the table is empty
        // otherwise).
        actions.extend(self.subscription_updates(now));

        // In-deadline retry: re-ask children still unanswered at the
        // deadline midpoint, so an isolated lost message does not turn
        // into a partial answer.
        let retry_due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.retry_at.is_some_and(|at| now >= at) && now < p.deadline)
            .map(|(&q, _)| q)
            .collect();
        for query in retry_due {
            let Some(p) = self.pending.get_mut(&query) else {
                continue;
            };
            p.retry_at = None;
            let spec = p.spec.clone();
            let tctx = p.trace;
            let old = std::mem::take(&mut p.outstanding);
            let mut fresh = Vec::with_capacity(old.len());
            let mut sends = Vec::with_capacity(old.len());
            for out_id in old {
                match self.outbound.remove(&out_id) {
                    Some(OutboundKind::Chained {
                        query: q,
                        child,
                        sent,
                        span,
                    }) => {
                        let new_id = self.next_outbound;
                        self.next_outbound += 1;
                        // The retry reuses the leg's span (and keeps the
                        // original send time), so its RTT and span cover
                        // first-send to eventual reply.
                        self.outbound.insert(
                            new_id,
                            OutboundKind::Chained {
                                query: q,
                                child: child.clone(),
                                sent,
                                span,
                            },
                        );
                        self.stats.chain_retries.bump();
                        fresh.push(new_id);
                        sends.push(GiisAction::SendRequest {
                            to: child,
                            request: GripRequest::Search {
                                id: new_id,
                                spec: spec.clone(),
                            },
                            trace: match (tctx, span) {
                                (Some(ctx), Some(s)) => Some(TraceContext {
                                    trace: ctx.trace,
                                    parent: s,
                                }),
                                _ => None,
                            },
                        });
                    }
                    Some(other) => {
                        self.outbound.insert(out_id, other);
                        fresh.push(out_id);
                    }
                    None => {}
                }
            }
            p.outstanding = fresh;
            actions.extend(sends);
        }

        // Expired fan-outs answer partially; each unanswered child is a
        // timeout the breaker counts against it.
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&q, _)| q)
            .collect();
        for query in expired {
            self.stats.timeouts.bump();
            let mut unanswered: Vec<(LdapUrl, SimTime, Option<u64>)> = Vec::new();
            if let Some(p) = self.pending.get_mut(&query) {
                for out_id in std::mem::take(&mut p.outstanding) {
                    if let Some(OutboundKind::Chained {
                        child, sent, span, ..
                    }) = self.outbound.remove(&out_id)
                    {
                        unanswered.push((child, sent, span));
                    }
                }
                p.partial = true;
            }
            for (child, sent, span) in unanswered {
                self.note_chain_span(query, &child, sent, span, now, "timeout");
                self.record_child_failure(&child, now);
            }
            actions.extend(self.finalize(query, now));
        }

        // Snapshot on cadence: compact the WAL into a fresh checkpoint.
        if self.persist.as_ref().is_some_and(Journal::wants_snapshot) {
            self.snapshot_persist();
        }

        actions
    }

    /// Forget a disconnected client's session state.
    pub fn drop_client(&mut self, client: ClientId) {
        self.sessions.write().remove(&client);
        self.subs.drop_subscriber(client);
        self.sub_requester.retain(|(c, _), _| *c != client);
        self.sub_next_due.retain(|(c, _), _| *c != client);
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_netsim::{ms, secs};
    use gis_proto::TraceId;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + secs(s)
    }

    fn url(host: &str) -> LdapUrl {
        LdapUrl::server(host)
    }

    fn reg(host: &str, ns: &str, now: SimTime) -> GrrpMessage {
        GrrpMessage::register(url(host), Dn::parse(ns).unwrap(), now, secs(90))
    }

    fn chaining_giis() -> Giis {
        Giis::new(
            GiisConfig::chaining(url("giis.vo"), Dn::root()),
            secs(30),
            secs(90),
        )
    }

    fn search_actions(giis: &mut Giis, base: &str, filter: &str, now: SimTime) -> Vec<GiisAction> {
        giis.handle_request(
            1,
            GripRequest::Search {
                id: 100,
                spec: SearchSpec::subtree(Dn::parse(base).unwrap(), Filter::parse(filter).unwrap()),
            },
            now,
        )
    }

    #[test]
    fn registration_and_expiry() {
        let mut giis = chaining_giis();
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=b", t(0)), t(0));
        assert_eq!(giis.active_children(t(10)).len(), 2);
        // No refresh: both expire at t=90.
        giis.tick(t(100));
        assert_eq!(giis.active_children(t(100)).len(), 0);
        assert_eq!(giis.stats().expirations, 2);
    }

    #[test]
    fn accept_policy_namespace() {
        let mut config = GiisConfig::chaining(url("giis.o1"), Dn::parse("o=O1").unwrap());
        config.accept = AcceptPolicy::NamespaceUnder(Dn::parse("o=O1").unwrap());
        let mut giis = Giis::new(config, secs(30), secs(90));
        giis.handle_grrp(reg("gris.in", "hn=a, o=O1", t(0)), t(0));
        giis.handle_grrp(reg("gris.out", "hn=b, o=O2", t(0)), t(0));
        assert_eq!(giis.active_children(t(1)).len(), 1);
        assert_eq!(giis.stats().grrp_rejected, 1);
    }

    #[test]
    fn accept_policy_subjects() {
        let mut config = GiisConfig::chaining(url("giis"), Dn::root());
        config.accept = AcceptPolicy::Subjects(vec!["/CN=trusted".into()]);
        let mut giis = Giis::new(config, secs(30), secs(90));
        giis.handle_grrp(
            reg("gris.x", "hn=x", t(0)).with_subject("/CN=trusted"),
            t(0),
        );
        giis.handle_grrp(reg("gris.y", "hn=y", t(0)).with_subject("/CN=rogue"), t(0));
        giis.handle_grrp(reg("gris.z", "hn=z", t(0)), t(0)); // unsigned
        assert_eq!(giis.active_children(t(1)).len(), 1);
        assert_eq!(giis.stats().grrp_rejected, 2);
    }

    #[test]
    fn chaining_fans_out_and_merges() {
        let mut giis = chaining_giis();
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=b", t(0)), t(0));

        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(1));
        let sends: Vec<&GiisAction> = actions
            .iter()
            .filter(|a| matches!(a, GiisAction::SendRequest { .. }))
            .collect();
        assert_eq!(sends.len(), 2);

        // Children reply.
        let mut out_ids = Vec::new();
        for a in &actions {
            if let GiisAction::SendRequest { request, .. } = a {
                out_ids.push(request.id());
            }
        }
        let e_a = Entry::at("hn=a").unwrap().with_class("computer");
        let replies = giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_ids[0],
                code: ResultCode::Success,
                entries: vec![e_a],
                referrals: vec![],
            },
            t(1),
        );
        assert!(replies.is_empty(), "still waiting for gris.b");
        let e_b = Entry::at("hn=b").unwrap().with_class("computer");
        let replies = giis.handle_reply(
            &url("gris.b"),
            GripReply::SearchResult {
                id: out_ids[1],
                code: ResultCode::Success,
                entries: vec![e_b],
                referrals: vec![],
            },
            t(1),
        );
        assert_eq!(replies.len(), 1);
        match &replies[0] {
            GiisAction::Reply {
                client,
                reply: GripReply::SearchResult { code, entries, .. },
            } => {
                assert_eq!(*client, 1);
                assert_eq!(*code, ResultCode::Success);
                assert_eq!(entries.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn namespace_scoping_routes_fan_out() {
        let mut giis = chaining_giis();
        giis.handle_grrp(reg("gris.o1", "o=O1", t(0)), t(0));
        giis.handle_grrp(reg("gris.o2", "o=O2", t(0)), t(0));
        // A search scoped to o=O1 reaches only that child (Figure 5).
        let actions = search_actions(&mut giis, "o=O1", "(objectclass=*)", t(1));
        let targets: Vec<&LdapUrl> = actions
            .iter()
            .filter_map(|a| match a {
                GiisAction::SendRequest { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![&url("gris.o1")]);
    }

    #[test]
    fn timeout_yields_partial_results() {
        let mut giis = chaining_giis();
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=b", t(0)), t(0));
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(1));
        let out_ids: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                GiisAction::SendRequest { request, .. } => Some(request.id()),
                _ => None,
            })
            .collect();
        // Only gris.a answers; gris.b is partitioned away.
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_ids[0],
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=a").unwrap().with_class("computer")],
                referrals: vec![],
            },
            t(1),
        );
        // Deadline (2s default) passes.
        let actions = giis.tick(t(4));
        assert_eq!(giis.stats().timeouts, 1);
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::PartialResults);
                assert_eq!(entries.len(), 1, "partial view still served");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A very late reply from gris.b is dropped harmlessly.
        let late = giis.handle_reply(
            &url("gris.b"),
            GripReply::SearchResult {
                id: out_ids[1],
                code: ResultCode::Success,
                entries: vec![],
                referrals: vec![],
            },
            t(5),
        );
        assert!(late.is_empty());
    }

    #[test]
    fn insufficient_access_becomes_referral() {
        let mut giis = chaining_giis();
        giis.handle_grrp(reg("gris.private", "hn=p", t(0)), t(0));
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(1));
        let out_id = match &actions[0] {
            GiisAction::SendRequest { request, .. } => request.id(),
            other => panic!("unexpected {other:?}"),
        };
        let replies = giis.handle_reply(
            &url("gris.private"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::InsufficientAccess,
                entries: vec![],
                referrals: vec![],
            },
            t(1),
        );
        match &replies[0] {
            GiisAction::Reply {
                reply: GripReply::SearchResult { referrals, .. },
                ..
            } => assert_eq!(referrals, &vec![url("gris.private")]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(giis.stats().referrals_issued, 1);
    }

    #[test]
    fn name_mode_answers_locally_with_referrals() {
        let mut config = GiisConfig::chaining(url("giis.names"), Dn::root());
        config.mode = GiisMode::Name;
        let mut giis = Giis::new(config, secs(30), secs(90));
        giis.handle_grrp(reg("gris.a", "hn=a, o=O1", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=b, o=O2", t(0)), t(0));

        let actions = search_actions(&mut giis, "o=O1", "(objectclass=registration)", t(1));
        match &actions[..] {
            [GiisAction::Reply {
                reply:
                    GripReply::SearchResult {
                        code,
                        entries,
                        referrals,
                        ..
                    },
                ..
            }] => {
                assert_eq!(*code, ResultCode::Success);
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].get_str("url"), Some("ldap://gris.a:389"));
                assert_eq!(referrals, &vec![url("gris.a")]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(giis.stats().local_answers, 1);
        assert_eq!(giis.stats().chained_requests, 0);
    }

    #[test]
    fn harvest_mode_builds_and_serves_cache() {
        let mut config = GiisConfig::chaining(url("giis.h"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(60) };
        let mut giis = Giis::new(config, secs(30), secs(90));

        // Registration triggers an immediate harvest query.
        let actions = giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        let out_id = match &actions[..] {
            [GiisAction::SendRequest { to, request, .. }] => {
                assert_eq!(to, &url("gris.a"));
                request.id()
            }
            other => panic!("expected harvest, got {other:?}"),
        };
        assert_eq!(giis.stats().harvests, 1);

        // Child returns its subtree.
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::Success,
                entries: vec![
                    Entry::at("hn=a")
                        .unwrap()
                        .with_class("computer")
                        .with("system", "linux"),
                    Entry::at("perf=load, hn=a")
                        .unwrap()
                        .with_class("perf")
                        .with("load5", 0.3f64),
                ],
                referrals: vec![],
            },
            t(0),
        );
        assert_eq!(giis.cached_entries(), 2);

        // Searches are answered locally.
        let actions = search_actions(&mut giis, "", "(system=linux)", t(1));
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { entries, .. },
                ..
            }] => assert_eq!(entries.len(), 1),
            other => panic!("unexpected {other:?}"),
        }

        // Expiry purges the harvested rows.
        giis.tick(t(100));
        assert_eq!(giis.cached_entries(), 0);
    }

    #[test]
    fn harvest_refresh_reissues_queries() {
        let mut config = GiisConfig::chaining(url("giis.h"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(60) };
        let mut giis = Giis::new(config, secs(10), secs(300));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        assert_eq!(giis.stats().harvests, 1);
        // Keep the registration alive and advance past the refresh.
        giis.handle_grrp(reg("gris.a", "hn=a", t(50)), t(50));
        giis.tick(t(30));
        assert_eq!(giis.stats().harvests, 1, "not due yet");
        giis.tick(t(61));
        assert_eq!(giis.stats().harvests, 2, "refresh due");
    }

    #[test]
    fn bloom_routing_prunes_children() {
        let mut config = GiisConfig::chaining(url("giis.b"), Dn::root());
        config.mode = GiisMode::BloomChain {
            timeout: ms(2000),
            refresh: secs(60),
            bits_per_element: 10,
        };
        let mut giis = Giis::new(config, secs(30), secs(300));

        // Register two children and complete their harvests.
        for (host, ns, system) in [("gris.a", "hn=a", "linux"), ("gris.b", "hn=b", "irix")] {
            let actions = giis.handle_grrp(reg(host, ns, t(0)), t(0));
            let out_id = match &actions[..] {
                [GiisAction::SendRequest { request, .. }] => request.id(),
                other => panic!("expected harvest, got {other:?}"),
            };
            giis.handle_reply(
                &url(host),
                GripReply::SearchResult {
                    id: out_id,
                    code: ResultCode::Success,
                    entries: vec![Entry::at(ns)
                        .unwrap()
                        .with_class("computer")
                        .with("system", system)],
                    referrals: vec![],
                },
                t(0),
            );
        }

        // An equality query for linux must go only to gris.a.
        let actions = search_actions(&mut giis, "", "(system=linux)", t(1));
        let targets: Vec<&LdapUrl> = actions
            .iter()
            .filter_map(|a| match a {
                GiisAction::SendRequest { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![&url("gris.a")]);
        assert_eq!(giis.stats().bloom_pruned, 1);

        // A presence query cannot be pruned: both children consulted.
        let actions = search_actions(&mut giis, "", "(system=*)", t(1));
        let sends = actions
            .iter()
            .filter(|a| matches!(a, GiisAction::SendRequest { .. }))
            .count();
        assert_eq!(sends, 2);
    }

    #[test]
    fn result_cache_short_circuits_repeat_queries() {
        let mut config = GiisConfig::chaining(url("giis.cached"), Dn::root());
        config.result_cache_ttl = Some(secs(10));
        let mut giis = Giis::new(config, secs(30), secs(300));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));

        // First query fans out.
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(1));
        let out_id = match &actions[0] {
            GiisAction::SendRequest { request, .. } => request.id(),
            other => panic!("unexpected {other:?}"),
        };
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=a").unwrap().with_class("computer")],
                referrals: vec![],
            },
            t(1),
        );
        assert_eq!(giis.stats().chained_requests, 1);

        // Second identical query inside the TTL: answered locally.
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(5));
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { entries, .. },
                ..
            }] => assert_eq!(entries.len(), 1),
            other => panic!("expected cached reply, got {other:?}"),
        }
        assert_eq!(giis.stats().chained_requests, 1, "no second fan-out");
        assert_eq!(giis.stats().result_cache_hits, 1);

        // A *different* query is not served from the cache.
        let actions = search_actions(&mut giis, "", "(objectclass=computer)", t(6));
        assert!(matches!(actions[0], GiisAction::SendRequest { .. }));

        // Past the TTL the original query chains again.
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(20));
        assert!(matches!(actions[0], GiisAction::SendRequest { .. }));
    }

    #[test]
    fn result_cache_never_stores_partial_results() {
        let mut config = GiisConfig::chaining(url("giis.cached"), Dn::root());
        config.result_cache_ttl = Some(secs(100));
        let mut giis = Giis::new(config, secs(30), secs(300));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));

        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(1));
        let out_id = match &actions[0] {
            GiisAction::SendRequest { request, .. } => request.id(),
            other => panic!("unexpected {other:?}"),
        };
        // The child reports partial results: must NOT be cached (a healed
        // partition should become visible at the next query, not a TTL
        // later).
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::PartialResults,
                entries: vec![],
                referrals: vec![],
            },
            t(1),
        );
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(2));
        assert!(
            matches!(actions[0], GiisAction::SendRequest { .. }),
            "partial results are never served from cache"
        );
        assert_eq!(giis.stats().result_cache_hits, 0);
    }

    #[test]
    fn signed_grrp_verified_and_forgeries_rejected() {
        use gis_gsi::{sign_registration, CertAuthority, TrustStore};
        let ca = CertAuthority::new("/O=Grid/CN=CA", 31);
        let mut trust = TrustStore::new();
        trust.add_ca(&ca);
        let mut config = GiisConfig::chaining(url("giis.secure"), Dn::root());
        config.security = SecurityPolicy::authenticated(ca.issue("/O=Grid/CN=giis.secure"), trust);
        // Membership restricted to one signed identity.
        config.accept = AcceptPolicy::Subjects(vec!["/O=Grid/CN=gris.good".into()]);
        let mut giis = Giis::new(config, secs(30), secs(90));

        // Properly signed registration from the allowed identity.
        let good = ca.issue("/O=Grid/CN=gris.good");
        let mut msg = reg("gris.good", "hn=good", t(0));
        msg.subject = Some(good.subject().to_owned());
        msg.signature = Some(sign_registration(&good, &msg.signable_bytes()));
        giis.handle_grrp(msg, t(0));
        assert_eq!(giis.active_children(t(1)).len(), 1);

        // Unsigned registration: dropped even if the claimed subject is
        // allowed.
        let unsigned = reg("gris.unsigned", "hn=u", t(0)).with_subject("/O=Grid/CN=gris.good");
        giis.handle_grrp(unsigned, t(0));
        assert_eq!(giis.active_children(t(1)).len(), 1);

        // Signed by a different (valid) identity claiming to be the
        // allowed one: the verified subject overrides the claim, so the
        // accept policy rejects it.
        let impostor = ca.issue("/O=Grid/CN=gris.evil");
        let mut forged = reg("gris.forged", "hn=f", t(0));
        forged.subject = Some("/O=Grid/CN=gris.good".into());
        forged.signature = Some(sign_registration(&impostor, &forged.signable_bytes()));
        giis.handle_grrp(forged, t(0));
        assert_eq!(giis.active_children(t(1)).len(), 1);

        // Signature over different bytes (tampered message): dropped.
        let mut tampered = reg("gris.tampered", "hn=t1", t(0));
        tampered.subject = Some(good.subject().to_owned());
        tampered.signature = Some(sign_registration(&good, b"other bytes"));
        giis.handle_grrp(tampered, t(0));
        assert_eq!(giis.active_children(t(1)).len(), 1);

        assert_eq!(giis.stats().grrp_rejected, 3);
    }

    #[test]
    fn credentialed_harvest_binds_first() {
        use gis_gsi::CertAuthority;
        let ca = CertAuthority::new("/O=Grid/CN=CA", 77);
        let mut config = GiisConfig::chaining(url("giis.trusted"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(60) };
        config.security =
            SecurityPolicy::anonymous().with_credential(ca.issue("/O=Grid/CN=giis.trusted"));
        let mut giis = Giis::new(config, secs(30), secs(90));

        // Registration triggers a Bind, not a Search.
        let actions = giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        let bind_id = match &actions[..] {
            [GiisAction::SendRequest {
                to,
                request: GripRequest::Bind { id, subject, .. },
                ..
            }] => {
                assert_eq!(to, &url("gris.a"));
                assert_eq!(subject, "/O=Grid/CN=giis.trusted");
                *id
            }
            other => panic!("expected bind, got {other:?}"),
        };
        assert_eq!(giis.stats().harvests, 0);

        // A successful bind is followed by the harvest search.
        let actions = giis.handle_reply(
            &url("gris.a"),
            GripReply::BindResult {
                id: bind_id,
                ok: true,
                subject: Some("/O=Grid/CN=giis.trusted".into()),
            },
            t(0),
        );
        let harvest_id = match &actions[..] {
            [GiisAction::SendRequest {
                request: GripRequest::Search { id, .. },
                ..
            }] => *id,
            other => panic!("expected harvest search, got {other:?}"),
        };
        assert_eq!(giis.stats().harvests, 1);

        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: harvest_id,
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=a").unwrap().with_class("computer")],
                referrals: vec![],
            },
            t(0),
        );
        assert_eq!(giis.cached_entries(), 1);

        // Subsequent harvests reuse the bound session: no second bind.
        // Keep the registration alive, then force a refresh.
        giis.handle_grrp(reg("gris.a", "hn=a", t(50)), t(50));
        let actions = giis.tick(t(61));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                GiisAction::SendRequest {
                    request: GripRequest::Search { .. },
                    ..
                }
            )),
            "refresh harvest goes straight to search: {actions:?}"
        );
    }

    #[test]
    fn hierarchy_registration_flows_upward() {
        let mut giis = chaining_giis();
        giis.agent.add_target(url("giis.root"));
        let actions = giis.tick(t(0));
        match &actions[..] {
            [GiisAction::SendGrrp { to, message }] => {
                assert_eq!(to, &url("giis.root"));
                assert_eq!(message.service_url, url("giis.vo"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invitation_flow_adds_parent() {
        let mut giis = chaining_giis();
        let parent = Giis::new(
            GiisConfig::chaining(url("giis.parent"), Dn::root()),
            secs(30),
            secs(90),
        );
        let invite = parent.invite(url("giis.vo"), t(0), secs(60));
        match invite {
            GiisAction::SendGrrp { to, message } => {
                assert_eq!(to, url("giis.vo"));
                giis.handle_grrp(message, t(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let actions = giis.tick(t(0));
        assert!(actions.iter().any(|a| matches!(
            a,
            GiisAction::SendGrrp { to, .. } if to == &url("giis.parent")
        )));
    }

    #[test]
    fn empty_directory_answers_empty() {
        let mut giis = chaining_giis();
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(0));
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::Success);
                assert!(entries.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn harvest_mode_subscription_delivers_on_change() {
        let mut config = GiisConfig::chaining(url("giis.sub"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(60) };
        let mut giis = Giis::new(config, secs(30), secs(300));

        // Register + harvest one child.
        let actions = giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        let out_id = match &actions[..] {
            [GiisAction::SendRequest { request, .. }] => request.id(),
            other => panic!("expected harvest, got {other:?}"),
        };
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=a").unwrap().with_class("computer")],
                referrals: vec![],
            },
            t(0),
        );

        // Subscribe on-change to the computer set.
        let actions = giis.handle_request(
            9,
            GripRequest::Subscribe {
                id: 1,
                spec: SearchSpec::subtree(
                    Dn::root(),
                    Filter::parse("(objectclass=computer)").unwrap(),
                ),
                mode: gis_proto::SubscriptionMode::OnChange,
            },
            t(1),
        );
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::Update { entries, .. },
                ..
            }] => assert_eq!(entries.len(), 1, "initial snapshot"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(giis.subscription_count(), 1);

        // No change, no update.
        assert!(giis.tick(t(5)).iter().all(|a| !matches!(
            a,
            GiisAction::Reply {
                reply: GripReply::Update { .. },
                ..
            }
        )));

        // A second child registers and is harvested: the set changes.
        let actions = giis.handle_grrp(reg("gris.b", "hn=b", t(6)), t(6));
        let out_id = match &actions[..] {
            [GiisAction::SendRequest { request, .. }] => request.id(),
            other => panic!("expected harvest, got {other:?}"),
        };
        giis.handle_reply(
            &url("gris.b"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=b").unwrap().with_class("computer")],
                referrals: vec![],
            },
            t(6),
        );
        let updates: Vec<_> = giis
            .tick(t(7))
            .into_iter()
            .filter(|a| {
                matches!(
                    a,
                    GiisAction::Reply {
                        reply: GripReply::Update { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(updates.len(), 1, "change delivered");
        match &updates[0] {
            GiisAction::Reply {
                client,
                reply: GripReply::Update { entries, .. },
            } => {
                assert_eq!(*client, 9);
                assert_eq!(entries.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Expiry of a child also triggers an update (the watched set
        // shrinks when soft state lapses).
        // Both registrations expire (ttl 90s in reg()); the same tick
        // sweeps them and delivers the shrunken view.
        let updates: Vec<_> = giis
            .tick(t(400))
            .into_iter()
            .filter(|a| {
                matches!(
                    a,
                    GiisAction::Reply {
                        reply: GripReply::Update { .. },
                        ..
                    }
                )
            })
            .collect();
        assert!(!updates.is_empty(), "expiry-driven update");

        // Unsubscribe.
        let actions = giis.handle_request(9, GripRequest::Unsubscribe { id: 1 }, t(402));
        assert!(matches!(
            actions[..],
            [GiisAction::Reply {
                reply: GripReply::SubscriptionDone {
                    code: ResultCode::Success,
                    ..
                },
                ..
            }]
        ));
        assert_eq!(giis.subscription_count(), 0);
    }

    fn breaker_giis(threshold: u32, retry: bool) -> Giis {
        let mut config = GiisConfig::chaining(url("giis.vo"), Dn::root());
        config.breaker = Some(BreakerConfig {
            failure_threshold: threshold,
            cooldown: secs(10),
            retry,
        });
        Giis::new(config, secs(30), secs(90))
    }

    fn search_id(giis: &mut Giis, id: u64, now: SimTime) -> Vec<GiisAction> {
        giis.handle_request(
            1,
            GripRequest::Search {
                id,
                spec: SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=*)").unwrap()),
            },
            now,
        )
    }

    fn sends(actions: &[GiisAction]) -> Vec<(LdapUrl, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                GiisAction::SendRequest { to, request, .. } => Some((to.clone(), request.id())),
                _ => None,
            })
            .collect()
    }

    fn ok_reply(giis: &mut Giis, child: &str, id: u64, now: SimTime) -> Vec<GiisAction> {
        giis.handle_reply(
            &url(child),
            GripReply::SearchResult {
                id,
                code: ResultCode::Success,
                entries: vec![Entry::at(&format!("hn={child}"))
                    .unwrap()
                    .with_class("computer")],
                referrals: vec![],
            },
            now,
        )
    }

    #[test]
    fn breaker_opens_after_threshold_and_skips_instantly() {
        let mut giis = breaker_giis(2, false);
        giis.handle_grrp(reg("gris.a", "hn=gris.a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=gris.b", t(0)), t(0));

        // Two rounds where gris.b never answers: consecutive failures
        // accumulate until the circuit opens.
        for (round, start) in [(0u64, 1u64), (1, 5)] {
            let actions = search_id(&mut giis, 100 + round, t(start));
            let out = sends(&actions);
            assert_eq!(out.len(), 2, "circuit still closed in round {round}");
            let (_, a_id) = out.iter().find(|(to, _)| *to == url("gris.a")).unwrap();
            ok_reply(&mut giis, "gris.a", *a_id, t(start));
            giis.tick(t(start + 3)); // past the 2s chain deadline
        }
        assert_eq!(giis.stats().breaker_opens, 1);

        // Next query skips gris.b without waiting: gris.a's reply alone
        // finalizes the answer well before the chaining deadline, marked
        // partial because a child was bypassed.
        let actions = search_id(&mut giis, 102, t(9));
        let out = sends(&actions);
        assert_eq!(out, vec![(url("gris.a"), out[0].1)]);
        assert_eq!(giis.stats().breaker_skips, 1);
        let replies = ok_reply(&mut giis, "gris.a", out[0].1, t(9));
        match &replies[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::PartialResults);
                assert_eq!(entries.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn half_open_probe_readmits_child_on_reply() {
        let mut giis = breaker_giis(1, false);
        giis.handle_grrp(reg("gris.a", "hn=gris.a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=gris.b", t(0)), t(0));

        // One timeout opens the circuit (threshold 1) until t(4)+10s.
        let actions = search_id(&mut giis, 100, t(1));
        let out = sends(&actions);
        let (_, a_id) = out.iter().find(|(to, _)| *to == url("gris.a")).unwrap();
        ok_reply(&mut giis, "gris.a", *a_id, t(1));
        giis.tick(t(4));
        assert_eq!(giis.stats().breaker_opens, 1);

        // After the cooldown lapses the next query doubles as a probe:
        // gris.b is included again in half-open state.
        let actions = search_id(&mut giis, 101, t(15));
        let out = sends(&actions);
        assert_eq!(out.len(), 2, "probe rides the live query");
        assert_eq!(giis.stats().breaker_probes, 1);
        let (_, b_id) = out.iter().find(|(to, _)| *to == url("gris.b")).unwrap();
        ok_reply(&mut giis, "gris.b", *b_id, t(15));
        assert_eq!(
            giis.stats().breaker_closes,
            1,
            "any reply closes the circuit"
        );
        let (_, a_id) = out.iter().find(|(to, _)| *to == url("gris.a")).unwrap();
        let replies = ok_reply(&mut giis, "gris.a", *a_id, t(15));
        match &replies[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::Success, "complete answer after heal");
                assert_eq!(entries.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn half_open_probe_timeout_reopens_circuit() {
        let mut giis = breaker_giis(1, false);
        giis.handle_grrp(reg("gris.a", "hn=gris.a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=gris.b", t(0)), t(0));

        let actions = search_id(&mut giis, 100, t(1));
        let (_, a_id) = sends(&actions)
            .into_iter()
            .find(|(to, _)| *to == url("gris.a"))
            .unwrap();
        ok_reply(&mut giis, "gris.a", a_id, t(1));
        giis.tick(t(4)); // opens until t(14)

        // Probe at t(15) also times out: straight back to open, no
        // threshold accumulation in half-open state.
        let actions = search_id(&mut giis, 101, t(15));
        assert_eq!(sends(&actions).len(), 2);
        let (_, a_id) = sends(&actions)
            .into_iter()
            .find(|(to, _)| *to == url("gris.a"))
            .unwrap();
        ok_reply(&mut giis, "gris.a", a_id, t(15));
        giis.tick(t(18));
        assert_eq!(giis.stats().breaker_reopens, 1);

        // Still skipped while the new cooldown runs.
        let actions = search_id(&mut giis, 102, t(20));
        assert_eq!(sends(&actions).len(), 1);
        assert_eq!(giis.stats().breaker_skips, 1);
    }

    #[test]
    fn in_deadline_retry_recovers_lost_request() {
        let mut giis = breaker_giis(3, true);
        giis.handle_grrp(reg("gris.a", "hn=gris.a", t(0)), t(0));

        // First send is "lost" (never answered). At the deadline midpoint
        // the engine re-asks with a fresh request id.
        let actions = search_id(&mut giis, 100, t(1));
        let out = sends(&actions);
        assert_eq!(out.len(), 1);
        let old_id = out[0].1;

        let actions = giis.tick(t(2));
        let retried = sends(&actions);
        assert_eq!(retried.len(), 1, "one in-deadline retry");
        assert_eq!(retried[0].0, url("gris.a"));
        assert_ne!(retried[0].1, old_id, "retry uses a fresh outbound id");
        assert_eq!(giis.stats().chain_retries, 1);

        // A late reply to the superseded id is dropped...
        assert!(ok_reply(&mut giis, "gris.a", old_id, t(2)).is_empty());

        // ...while the retry's reply completes the answer in time.
        let replies = ok_reply(&mut giis, "gris.a", retried[0].1, t(2));
        match &replies[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::Success);
                assert_eq!(entries.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(giis.stats().timeouts, 0, "no timeout was charged");
    }

    #[test]
    fn subscribe_rejected_politely() {
        let mut giis = chaining_giis();
        let actions = giis.handle_request(
            1,
            GripRequest::Subscribe {
                id: 7,
                spec: SearchSpec::lookup(Dn::root()),
                mode: gis_proto::SubscriptionMode::OnChange,
            },
            t(0),
        );
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SubscriptionDone { code, .. },
                ..
            }] => assert_eq!(*code, ResultCode::UnwillingToPerform),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn monitoring_namespace_answered_locally() {
        let mut config = GiisConfig::chaining(url("giis.vo"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(60) };
        let mut giis = Giis::new(config, secs(30), secs(90));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));

        let actions = search_actions(&mut giis, "mds-vo-name=monitoring", "(objectclass=*)", t(1));
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::Success);
                let svc = entries
                    .iter()
                    .find(|e| e.get_str("service-type") == Some("giis"))
                    .expect("self-describing mds-service entry");
                assert!(svc.has_class("mds-service"));
                assert_eq!(svc.get_str("mode"), Some("harvest"));
                assert!(
                    entries.iter().any(|e| e.has_class("mds-child")),
                    "registered children appear as mds-child entries"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = giis.stats();
        assert_eq!(stats.monitoring_queries, 1);
        assert_eq!(stats.searches, 1);
        assert_eq!(stats.local_answers, 0, "monitoring is not a cache answer");
    }

    #[test]
    fn monitoring_search_fans_out_to_children() {
        let mut giis = chaining_giis();
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=b", t(0)), t(0));

        let actions = search_actions(&mut giis, "mds-vo-name=monitoring", "(objectclass=*)", t(1));
        let mut out = Vec::new();
        for a in &actions {
            if let GiisAction::SendRequest { to, request, .. } = a {
                if let GripRequest::Search { spec, .. } = request {
                    assert!(
                        metrics::is_monitoring_dn(&spec.base),
                        "children are asked for their own monitoring view"
                    );
                }
                out.push((to.clone(), request.id()));
            }
        }
        assert_eq!(
            out.len(),
            2,
            "monitoring fans out to every active child, ignoring namespace scoping"
        );

        // Each child reports its own self-description.
        let mut last = Vec::new();
        for (child, out_id) in &out {
            let e = Entry::at(&format!("service={child}, mds-vo-name=monitoring"))
                .unwrap()
                .with_class("mds-service")
                .with("service-type", "gris");
            last = giis.handle_reply(
                child,
                GripReply::SearchResult {
                    id: *out_id,
                    code: ResultCode::Success,
                    entries: vec![e],
                    referrals: vec![],
                },
                t(1),
            );
        }
        match &last[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::Success);
                assert!(
                    entries
                        .iter()
                        .any(|e| e.get_str("service-type") == Some("giis")),
                    "merged view keeps the index's own entry"
                );
                let grises = entries
                    .iter()
                    .filter(|e| e.get_str("service-type") == Some("gris"))
                    .count();
                assert_eq!(grises, 2, "both children's entries are merged in");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(giis.stats().monitoring_queries, 1);
    }

    #[test]
    fn monitoring_disabled_is_no_such_object() {
        let mut config = GiisConfig::chaining(url("giis.dark"), Dn::root());
        config.observability = false;
        let mut giis = Giis::new(config, secs(30), secs(90));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));

        let actions = search_actions(&mut giis, "mds-vo-name=monitoring", "(objectclass=*)", t(1));
        match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::NoSuchObject);
                assert!(entries.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(giis.stats().monitoring_queries, 0);
    }

    #[test]
    fn traced_chain_records_complete_span_tree() {
        let mut giis = chaining_giis();
        let sink = Arc::new(TraceSink::new());
        giis.set_trace_sink(Arc::clone(&sink));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        giis.handle_grrp(reg("gris.b", "hn=b", t(0)), t(0));

        // Mint a root span the way a client hop would.
        let root = sink.next_span();
        let trace = TraceId(root);
        let ctx = TraceContext {
            trace,
            parent: root,
        };
        let actions = giis.handle_request_traced(
            1,
            GripRequest::Search {
                id: 7,
                spec: SearchSpec::subtree(Dn::root(), Filter::always()),
            },
            Some(ctx),
            t(1),
        );

        // Every outgoing leg forwards a context parented on its own
        // chain span (not on the client root).
        let mut out = Vec::new();
        for a in &actions {
            if let GiisAction::SendRequest {
                to,
                request,
                trace: leg,
            } = a
            {
                let leg = leg.expect("traced fan-out forwards a context");
                assert_eq!(leg.trace, trace);
                assert_ne!(leg.parent, root);
                out.push((to.clone(), request.id()));
            }
        }
        assert_eq!(out.len(), 2);
        for (child, out_id) in &out {
            giis.handle_reply(
                child,
                GripReply::SearchResult {
                    id: *out_id,
                    code: ResultCode::Success,
                    entries: vec![],
                    referrals: vec![],
                },
                t(2),
            );
        }
        // Close the client root span, as a runtime client does.
        sink.record(SpanRecord {
            trace,
            span: root,
            parent: None,
            service: "client:1".into(),
            name: "client.search".into(),
            start: t(1),
            end: t(2),
            outcome: "success".into(),
        });

        let tree = sink.tree(trace);
        assert_eq!(tree.len(), 4, "client + giis.search + two chain legs");
        assert_eq!(tree.depth(), 3, "chain legs parent on the giis.search span");
        let rendered = tree.render();
        assert!(rendered.contains("giis.search"));
        assert!(rendered.contains("chain:ldap://gris.a"));
        assert!(rendered.contains("chain:ldap://gris.b"));
    }

    /// Regression: hammer `stats()` while workers answer from the result
    /// cache. The bump order (packed searches half before
    /// `result_cache_hits`) plus the snapshot read order (hits before the
    /// packed word) must keep every live snapshot coherent.
    #[test]
    fn stats_snapshot_never_tears_under_concurrent_queries() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let mut config = GiisConfig::chaining(url("giis.hammer"), Dn::root());
        config.result_cache_ttl = Some(secs(1000));
        let mut giis = Giis::new(config, secs(30), secs(300));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));

        // Warm the result cache through the owner's fan-out.
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(1));
        let out_id = match &actions[0] {
            GiisAction::SendRequest { request, .. } => request.id(),
            other => panic!("unexpected {other:?}"),
        };
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=a").unwrap().with_class("computer")],
                referrals: vec![],
            },
            t(1),
        );

        let path = giis.query_path();
        let spec = SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=*)").unwrap());
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let path = path.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    let s = path.stats();
                    assert!(
                        s.result_cache_hits <= s.searches,
                        "torn snapshot: {} hits > {} searches",
                        s.result_cache_hits,
                        s.searches
                    );
                    assert!(s.local_answers <= s.searches);
                    reads += 1;
                }
                reads
            })
        };

        const WORKERS: usize = 4;
        const PER_WORKER: u64 = 500;
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let path = path.clone();
                let spec = spec.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WORKER {
                        let ok = path
                            .handle_query(
                                1,
                                GripRequest::Search {
                                    id: i,
                                    spec: spec.clone(),
                                },
                                t(2),
                            )
                            .expect("warm cache answers on the query path");
                        assert_eq!(ok.len(), 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let reads = reader.join().unwrap();
        assert!(reads > 0, "reader observed at least one live snapshot");

        // Quiesced, the counts are exact: the warm-up miss plus every
        // worker hit.
        let s = giis.stats();
        let hits = (WORKERS as u64) * PER_WORKER;
        assert_eq!(s.result_cache_hits, hits);
        assert_eq!(s.searches, hits + 1);
        assert_eq!(s.chained_requests, 1);
    }

    fn harvest_giis_with(storage: Arc<dyn gis_store::Storage>, now: SimTime) -> Giis {
        let mut config = GiisConfig::chaining(url("giis.h"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(60) };
        let mut giis = Giis::new(config, secs(30), secs(90));
        giis.set_persistence(storage, JournalOptions::default(), now);
        giis
    }

    #[test]
    fn persistence_recovers_cache_and_clocks() {
        let storage: Arc<dyn gis_store::Storage> = Arc::new(gis_store::MemStorage::new());
        let mut giis = harvest_giis_with(storage.clone(), t(0));

        // Register → immediate harvest → cache populated.
        let actions = giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        let out_id = match &actions[..] {
            [GiisAction::SendRequest { request, .. }] => request.id(),
            other => panic!("expected harvest, got {other:?}"),
        };
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: out_id,
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=a").unwrap().with_class("computer")],
                referrals: vec![],
            },
            t(0),
        );
        assert_eq!(giis.cached_entries(), 1);
        drop(giis);

        // "Crash": reopen from the same storage mid-lifetime.
        let mut giis = harvest_giis_with(storage, t(10));
        assert_eq!(giis.cached_entries(), 1, "harvested cache recovered");
        assert_eq!(giis.active_children(t(10)).len(), 1, "registration alive");

        // Re-registration after recovery is a refresh, not a new child:
        // no second harvest storm (last_harvest was recovered).
        let actions = giis.handle_grrp(reg("gris.a", "hn=a", t(10)), t(10));
        assert!(actions.is_empty(), "refresh must not re-harvest");
        assert_eq!(giis.stats().harvests, 0);

        // The original expiry deadline survives: registered at t=0 with
        // ttl 90s, refreshed at t=10 → alive at t=99, gone at t=101.
        assert_eq!(giis.active_children(t(99)).len(), 1);
        giis.tick(t(101));
        assert_eq!(giis.active_children(t(101)).len(), 0);
        assert_eq!(giis.cached_entries(), 0, "expired rows purged");
    }

    #[test]
    fn persistence_journals_expiry_sweep() {
        let storage: Arc<dyn gis_store::Storage> = Arc::new(gis_store::MemStorage::new());
        let mut giis = harvest_giis_with(storage.clone(), t(0));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));
        // Expire the child while the first incarnation is still up...
        giis.tick(t(100));
        assert_eq!(giis.active_children(t(100)).len(), 0);
        drop(giis);
        // ...and the expiry is durable: recovery does not resurrect it.
        let giis = harvest_giis_with(storage, t(100));
        assert_eq!(giis.active_children(t(100)).len(), 0);
        assert_eq!(giis.cached_entries(), 0);
    }
}

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
//! * index construction — names only (the registry is the index), or a
//!   replica of every child's tree (the "relational aggregate directory"
//!   of §3) refreshed by one pull scheduler and fed by one ingest path,
//!   optionally with per-child Bloom summaries (§5.1);
//! * search handling — answering from the registry or from the replica
//!   (one local-answer path for the owner and its query workers),
//!   chaining with namespace scoping (Figure 5), optionally routed by the
//!   Bloom summaries, and LDAP referrals when data may not be relayed
//!   (§10.4).
//!
//! Each [`GiisMode`] is one pairing of the two plug-ins:
//!
//! | mode         | index                                 | search                    |
//! |--------------|---------------------------------------|---------------------------|
//! | `Name`       | names (the soft-state registry)       | registry                  |
//! | `Chain`      | names                                 | chain                     |
//! | `Harvest`    | replica pulled by subtree search      | local                     |
//! | `BloomChain` | replica pulled by search, + summaries | chain routed by summaries |
//! | `Federated`  | replica pulled by `SyncPull`          | local                     |
//!
//! The engine is sans-IO and asynchronous: methods return [`Action`]s
//! (messages to send, replies to deliver) that the runtime executes.
//! Bind, sessions, subscriptions, self-description and GRRP emission are
//! the [`Front`] it shares with the GRIS; this engine builds the index
//! and answers searches.
//! Chained queries are correlated through pending-query state and expire
//! against a deadline, which is what yields *partial results* rather than
//! hangs when children are partitioned away (Figures 1 and 4).

use crate::bloom::{attr_token, BloomFilter};
pub use gis_gris::front::ClientId;
use gis_gris::front::{self, Backend, Front, FrontStats};
use gis_gsi::{PolicyMap, Requester, ServiceConfig, Visibility};
use gis_ldap::{
    Dn, Entry, Filter, LdapUrl, Rdn, Scope, SharedDit, SnapshotLineage, Wire, FRESH_AT_ATTR,
    SYNC_VERSION_ATTR,
};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::{
    metrics, Action, Counter, GripReply, GripRequest, GrrpMessage, Histogram, MetricsRegistry,
    Notification, PackedPair, RegistrationAgent, RequestId, ResultCode, SearchSpec,
    SoftStateRegistry, SpanRecord, SyncCookie, TraceContext,
};
use gis_store::{
    GroupSnap, Journal, JournalOptions, RecoveryReport, RegSnap, SnapshotContent, Storage, WalOp,
};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

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
        /// Re-harvest cadence (the §12 freshness-vs-cost knob); also how
        /// long an unanswered harvest stays in flight.
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

/// How a replica pulls a child's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pull {
    /// A full-subtree `Search` of the child's namespace (a harvest).
    Search,
    /// A [`GripRequest::SyncPull`] presenting the last lineage cookie;
    /// the child answers with its whole tree or a delta.
    Sync,
}

/// The replica index builder: a copy of every child's tree, refreshed
/// by pulls.
#[derive(Debug, Clone, Copy)]
struct Replica {
    pull: Pull,
    /// Pull cadence per child.
    every: SimDuration,
    /// An unanswered pull is abandoned this long after it was sent.
    deadline: SimDuration,
    /// Bloom summary sizing (bits per token), when summaries are kept.
    bloom_bits: Option<usize>,
}

/// The search handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Search {
    /// From the registration records, with referrals to the providers.
    Registry,
    /// From the replica.
    Local,
    /// Forwarded to the children in scope, pruned by their Bloom
    /// summaries when the index keeps them.
    Chain { timeout: SimDuration },
}

impl GiisMode {
    /// The mode's two plug-ins: its index builder (`None` is names only,
    /// the soft-state registry being the whole index) and its search
    /// handler.
    fn plugins(self) -> (Option<Replica>, Search) {
        let replica = |pull, every, deadline, bloom_bits| {
            Some(Replica {
                pull,
                every,
                deadline,
                bloom_bits,
            })
        };
        match self {
            GiisMode::Name => (None, Search::Registry),
            GiisMode::Chain { timeout } => (None, Search::Chain { timeout }),
            GiisMode::Harvest { refresh } => {
                (replica(Pull::Search, refresh, refresh, None), Search::Local)
            }
            GiisMode::BloomChain {
                timeout,
                refresh,
                bits_per_element: bits,
            } => (
                replica(Pull::Search, refresh, refresh, Some(bits)),
                Search::Chain { timeout },
            ),
            GiisMode::Federated { interval, deadline } => {
                (replica(Pull::Sync, interval, deadline, None), Search::Local)
            }
        }
    }

    /// The monitoring `mode` label.
    fn label(self) -> &'static str {
        match self {
            GiisMode::Name => "name",
            GiisMode::Chain { .. } => "chain",
            GiisMode::Harvest { .. } => "harvest",
            GiisMode::BloomChain { .. } => "bloom-chain",
            GiisMode::Federated { .. } => "federated",
        }
    }
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
    sync_pulls: Counter,
    full_syncs: Counter,
    delta_syncs: Counter,
    sync_failures: Counter,
}

impl GiisStatsAtomic {
    fn snapshot(&self, front: FrontStats) -> GiisStats {
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
            monitoring_queries: front.monitoring_queries,
            sync_pulls: self.sync_pulls.get(),
            full_syncs: self.full_syncs.get(),
            delta_syncs: self.delta_syncs.get(),
            sync_failures: self.sync_failures.get(),
        }
    }
}

/// GIIS configuration.
///
/// The shared service knobs (endpoint URL, [`gis_gsi::SecurityPolicy`],
/// observability) live in the embedded [`ServiceConfig`]; `GiisConfig`
/// derefs to it, so `config.url` / `config.security` /
/// `config.observability` read and write naturally. The old separate
/// `policy`/`authenticator`/`credential`/`grrp_trust` knobs are all
/// derived from `service.security`: the trust store verifies both bind
/// tokens and registration signatures, the credential signs pull binds,
/// and the policy map filters outgoing results.
#[derive(Clone)]
pub struct GiisConfig {
    /// The knobs every GIS service shares, including the unified
    /// security posture. With
    /// [`gis_gsi::SecurityPolicy::verifies_registrations`]
    /// true, incoming registrations must carry a valid signature
    /// chaining to `service.security.trust`; the verified subject
    /// *replaces* any claimed subject before the accept policy runs
    /// ("(1) ensure that registration messages are authentic, and (2)
    /// control which registration events are accepted", §7). When a
    /// credential is present, the directory also authenticates to
    /// children before pulling from them (§7's trusted-directory model).
    pub service: ServiceConfig,
    /// The namespace this directory aggregates (its registration
    /// namespace when joining parent directories; `root` for a whole-VO
    /// directory).
    pub namespace: Dn,
    /// Index/search mode. Read wherever it matters, so it may be changed
    /// after [`Giis::new`].
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
    /// Per-child circuit breaker for chained queries and replica pulls.
    /// `None` (the default) preserves the passive behaviour: a dead
    /// child eats the full fan-out deadline on every query until its
    /// registration expires. With a breaker, K consecutive timeouts open
    /// the child's circuit and subsequent fan-outs and pulls skip it
    /// instantly (a chained answer is marked partial); after a cooldown,
    /// one live query or pull doubles as a half-open probe that
    /// re-admits the child if it answers.
    pub breaker: Option<BreakerConfig>,
    /// VO/suffix shards for a replica: when non-empty, only children
    /// whose registered namespace intersects one of these subtrees are
    /// pulled, and each sync pull asks for just the intersecting
    /// subtrees — a replicated root can own a slice of the VO namespace
    /// instead of the whole tree. Empty means unsharded (pull
    /// everything).
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Circuit {
    /// Normal operation; requests flow.
    #[default]
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
    /// The index builder of the current mode (`None`: names only).
    fn replica(&self) -> Option<Replica> {
        self.mode.plugins().0
    }

    /// The search handler of the current mode.
    fn search(&self) -> Search {
        self.mode.plugins().1
    }

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

/// A pull awaiting its reply (the bind ahead of it included).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// The outbound id of the request now outstanding.
    id: u64,
    /// When the pull started (deadline and RTT input).
    sent: SimTime,
}

#[derive(Default)]
struct ChildState {
    /// DNs this child contributes to the replica.
    harvested: BTreeSet<Dn>,
    /// When the last pull of the child was issued: pulls run at a fixed
    /// rate, however long each reply takes.
    last_pull: Option<SimTime>,
    /// The pull in flight, if any: at most one per child.
    pull: Option<InFlight>,
    /// Lineage cookie from the child's last sync reply: presenting it
    /// on the next pull yields an incremental delta when still inside
    /// the child's change window.
    sync_cookie: Option<SyncCookie>,
    /// The child-asserted "state as of" time of the last integrated
    /// sync reply (staleness-gauge input).
    sync_asof: Option<SimTime>,
    /// When the last sync reply was integrated.
    last_sync: Option<SimTime>,
    bloom: Option<BloomFilter>,
    /// Whether this directory has authenticated to the child.
    bound: bool,
    /// Consecutive chained-request timeouts (breaker input).
    consec_failures: u32,
    /// Chained-query circuit state.
    circuit: Circuit,
    /// Request round-trip latency (registry handle, resolved when the
    /// child first registers).
    rtt: Arc<Histogram>,
}

/// The query state the owner and every [`GiisQueryPath`] share: the
/// replica, the chained-result cache, counters and the front.
#[derive(Clone)]
struct Shared {
    /// The replica, published as shared snapshots so query workers can
    /// answer from it while the owner ingests pulls.
    cache: Arc<SharedDit>,
    result_cache: Arc<RwLock<BTreeMap<String, CachedResult>>>,
    stats: Arc<GiisStatsAtomic>,
    front: Front,
}

impl Shared {
    fn stats(&self) -> GiisStats {
        self.stats.snapshot(self.front.stats())
    }
}

struct PendingQuery {
    client: ClientId,
    client_req: RequestId,
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

/// A complete (`Success`) chained answer kept for reuse.
struct CachedResult {
    at: SimTime,
    entries: Vec<Entry>,
    referrals: Vec<LdapUrl>,
}

/// The most entries an answer to `spec` may carry.
fn size_limit(spec: &SearchSpec) -> usize {
    match spec.size_limit {
        0 => usize::MAX,
        n => n as usize,
    }
}

/// What `requester` may see of `e` as an answer to `spec`: redacted by
/// this directory's policy, then filtered and projected.
fn release(
    policy: &PolicyMap,
    spec: &SearchSpec,
    requester: &Requester,
    e: &Entry,
) -> Option<Entry> {
    let redacted = policy.redact(e, requester)?;
    spec.filter
        .matches(&redacted)
        .then(|| redacted.project(&spec.attrs))
}

/// Name-serving answer: one entry per fresh registration in scope,
/// carrying the service URL; referrals point clients at the providers.
fn name_answer(
    registry: &SoftStateRegistry,
    policy: &PolicyMap,
    spec: &SearchSpec,
    requester: &Requester,
    now: SimTime,
) -> (Vec<Entry>, Vec<LdapUrl>) {
    registry
        .active(now)
        .filter(|reg| {
            let ns = &reg.message.namespace;
            match spec.scope {
                Scope::Base => ns == &spec.base,
                Scope::One => ns.is_child_of(&spec.base),
                Scope::Sub => ns.is_under(&spec.base),
            }
        })
        .filter_map(|reg| {
            let mut e = Entry::new(reg.message.namespace.clone())
                .with_class("registration")
                .with("url", reg.message.service_url.to_string())
                .with("registeredsince", reg.first_seen.micros())
                .with("refreshcount", reg.refresh_count);
            e.normalize_naming_attr();
            let released = release(policy, spec, requester, &e)?;
            Some((released, reg.message.service_url.clone()))
        })
        .take(size_limit(spec))
        .unzip()
}

/// Redact one served sync entry for `requester` as a search would,
/// keeping the lineage stamps the puller's staleness tracking reads.
fn redact_stamped(policy: &PolicyMap, requester: &Requester, e: Entry) -> Option<Entry> {
    let acl = policy.acl_for(e.dn());
    if acl.visibility(requester) == Visibility::Full {
        return Some(e);
    }
    let mut out = acl.redact(&e, requester)?;
    for attr in [SYNC_VERSION_ATTR, FRESH_AT_ATTR] {
        out.put(attr, e.get(attr).to_vec());
    }
    Some(out)
}

/// The equality tokens a child must contain for this filter to possibly
/// match there: conservative — only top-level `Eq` terms of the filter
/// (or of a top-level `And`) are usable for pruning.
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

/// Cache key: the full query shape plus the requester identity.
fn cache_key(spec: &SearchSpec, requester: &Requester) -> String {
    format!(
        "{}|{:?}|{}|{:?}|{}|{:?}",
        spec.base, spec.scope, spec.filter, spec.attrs, spec.size_limit, requester.subject
    )
}

/// One chained request of a fan-out awaiting its reply. (A pull in
/// flight is its child's [`InFlight`].)
struct Leg {
    query: u64,
    child: LdapUrl,
    /// When the request was sent (RTT histogram input; span start).
    sent: SimTime,
    /// The `chain:<child>` span id when the query is traced — the
    /// context the child received has this as its parent.
    span: Option<u64>,
}

/// What local answering reads: the configuration, the shared query
/// state and — on the owner only — the soft-state registry.
struct ReadPathRef<'a> {
    config: &'a GiisConfig,
    shared: &'a Shared,
    registry: Option<&'a SoftStateRegistry>,
}

impl ReadPathRef<'_> {
    /// The one local-answer path, for the owner and query workers alike:
    /// a registry or replica answer, or a fresh result-cache hit for a
    /// chained search. `None` leaves the search to the owner (a registry
    /// answer off the owner, or a chained fan-out).
    fn answer(
        &self,
        client: ClientId,
        id: RequestId,
        spec: &SearchSpec,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Option<GripReply> {
        let started = Instant::now();
        let stats = &self.shared.stats;
        let requester = self.shared.front.requester_of(client);
        let (code, entries, referrals, how) = if let Search::Chain { .. } = self.config.search() {
            let ttl = self.config.result_cache_ttl?;
            let cache = self.shared.result_cache.read();
            let hit = cache.get(&cache_key(spec, &requester));
            let hit = hit.filter(|hit| now.since(hit.at) < ttl)?;
            // The search is accounted *before* the hit so a concurrent
            // stats snapshot (which reads hits before searches) can never
            // observe `result_cache_hits > searches`.
            stats.work.bump_first();
            stats.result_cache_hits.bump();
            let (entries, referrals) = (hit.entries.clone(), hit.referrals.clone());
            (ResultCode::Success, entries, referrals, "cache-hit")
        } else {
            let (entries, referrals) = self.entries(spec, &requester, now)?;
            stats.work.bump_both();
            stats.referrals_issued.add(referrals.len() as u64);
            (ResultCode::Success, entries, referrals, "local")
        };
        stats.entries_returned.add(entries.len() as u64);
        let end = now + SimDuration::from_micros(started.elapsed().as_micros() as u64);
        let front = &self.shared.front;
        let span = front.open_span(trace);
        front.searched("giis.search", &self.config.url, span, now, end, how);
        Some(GripReply::SearchResult {
            id,
            code,
            entries,
            referrals,
        })
    }

    /// The registry or replica answer to `spec` for `requester`; `None`
    /// when it needs the registry this read path does not hold.
    fn entries(
        &self,
        spec: &SearchSpec,
        requester: &Requester,
        now: SimTime,
    ) -> Option<(Vec<Entry>, Vec<LdapUrl>)> {
        let policy = &self.config.security.policy_map;
        if self.config.search() == Search::Registry {
            let registry = self.registry?;
            return Some(name_answer(registry, policy, spec, requester, now));
        }
        // A point-in-time snapshot — concurrent ingest never tears a
        // result — searched by shared handle, so entries reach
        // redaction without being deep-copied.
        let snapshot = self.shared.cache.snapshot();
        let entries = snapshot
            .search_shared(&spec.base, spec.scope, &spec.filter, &[], 0)
            .iter()
            .filter_map(|e| release(policy, spec, requester, e))
            .take(size_limit(spec))
            .collect();
        Some((entries, Vec::new()))
    }
}

impl Backend for ReadPathRef<'_> {
    fn subscribes(&self) -> bool {
        // Chained watches would need fan-out subscriptions; those belong
        // at the authoritative GRIS.
        !matches!(self.config.search(), Search::Chain { .. })
    }

    fn evaluate(&self, spec: &SearchSpec, requester: &Requester, now: SimTime) -> Vec<Entry> {
        self.entries(spec, requester, now).unwrap_or_default().0
    }
}

/// A cloneable handle over a GIIS's concurrent query state: what a
/// worker thread can answer without the engine's owner — replica
/// searches, and chained searches on a result-cache hit (a miss needs
/// the owner's fan-out machinery). Created by [`Giis::query_path`].
#[derive(Clone)]
pub struct GiisQueryPath {
    config: Arc<GiisConfig>,
    shared: Shared,
}

impl GiisQueryPath {
    /// Snapshot of the shared operational counters (for assertions and
    /// monitoring after the engine has moved into a runtime).
    pub fn stats(&self) -> GiisStats {
        self.shared.stats()
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
    ) -> Result<Vec<Action>, GripRequest> {
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
    ) -> Result<Vec<Action>, GripRequest> {
        let read = ReadPathRef {
            config: &self.config,
            shared: &self.shared,
            registry: None,
        };
        let answered = match &req {
            // The monitoring namespace needs the owner's registry and
            // child state (and, in chain modes, its fan-out machinery).
            GripRequest::Search { id, spec } if !metrics::is_monitoring_dn(&spec.base) => {
                read.answer(client, *id, spec, trace, now)
            }
            _ => None,
        };
        match answered {
            Some(reply) => Ok(vec![Action::Reply { client, reply }]),
            None => Err(req),
        }
    }

    /// The front this handle shares with its engine.
    pub fn front(&self) -> &Front {
        &self.shared.front
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
    shared: Shared,
    children: BTreeMap<String, ChildState>,
    pending: BTreeMap<u64, PendingQuery>,
    outbound: BTreeMap<u64, Leg>,
    next_outbound: u64,
    next_query: u64,
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
        let shared = Shared {
            cache: Arc::new(SharedDit::new()),
            result_cache: Arc::default(),
            stats: Arc::default(),
            front: Front::new(config.observability),
        };
        Giis {
            config,
            registry: SoftStateRegistry::new(),
            agent,
            shared,
            children: BTreeMap::new(),
            pending: BTreeMap::new(),
            outbound: BTreeMap::new(),
            next_outbound: 1,
            next_query: 1,
            persist: None,
            lineage: SnapshotLineage::default(),
        }
    }

    /// The owner's read path for local answering.
    fn read_path(&self) -> ReadPathRef<'_> {
        ReadPathRef {
            config: &self.config,
            shared: &self.shared,
            registry: Some(&self.registry),
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_outbound;
        self.next_outbound += 1;
        id
    }

    /// Attach durable storage: recover the replica, the soft-state
    /// registry (with its original expiry deadlines), per-child
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
        self.shared.cache = Arc::new(SharedDit::from_dit(state.dit));
        self.registry = state.registry;
        self.children.clear();
        for (key, g) in state.groups {
            let rtt = self
                .shared
                .front
                .metrics()
                .labeled_histogram("chain-rtt-us", Some(&key));
            // Sync cookies and Bloom summaries are not persisted: the
            // first pull after recovery is a full one, which re-converges
            // whatever the WAL tail missed and rebuilds the summary.
            let child = ChildState {
                harvested: g.dns,
                last_pull: g.at,
                sync_asof: g.at,
                last_sync: g.at,
                rtt,
                ..ChildState::default()
            };
            self.children.insert(key, child);
        }
        for t in state.targets {
            self.agent.add_target(t);
        }
        let r = self.shared.front.metrics();
        r.gauge("persist-recovered-entries")
            .set(self.shared.cache.len() as u64);
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
                self.shared.front.metrics().counter("persist-errors").bump();
            }
        }
    }

    /// Write a snapshot of the current state and compact the WAL into
    /// it. Called by the owner on cadence (never on the query path).
    fn snapshot_persist(&mut self) {
        let Some(journal) = self.persist.as_mut() else {
            return;
        };
        let published = self.shared.cache.snapshot();
        let regs: Vec<RegSnap> = self.registry.registrations().map(RegSnap::of).collect();
        let groups: Vec<GroupSnap> = self
            .children
            .iter()
            .map(|(name, st)| GroupSnap {
                name: name.clone(),
                at: st.last_pull,
                dns: st.harvested.iter().cloned().collect(),
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
            self.shared.front.metrics().counter("persist-errors").bump();
        }
    }

    /// This engine's metrics registry (exported under the monitoring
    /// namespace; the live runtime adds its worker-pool instruments
    /// here).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.shared.front.metrics())
    }

    /// The children (service URLs) currently fresh in the registry.
    pub fn active_children(&self, now: SimTime) -> Vec<LdapUrl> {
        self.registry
            .active(now)
            .map(|r| r.message.service_url.clone())
            .collect()
    }

    /// Number of replicated entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.shared.cache.len()
    }

    /// The current published cache snapshot (tests and experiments
    /// compare federated replicas against ground truth through this).
    pub fn cache_snapshot(&self) -> Arc<gis_ldap::Dit> {
        self.shared.cache.snapshot()
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
        self.shared.stats()
    }

    /// A cloneable concurrent-query handle sharing this directory's
    /// replica, result cache, sessions and counters. The configuration
    /// it captures (search handler, policy, cache TTL) is frozen at this
    /// point. Registry-backed answering (Name mode) and fan-out state
    /// stay with the engine's owner.
    pub fn query_path(&self) -> GiisQueryPath {
        GiisQueryPath {
            config: Arc::new(self.config.clone()),
            shared: self.shared.clone(),
        }
    }

    /// Issue an invitation asking `service` to register here (§10.4's
    /// invitation flow; also how "an entire organization's resources can
    /// be added to a VO by registering the appropriate directory", §9).
    pub fn invite(&self, service: LdapUrl, now: SimTime, ttl: SimDuration) -> Action {
        Action::SendGrrp {
            to: service.clone(),
            message: GrrpMessage::invite(service, self.config.url.clone(), now, ttl),
        }
    }

    /// Handle an incoming GRRP message (no reply channel: datagram-style
    /// delivery, as in the simulated fabric).
    pub fn handle_grrp(&mut self, msg: GrrpMessage, now: SimTime) -> Vec<Action> {
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
    ) -> Vec<Action> {
        self.shared.stats.grrp_received.bump();
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
                            self.shared.stats.grrp_rejected.bump();
                            return Giis::grrp_rejection(origin);
                        }
                    }
                }
                if !self.config.accept.admits(&msg) {
                    self.shared.stats.grrp_rejected.bump();
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
                let replica = self.config.replica();
                let key = url.to_string();
                // Resolved on every registration, but get-or-create in
                // the registry makes repeats cheap (one map lookup).
                let rtt = self
                    .shared
                    .front
                    .metrics()
                    .labeled_histogram("chain-rtt-us", Some(&key));
                let state = self.children.entry(key).or_insert_with(|| ChildState {
                    rtt,
                    ..ChildState::default()
                });
                // A replica pulls each new child at once ("follows up
                // each registration of a new entity with a GRIP query",
                // §3).
                match replica {
                    Some(r) if is_new && state.last_pull.is_none() => {
                        state.last_pull = Some(now);
                        self.issue_pull(r, url, now, true)
                    }
                    _ => Vec::new(),
                }
            }
        }
    }

    /// The action set for a rejected registration: empty for datagram
    /// delivery, an explicit `GrrpResult` reply when the sender is a
    /// live connection. GRRP carries no request id, so the reply uses
    /// id 0 — the reserved "unsolicited" slot.
    fn grrp_rejection(origin: Option<ClientId>) -> Vec<Action> {
        match origin {
            Some(client) => vec![Action::Reply {
                client,
                reply: GripReply::GrrpResult {
                    id: 0,
                    code: ResultCode::AuthRejected,
                },
            }],
            None => Vec::new(),
        }
    }

    /// The namespace `child` registered.
    fn namespace_of(&self, child: &LdapUrl) -> Dn {
        self.registry
            .get(child)
            .map(|r| r.message.namespace.clone())
            .unwrap_or_else(Dn::root)
    }

    /// The shard subtrees a pull of `child` should request: empty when
    /// unsharded, the intersecting shards when sharded, `None` when the
    /// child's registered namespace misses every shard (it is not
    /// pulled at all).
    fn shard_scope(&self, child: &LdapUrl) -> Option<Vec<Dn>> {
        let ns = self.namespace_of(child);
        let hit: Vec<Dn> = self
            .config
            .shards
            .iter()
            .filter(|s| ns.is_under(s) || s.is_under(&ns))
            .cloned()
            .collect();
        (self.config.shards.is_empty() || !hit.is_empty()).then_some(hit)
    }

    /// Send the next request of a pull of `child` begun at `sent`: a
    /// bind when `may_bind` and this directory holds a credential the
    /// child has not yet accepted (§7's trusted-directory model), else
    /// the pull itself — a full-subtree search of the child's namespace,
    /// or a sync pull presenting the child's last cookie so it can answer
    /// with a delta.
    fn issue_pull(
        &mut self,
        r: Replica,
        child: LdapUrl,
        sent: SimTime,
        may_bind: bool,
    ) -> Vec<Action> {
        let key = child.to_string();
        let (Some(state), Some(subtrees)) = (self.children.get(&key), self.shard_scope(&child))
        else {
            return Vec::new();
        };
        let stats = &self.shared.stats;
        let mut request = match (&self.config.security.credential, r.pull) {
            (Some(cred), _) if may_bind && !state.bound => GripRequest::Bind {
                id: 0,
                subject: cred.subject().to_owned(),
                token: gis_gsi::BindToken::create(cred, &key).to_bytes(),
            },
            (_, Pull::Search) => {
                stats.harvests.bump();
                let spec = SearchSpec::subtree(self.namespace_of(&child), Filter::always());
                GripRequest::Search { id: 0, spec }
            }
            (_, Pull::Sync) => {
                stats.sync_pulls.bump();
                GripRequest::SyncPull {
                    id: 0,
                    cookie: state.sync_cookie,
                    subtrees,
                }
            }
        };
        let id = self.next_id();
        request.set_id(id);
        if let Some(state) = self.children.get_mut(&key) {
            state.pull = Some(InFlight { id, sent });
        }
        vec![Action::SendRequest {
            to: child,
            request,
            trace: None,
        }]
    }

    /// The one pull scheduler: abandon every pull past its deadline
    /// (scored against the child's circuit), then pull each due child
    /// with nothing in flight that the breaker admits — a cooled-down
    /// open circuit flips to half-open and the pull doubles as the
    /// probe.
    fn schedule_pulls(&mut self, r: Replica, now: SimTime) -> Vec<Action> {
        let overdue: Vec<String> = self
            .children
            .iter()
            .filter(|(_, s)| s.pull.is_some_and(|p| now.since(p.sent) >= r.deadline))
            .map(|(key, _)| key.clone())
            .collect();
        for key in overdue {
            self.pull_failed(r, &key, now);
        }
        let due: Vec<LdapUrl> = self
            .registry
            .active(now)
            .map(|reg| &reg.message.service_url)
            .filter(|url| {
                self.children.get(&url.to_string()).is_some_and(|s| {
                    s.pull.is_none() && s.last_pull.is_none_or(|at| now.since(at) >= r.every)
                })
            })
            .cloned()
            .collect();
        let mut actions = Vec::new();
        for child in due {
            if !self.breaker_admits(&child, now) {
                continue;
            }
            if let Some(state) = self.children.get_mut(&child.to_string()) {
                state.last_pull = Some(now);
            }
            actions.extend(self.issue_pull(r, child, now, true));
        }
        actions
    }

    /// A reply from `child` that is no chained leg: the answer to its
    /// pull in flight or to the bind ahead of it, else a late reply to
    /// an abandoned pull or an expired query, which is dropped.
    fn pull_reply(&mut self, child: &LdapUrl, reply: GripReply, now: SimTime) -> Vec<Action> {
        let key = child.to_string();
        let id = reply.id();
        let state = self.children.get_mut(&key);
        let flight = state.and_then(|s| s.pull.take_if(|p| p.id == id));
        let (Some(r), Some(InFlight { sent, .. })) = (self.config.replica(), flight) else {
            return Vec::new();
        };
        let (full, entries, deletes) = match reply {
            GripReply::BindResult { ok, .. } => {
                // Whether or not the bind succeeded, proceed to the
                // pull without binding again: a refused bind yields the
                // child's anonymous view, and the next pull retries it.
                if let Some(state) = self.children.get_mut(&key) {
                    state.bound = ok;
                }
                return self.issue_pull(r, child.clone(), sent, false);
            }
            GripReply::SearchResult { entries, .. } => (true, entries, Vec::new()),
            GripReply::SyncDelta {
                full,
                epoch,
                version,
                at,
                entries,
                deletes,
                ..
            } => {
                if self.shared.front.enabled() {
                    let bytes: usize = entries.iter().map(|e| e.to_wire().len()).sum();
                    let gauge = self.shared.front.metrics().gauge("sync-delta-bytes");
                    gauge.set(bytes as u64);
                }
                if let Some(state) = self.children.get_mut(&key) {
                    state.sync_cookie = Some(SyncCookie { epoch, version });
                    state.sync_asof = Some(at);
                    state.last_sync = Some(now);
                }
                if full {
                    self.shared.stats.full_syncs.bump();
                } else {
                    self.shared.stats.delta_syncs.bump();
                }
                (full, entries, deletes)
            }
            // Declined (or nonsense): scored like an unanswered pull.
            _ => {
                self.pull_failed(r, &key, now);
                return Vec::new();
            }
        };
        self.child_answered(child, sent, now);
        self.ingest(r, child, full, entries, deletes, now);
        Vec::new()
    }

    /// The pull of the child at `key` was abandoned at its deadline or
    /// declined: scored against the child's circuit like a chained
    /// timeout.
    fn pull_failed(&mut self, r: Replica, key: &str, now: SimTime) {
        if let Some(state) = self.children.get_mut(key) {
            state.pull = None;
        }
        if r.pull == Pull::Sync {
            self.shared.stats.sync_failures.bump();
        }
        self.record_child_failure(key, now);
    }

    /// The one ingest path. A full payload replaces `child`'s slice of
    /// the replica; a delta deletes and upserts only what changed. Either
    /// is journaled first, updates the child's DN attribution and (when
    /// kept) its Bloom summary, and lands as one published snapshot —
    /// queries see the child's old rows or its new ones, never a mix.
    fn ingest(
        &mut self,
        r: Replica,
        child: &LdapUrl,
        full: bool,
        entries: Vec<Entry>,
        deletes: Vec<Dn>,
        now: SimTime,
    ) {
        if self.persist.is_some() {
            let (child, upserts) = (child.clone(), entries.clone());
            let op = if full {
                WalOp::Harvest {
                    child,
                    entries: upserts,
                    now,
                }
            } else {
                let deletes = deletes.clone();
                WalOp::Delta {
                    child,
                    upserts,
                    deletes,
                    now,
                }
            };
            self.wal_log(&op);
        }
        let key = child.to_string();
        let state = self
            .children
            .get_mut(&key)
            .expect("a pull reply has its child");
        let stale: Vec<Dn> = if full {
            // Collected, not inserted one by one: a child's rows arrive
            // in DIT order, so the set is built from one sorted run
            // instead of a tree descent per DN.
            let fresh = entries.iter().map(|e| e.dn().clone()).collect();
            std::mem::replace(&mut state.harvested, fresh)
                .into_iter()
                .collect()
        } else {
            for dn in &deletes {
                state.harvested.remove(dn);
            }
            state
                .harvested
                .extend(entries.iter().map(|e| e.dn().clone()));
            deletes
        };
        // Summaries are kept only by search-pulled replicas, whose every
        // reply is a full payload: the filter is rebuilt from it.
        if let Some(bits) = r.bloom_bits {
            let tokens: usize = entries.iter().map(Entry::attr_count).sum();
            let bloom = state
                .bloom
                .insert(BloomFilter::for_capacity(tokens.max(8), bits));
            for e in &entries {
                for (attr, values) in e.attrs() {
                    for v in values {
                        bloom.insert(&attr_token(attr, v.as_str()));
                    }
                }
            }
        }
        self.shared.cache.mutate(|dit| {
            for dn in &stale {
                dit.delete(dn);
            }
            for e in entries {
                dit.upsert(e);
            }
        });
    }

    /// Answer a sync pull from the lineage over the replica, redacted
    /// for the puller exactly as its searches are. Only a replica can
    /// serve deltas; other modes decline, and the puller scores the
    /// decline like a timeout.
    fn sync_reply(
        &mut self,
        client: ClientId,
        id: RequestId,
        cookie: Option<SyncCookie>,
        subtrees: &[Dn],
        now: SimTime,
    ) -> GripReply {
        if self.config.replica().is_none() {
            return front::unwilling(id);
        }
        // Catch the lineage up with whatever the cache published since
        // the last serve; a republished unchanged snapshot is an `Arc`
        // pointer comparison.
        self.lineage.observe(self.shared.cache.snapshot(), now);
        // A cookie from a different lineage incarnation (pre-restart
        // epoch) can collide numerically with this one's version; only
        // same-epoch cookies are eligible for an incremental answer.
        let delta = cookie
            .filter(|c| c.epoch == self.lineage.epoch())
            .and_then(|c| self.lineage.delta_since(c.version, subtrees));
        let full = delta.is_none();
        let (entries, deletes) = match delta {
            Some(d) => (d.upserts, d.deletes),
            None => (self.lineage.full(subtrees), Vec::new()),
        };
        let requester = self.shared.front.requester_of(client);
        let policy = &self.config.security.policy_map;
        GripReply::SyncDelta {
            id,
            full,
            epoch: self.lineage.epoch(),
            version: self.lineage.version(),
            at: self.lineage.as_of(),
            entries: entries
                .into_iter()
                .filter_map(|e| redact_stamped(policy, &requester, e))
                .collect(),
            // The puller never learns of DNs it may not see.
            deletes: deletes
                .into_iter()
                .filter(|dn| policy.acl_for(dn).visibility(&requester) != Visibility::Hidden)
                .collect(),
        }
    }

    /// Handle one GRIP request from a client.
    pub fn handle_request(
        &mut self,
        client: ClientId,
        req: GripRequest,
        now: SimTime,
    ) -> Vec<Action> {
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
    ) -> Vec<Action> {
        let read = self.read_path();
        let reply = match self
            .shared
            .front
            .request(client, req, &self.config, &read, now)
        {
            Ok(reply) => reply,
            Err(GripRequest::Search { id, spec }) => {
                return self.start_search(client, id, spec, trace, now)
            }
            Err(GripRequest::SyncPull {
                id,
                cookie,
                subtrees,
            }) => self.sync_reply(client, id, cookie, &subtrees, now),
            Err(other) => front::unwilling(other.id()),
        };
        vec![Action::Reply { client, reply }]
    }

    fn start_search(
        &mut self,
        client: ClientId,
        id: RequestId,
        spec: SearchSpec,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<Action> {
        // The monitoring namespace is served ahead of the search
        // handler: self-description answers the same way whatever the
        // mode, except that the chaining modes also fan it out to the
        // children.
        let monitoring = metrics::is_monitoring_dn(&spec.base);
        if !monitoring {
            if let Some(reply) = self.read_path().answer(client, id, &spec, trace, now) {
                return vec![Action::Reply { client, reply }];
            }
        }
        self.fan_out(client, id, spec, monitoring, trace, now)
    }

    /// Build this directory's self-description: one `mds-service` entry,
    /// one `mds-child` entry per registered child (circuit state, RTT
    /// quantiles), and one `mds-metric` entry per registry instrument,
    /// all under `service=<url>, Mds-Vo-name=monitoring`.
    fn build_monitoring(&self, now: SimTime) -> Vec<Entry> {
        let base =
            metrics::monitoring_base().child(Rdn::new("service", self.config.url.to_string()));
        let s = self.shared.stats();
        let mut entries = vec![Entry::new(base.clone())
            .with_class("mds-service")
            .with("service-type", "giis")
            .with("mode", self.config.mode.label())
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
            .with(
                "subscriptions",
                self.shared.front.subscription_count() as u64,
            )];
        // Fleet-worst federation gauges: the laggiest child defines the
        // directory's staleness. Both recover once a sick child is
        // re-admitted and resyncs.
        let front = &self.shared.front;
        if front.enabled() {
            if let Some(oldest) = self.children.values().filter_map(|s| s.sync_asof).min() {
                let gauge = front.metrics().gauge("sync-lag-us");
                gauge.set(now.since(oldest).micros());
            }
            if let Some(oldest) = self.children.values().filter_map(|s| s.last_sync).min() {
                let gauge = front.metrics().gauge("last-sync-age-us");
                gauge.set(now.since(oldest).micros());
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
        entries.extend(front.metrics().export_entries(&base));
        entries
    }

    /// Circuit-breaker gate for one request to a child. Flips a
    /// cooled-down open circuit to half-open (this request doubles as the
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
                self.shared.stats.breaker_probes.bump();
                true
            }
            Circuit::Open { .. } | Circuit::HalfOpen => {
                // At most one in-flight probe per child.
                self.shared.stats.breaker_skips.bump();
                false
            }
        }
    }

    /// Fan a search the owner could not answer locally out to the
    /// children; the answer goes out once all of them replied or the
    /// deadline passed. A search goes to the children whose registered
    /// namespace intersects its base (Figure 5), pruned by their Bloom
    /// summaries when the index keeps them. A monitoring search starts
    /// from this directory's own self-description and goes to every
    /// active child in the chaining modes (children's monitoring entries
    /// live outside their registered namespaces) and to none otherwise;
    /// it never enters the result cache, so metrics are not frozen for
    /// a TTL. The circuit breaker gates every child: an open one is
    /// skipped at once (the answer is marked partial) instead of burning
    /// the deadline, and once its cooldown lapses this query doubles as
    /// the half-open probe.
    fn fan_out(
        &mut self,
        client: ClientId,
        id: RequestId,
        spec: SearchSpec,
        monitoring: bool,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<Action> {
        self.shared.stats.work.bump_first();
        let mut merged = BTreeMap::new();
        if monitoring {
            let refresh = self.config.monitoring_refresh;
            let front = &self.shared.front;
            let own = front.monitoring_search(now, refresh, || self.build_monitoring(now));
            let Some(own) = own else {
                let reply = GripReply::SearchResult {
                    id,
                    code: ResultCode::NoSuchObject,
                    entries: Vec::new(),
                    referrals: Vec::new(),
                };
                return vec![Action::Reply { client, reply }];
            };
            merged.extend(own.iter().map(|e| (e.dn().to_string(), e.clone())));
        }
        let (timeout, candidates): (SimDuration, Vec<LdapUrl>) = match self.config.search() {
            Search::Chain { timeout } => (
                timeout,
                self.registry
                    .active(now)
                    .filter(|reg| {
                        let ns = &reg.message.namespace;
                        monitoring || ns.is_under(&spec.base) || spec.base.is_under(ns)
                    })
                    .map(|reg| reg.message.service_url.clone())
                    .collect(),
            ),
            _ => (SimDuration::from_micros(0), Vec::new()),
        };
        let routed = !monitoring
            && self
                .config
                .replica()
                .is_some_and(|r| r.bloom_bits.is_some());
        let tokens = if routed {
            prunable_tokens(&spec.filter)
        } else {
            Vec::new()
        };
        let mut targets = Vec::new();
        let mut partial = false;
        for child in candidates {
            let pruned = !tokens.is_empty()
                && self
                    .children
                    .get(&child.to_string())
                    .and_then(|s| s.bloom.as_ref())
                    .is_some_and(|b| tokens.iter().any(|t| !b.may_contain(t)));
            if pruned {
                self.shared.stats.bloom_pruned.bump();
            } else if self.breaker_admits(&child, now) {
                targets.push(child);
            } else {
                partial = true;
            }
        }

        let requester = self.shared.front.requester_of(client);
        let query = self.next_query;
        self.next_query += 1;
        // Allocate this query's own span up front: chained children
        // parent onto it, and the context each child receives descends
        // from it.
        let new_span = |shared: &Shared| shared.front.open_span(trace).map(|(_, span)| span);
        let own_span = new_span(&self.shared);
        let mut actions = Vec::with_capacity(targets.len() + 1);
        let mut outstanding = Vec::with_capacity(targets.len());
        for child in targets {
            let span = new_span(&self.shared);
            let (out_id, send) = self.send_leg(query, child, now, span, &spec, trace);
            self.shared.stats.chained_requests.bump();
            outstanding.push(out_id);
            actions.push(send);
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
                outstanding,
                merged,
                referrals: Vec::new(),
                partial,
                degraded: false,
                deadline: now + timeout,
                retry_at,
                spec,
                requester,
                // An instant no-children answer is never cached: a child
                // registering a moment later should become visible at
                // the next query, not a TTL later.
                cacheable: !monitoring && !done,
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

    /// Send one chained leg of `query` to `child`, first sent at `sent`;
    /// a traced leg's `span` is the parent of the child's spans.
    fn send_leg(
        &mut self,
        query: u64,
        child: LdapUrl,
        sent: SimTime,
        span: Option<u64>,
        spec: &SearchSpec,
        trace: Option<TraceContext>,
    ) -> (u64, Action) {
        let id = self.next_id();
        let leg = Leg {
            query,
            child: child.clone(),
            sent,
            span,
        };
        self.outbound.insert(id, leg);
        let send = Action::SendRequest {
            to: child,
            request: GripRequest::Search {
                id,
                spec: spec.clone(),
            },
            trace: trace.zip(span).map(|(ctx, parent)| TraceContext {
                trace: ctx.trace,
                parent,
            }),
        };
        (id, send)
    }

    /// Handle a GRIP reply arriving from a child server.
    pub fn handle_reply(&mut self, from: &LdapUrl, reply: GripReply, now: SimTime) -> Vec<Action> {
        let out_id = reply.id();
        let Some(Leg {
            query,
            child,
            sent,
            span,
        }) = self.outbound.remove(&out_id)
        else {
            return self.pull_reply(from, reply, now);
        };
        debug_assert_eq!(&child, from, "reply source mismatch");
        self.child_answered(&child, sent, now);
        let outcome = match &reply {
            GripReply::SearchResult { code, .. } => code.label(),
            _ => "reply",
        };
        self.note_chain_span(query, &child, sent, span, now, outcome);
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
                    // The child will not tell *us*; point the client at
                    // it directly (§10.4's referral fallback in the
                    // absence of delegation).
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
                let row = p.merged.entry(e.dn().to_string());
                row.and_modify(|existing| existing.merge_from(&e))
                    .or_insert(e);
            }
            p.referrals.extend(referrals);
        }
        if p.outstanding.is_empty() {
            return self.finalize(query, now);
        }
        Vec::new()
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
        let (Some(sink), Some(span)) = (self.shared.front.sink(), span) else {
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

    /// `child` answered a request sent at `sent`. Any reply, whatever
    /// its code, proves the child reachable: it feeds the RTT histogram,
    /// resets the failure streak and closes the circuit (a successful
    /// half-open probe re-admits the child).
    fn child_answered(&mut self, child: &LdapUrl, sent: SimTime, now: SimTime) {
        let Some(state) = self.children.get_mut(&child.to_string()) else {
            return;
        };
        if self.shared.front.enabled() {
            state.rtt.record(now.since(sent).micros());
        }
        if self.config.breaker.is_some() {
            state.consec_failures = 0;
            if state.circuit != Circuit::Closed {
                state.circuit = Circuit::Closed;
                self.shared.stats.breaker_closes.bump();
            }
        }
    }

    /// Breaker bookkeeping: a request to the child at `key` timed out or
    /// was declined.
    fn record_child_failure(&mut self, key: &str, now: SimTime) {
        let Some(bk) = self.config.breaker else {
            return;
        };
        let Some(state) = self.children.get_mut(key) else {
            return;
        };
        match state.circuit {
            Circuit::HalfOpen => {
                // The probe went unanswered: rest for another cooldown.
                state.circuit = Circuit::Open {
                    until: now + bk.cooldown,
                };
                self.shared.stats.breaker_reopens.bump();
            }
            Circuit::Open { .. } => {}
            Circuit::Closed => {
                state.consec_failures += 1;
                if state.consec_failures >= bk.failure_threshold {
                    state.circuit = Circuit::Open {
                        until: now + bk.cooldown,
                    };
                    self.shared.stats.breaker_opens.bump();
                }
            }
        }
    }

    fn finalize(&mut self, query: u64, now: SimTime) -> Vec<Action> {
        let Some(p) = self.pending.remove(&query) else {
            return Vec::new();
        };
        // The GIIS applies its own policy on top of whatever the
        // children released to it.
        let policy = &self.config.security.policy_map;
        let entries: Vec<Entry> = p
            .merged
            .values()
            .filter_map(|e| release(policy, &p.spec, &p.requester, e))
            .take(size_limit(&p.spec))
            .collect();
        let code = if p.partial || !p.outstanding.is_empty() {
            ResultCode::PartialResults
        } else if p.degraded {
            // Complete, but some child served last-known-good entries.
            ResultCode::StaleResults
        } else {
            ResultCode::Success
        };
        self.shared.stats.entries_returned.add(entries.len() as u64);
        self.shared
            .stats
            .referrals_issued
            .add(p.referrals.len() as u64);
        let span = p.trace.zip(p.span);
        let (url, outcome) = (&self.config.url, code.label());
        let front = &self.shared.front;
        front.searched("giis.search", url, span, p.started_at, now, outcome);
        if p.cacheable && self.config.result_cache_ttl.is_some() && code == ResultCode::Success {
            // Partial answers are never cached: a healed partition should
            // become visible at the next query, not a TTL later.
            self.shared.result_cache.write().insert(
                cache_key(&p.spec, &p.requester),
                CachedResult {
                    at: now,
                    entries: entries.clone(),
                    referrals: p.referrals.clone(),
                },
            );
        }
        vec![Action::Reply {
            client: p.client,
            reply: GripReply::SearchResult {
                id: p.client_req,
                code,
                entries,
                referrals: p.referrals,
            },
        }]
    }

    /// Advance timers: registry sweep, parent registrations, replica
    /// pulls, fan-out deadlines, and subscription deliveries. Call at
    /// least as often as the finest deadline granularity required.
    pub fn tick(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();

        // Keep the monitoring snapshot warm (soft-state refresh).
        let refresh = self.config.monitoring_refresh;
        let build = || self.build_monitoring(now);
        self.shared.front.monitoring(now, refresh, build);

        // Soft-state sweep: purge expired children, their cache rows
        // (one published snapshot for the whole sweep) and their pulls
        // in flight. Journaled only when something *can* expire — sweeps
        // are idempotent on replay, but an unconditional record per tick
        // would bloat the WAL.
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
            self.shared.stats.expirations.bump();
            if let Some(state) = self.children.remove(&url.to_string()) {
                purged.extend(state.harvested);
            }
        }
        if !purged.is_empty() {
            self.shared.cache.mutate(|dit| {
                for dn in &purged {
                    dit.delete(dn);
                }
            });
        }

        // Result-cache expiry (bound memory; stale rows are useless).
        if let Some(ttl) = self.config.result_cache_ttl {
            self.shared
                .result_cache
                .write()
                .retain(|_, c| now.since(c.at) < ttl);
        }

        // Own registrations to parent directories.
        actions.extend(front::registrations(&mut self.agent, &self.config, now));

        if let Some(r) = self.config.replica() {
            actions.extend(self.schedule_pulls(r, now));
        }

        // Subscription deliveries (local modes only; the table is empty
        // otherwise).
        actions.extend(self.shared.front.deliveries(&self.read_path(), now));

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
            let legs = self.take_legs(query);
            let Some(p) = self.pending.get_mut(&query) else {
                continue;
            };
            p.retry_at = None;
            let (spec, trace) = (p.spec.clone(), p.trace);
            for (child, sent, span) in legs {
                // The retry reuses the leg's span and keeps its original
                // send time, so its RTT and span cover first send to
                // eventual reply.
                let (id, send) = self.send_leg(query, child, sent, span, &spec, trace);
                self.shared.stats.chain_retries.bump();
                if let Some(p) = self.pending.get_mut(&query) {
                    p.outstanding.push(id);
                }
                actions.push(send);
            }
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
            self.shared.stats.timeouts.bump();
            for (child, sent, span) in self.take_legs(query) {
                self.note_chain_span(query, &child, sent, span, now, "timeout");
                self.record_child_failure(&child.to_string(), now);
            }
            if let Some(p) = self.pending.get_mut(&query) {
                p.partial = true;
            }
            actions.extend(self.finalize(query, now));
        }

        // Snapshot on cadence: compact the WAL into a fresh checkpoint.
        if self.persist.as_ref().is_some_and(Journal::wants_snapshot) {
            self.snapshot_persist();
        }

        actions
    }

    /// Take `query`'s unanswered legs (child, first send, span) out of
    /// the outbound table.
    fn take_legs(&mut self, query: u64) -> Vec<(LdapUrl, SimTime, Option<u64>)> {
        let Some(p) = self.pending.get_mut(&query) else {
            return Vec::new();
        };
        std::mem::take(&mut p.outstanding)
            .into_iter()
            .filter_map(|id| self.outbound.remove(&id))
            .map(|leg| (leg.child, leg.sent, leg.span))
            .collect()
    }

    /// The engine's front: sessions, subscriptions, instruments.
    pub fn front(&self) -> &Front {
        &self.shared.front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_gsi::SecurityPolicy;
    use gis_netsim::{ms, secs};
    use gis_proto::{TraceId, TraceSink};

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

    fn search_actions(giis: &mut Giis, base: &str, filter: &str, now: SimTime) -> Vec<Action> {
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
        let sends: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a, Action::SendRequest { .. }))
            .collect();
        assert_eq!(sends.len(), 2);

        // Children reply.
        let mut out_ids = Vec::new();
        for a in &actions {
            if let Action::SendRequest { request, .. } = a {
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
            Action::Reply {
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
                Action::SendRequest { to, .. } => Some(to),
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
                Action::SendRequest { request, .. } => Some(request.id()),
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
            [Action::Reply {
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
            Action::SendRequest { request, .. } => request.id(),
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
            Action::Reply {
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
            [Action::Reply {
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
            [Action::SendRequest { to, request, .. }] => {
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
            [Action::Reply {
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
                [Action::SendRequest { request, .. }] => request.id(),
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
                Action::SendRequest { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![&url("gris.a")]);
        assert_eq!(giis.stats().bloom_pruned, 1);

        // A presence query cannot be pruned: both children consulted.
        let actions = search_actions(&mut giis, "", "(system=*)", t(1));
        let sends = actions
            .iter()
            .filter(|a| matches!(a, Action::SendRequest { .. }))
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
            Action::SendRequest { request, .. } => request.id(),
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
            [Action::Reply {
                reply: GripReply::SearchResult { entries, .. },
                ..
            }] => assert_eq!(entries.len(), 1),
            other => panic!("expected cached reply, got {other:?}"),
        }
        assert_eq!(giis.stats().chained_requests, 1, "no second fan-out");
        assert_eq!(giis.stats().result_cache_hits, 1);

        // A *different* query is not served from the cache.
        let actions = search_actions(&mut giis, "", "(objectclass=computer)", t(6));
        assert!(matches!(actions[0], Action::SendRequest { .. }));

        // Past the TTL the original query chains again.
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(20));
        assert!(matches!(actions[0], Action::SendRequest { .. }));
    }

    #[test]
    fn result_cache_never_stores_partial_results() {
        let mut config = GiisConfig::chaining(url("giis.cached"), Dn::root());
        config.result_cache_ttl = Some(secs(100));
        let mut giis = Giis::new(config, secs(30), secs(300));
        giis.handle_grrp(reg("gris.a", "hn=a", t(0)), t(0));

        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(1));
        let out_id = match &actions[0] {
            Action::SendRequest { request, .. } => request.id(),
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
            matches!(actions[0], Action::SendRequest { .. }),
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
            [Action::SendRequest {
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
            [Action::SendRequest {
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
                Action::SendRequest {
                    request: GripRequest::Search { .. },
                    ..
                }
            )),
            "refresh harvest goes straight to search: {actions:?}"
        );
    }

    #[test]
    fn credentialed_sync_pull_binds_first() {
        use gis_gsi::CertAuthority;
        let ca = CertAuthority::new("/O=Grid/CN=CA", 77);
        let mut config = GiisConfig::federated(url("giis.fed"), Dn::root(), secs(60), secs(5));
        config.security =
            SecurityPolicy::anonymous().with_credential(ca.issue("/O=Grid/CN=giis.fed"));
        let mut giis = Giis::new(config, secs(30), secs(90));
        let actions = giis.handle_grrp(reg("giis.site", "o=site", t(0)), t(0));
        let bind_id = match &actions[..] {
            [Action::SendRequest {
                request: GripRequest::Bind { id, .. },
                ..
            }] => *id,
            other => panic!("expected bind, got {other:?}"),
        };
        let actions = giis.handle_reply(
            &url("giis.site"),
            GripReply::BindResult {
                id: bind_id,
                ok: true,
                subject: Some("/O=Grid/CN=giis.fed".into()),
            },
            t(0),
        );
        assert!(
            matches!(
                &actions[..],
                [Action::SendRequest {
                    request: GripRequest::SyncPull { cookie: None, .. },
                    ..
                }]
            ),
            "a bound puller then syncs: {actions:?}"
        );
        assert_eq!(giis.stats().sync_pulls, 1);
    }

    #[test]
    fn refused_bind_still_pulls() {
        use gis_gsi::CertAuthority;
        let ca = CertAuthority::new("/O=Grid/CN=CA", 78);
        for mode in [
            GiisMode::Harvest { refresh: secs(60) },
            GiisMode::Federated {
                interval: secs(60),
                deadline: secs(5),
            },
        ] {
            let mut config = GiisConfig::chaining(url("giis.p"), Dn::root());
            config.mode = mode;
            config.security =
                SecurityPolicy::anonymous().with_credential(ca.issue("/O=Grid/CN=giis.p"));
            let mut giis = Giis::new(config, secs(30), secs(90));
            let actions = giis.handle_grrp(reg("gris.anon", "hn=a", t(0)), t(0));
            let bind_id = match &actions[..] {
                [Action::SendRequest {
                    request: GripRequest::Bind { id, .. },
                    ..
                }] => *id,
                other => panic!("{mode:?}: expected bind, got {other:?}"),
            };
            // A child without a trust store refuses every bind.
            let refused = GripReply::BindResult {
                id: bind_id,
                ok: false,
                subject: None,
            };
            let actions = giis.handle_reply(&url("gris.anon"), refused, t(0));
            let pulled = matches!(
                (&actions[..], mode),
                (
                    [Action::SendRequest {
                        request: GripRequest::Search { .. },
                        ..
                    }],
                    GiisMode::Harvest { .. },
                ) | (
                    [Action::SendRequest {
                        request: GripRequest::SyncPull { .. },
                        ..
                    }],
                    GiisMode::Federated { .. },
                )
            );
            assert!(
                pulled,
                "{mode:?}: a refused bind goes on to the anonymous pull: {actions:?}"
            );
            assert_eq!(giis.stats().harvests + giis.stats().sync_pulls, 1);
        }
    }

    #[test]
    fn hierarchy_registration_flows_upward() {
        let mut giis = chaining_giis();
        giis.agent.add_target(url("giis.root"));
        let actions = giis.tick(t(0));
        match &actions[..] {
            [Action::SendGrrp { to, message }] => {
                assert_eq!(to, &url("giis.root"));
                assert_eq!(message.service_url, url("giis.vo"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn credentialed_child_joins_a_verifying_parent() {
        use gis_gsi::{CertAuthority, TrustStore};
        let ca = CertAuthority::new("/O=Grid/CN=CA", 47);
        let mut trust = TrustStore::new();
        trust.add_ca(&ca);
        let secured = |name: &str| {
            let mut config = GiisConfig::chaining(url(name), Dn::root());
            let cred = ca.issue(format!("/O=Grid/CN={name}"));
            config.security = SecurityPolicy::authenticated(cred, trust.clone());
            Giis::new(config, secs(30), secs(90))
        };
        let mut child = secured("giis.site");
        let mut parent = secured("giis.root");
        assert!(parent.config.security.verifies_registrations());
        child.agent.add_target(url("giis.root"));
        for action in child.tick(t(0)) {
            if let Action::SendGrrp { message, .. } = action {
                assert!(message.signature.is_some(), "registration is signed");
                parent.handle_grrp(message, t(0));
            }
        }
        assert_eq!(parent.active_children(t(1)), vec![url("giis.site")]);
        assert_eq!(parent.stats().grrp_rejected, 0);
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
            Action::SendGrrp { to, message } => {
                assert_eq!(to, url("giis.vo"));
                giis.handle_grrp(message, t(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let actions = giis.tick(t(0));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SendGrrp { to, .. } if to == &url("giis.parent")
        )));
    }

    #[test]
    fn empty_directory_answers_empty() {
        let mut giis = chaining_giis();
        let actions = search_actions(&mut giis, "", "(objectclass=*)", t(0));
        match &actions[..] {
            [Action::Reply {
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
            [Action::SendRequest { request, .. }] => request.id(),
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
            [Action::Reply {
                reply: GripReply::Update { entries, .. },
                ..
            }] => assert_eq!(entries.len(), 1, "initial snapshot"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(giis.shared.front.subscription_count(), 1);

        // No change, no update.
        assert!(giis.tick(t(5)).iter().all(|a| !matches!(
            a,
            Action::Reply {
                reply: GripReply::Update { .. },
                ..
            }
        )));

        // A second child registers and is harvested: the set changes.
        let actions = giis.handle_grrp(reg("gris.b", "hn=b", t(6)), t(6));
        let out_id = match &actions[..] {
            [Action::SendRequest { request, .. }] => request.id(),
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
                    Action::Reply {
                        reply: GripReply::Update { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(updates.len(), 1, "change delivered");
        match &updates[0] {
            Action::Reply {
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
                    Action::Reply {
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
            [Action::Reply {
                reply: GripReply::SubscriptionDone {
                    code: ResultCode::Success,
                    ..
                },
                ..
            }]
        ));
        assert_eq!(giis.shared.front.subscription_count(), 0);
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

    fn search_id(giis: &mut Giis, id: u64, now: SimTime) -> Vec<Action> {
        giis.handle_request(
            1,
            GripRequest::Search {
                id,
                spec: SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=*)").unwrap()),
            },
            now,
        )
    }

    fn sends(actions: &[Action]) -> Vec<(LdapUrl, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::SendRequest { to, request, .. } => Some((to.clone(), request.id())),
                _ => None,
            })
            .collect()
    }

    fn ok_reply(giis: &mut Giis, child: &str, id: u64, now: SimTime) -> Vec<Action> {
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
            [Action::Reply {
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
            [Action::Reply {
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
            [Action::Reply {
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
            [Action::Reply {
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
            [Action::Reply {
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
            if let Action::SendRequest { to, request, .. } = a {
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
            [Action::Reply {
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
            [Action::Reply {
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
        giis.front().set_trace_sink(Arc::clone(&sink));
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
            if let Action::SendRequest {
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
            Action::SendRequest { request, .. } => request.id(),
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
            [Action::SendRequest { request, .. }] => request.id(),
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

    /// Pull `giis` with a sync request from `client`: (full, entries,
    /// deletes, cookie of the reply).
    fn sync_pull(
        giis: &mut Giis,
        client: ClientId,
        cookie: Option<SyncCookie>,
        now: SimTime,
    ) -> (bool, Vec<Entry>, Vec<Dn>, SyncCookie) {
        let request = GripRequest::SyncPull {
            id: 5,
            cookie,
            subtrees: Vec::new(),
        };
        match giis.handle_request(client, request, now).as_slice() {
            [Action::Reply {
                reply:
                    GripReply::SyncDelta {
                        full,
                        epoch,
                        version,
                        entries,
                        deletes,
                        ..
                    },
                ..
            }] => (
                *full,
                entries.clone(),
                deletes.clone(),
                SyncCookie {
                    epoch: *epoch,
                    version: *version,
                },
            ),
            other => panic!("expected a sync reply, got {other:?}"),
        }
    }

    #[test]
    fn sync_pull_is_redacted_for_the_puller() {
        use gis_gsi::{Acl, Grant, Principal};
        let mut config = GiisConfig::chaining(url("giis.h"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(60) };
        // Anonymous users see hosts without their `secret`, and not
        // `hn=b` at all; authenticated users see everything.
        let mut policy = PolicyMap::with_default(
            Acl::default()
                .with_rule(
                    Principal::Anonymous,
                    Grant::Attrs(vec!["objectclass".into(), "system".into()]),
                )
                .with_rule(Principal::Authenticated, Grant::All),
        );
        policy.set(Dn::parse("hn=b").unwrap(), Acl::authenticated_only());
        config.security.policy_map = policy;
        let mut giis = Giis::new(config, secs(30), secs(300));
        let host = |hn: &str| {
            Entry::at(&format!("hn={hn}"))
                .unwrap()
                .with_class("computer")
                .with("system", "linux")
                .with("secret", "s3cr3t")
        };
        let actions = giis.handle_grrp(reg("gris.a", "", t(0)), t(0));
        let harvest = sends(&actions)[0].1;
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: harvest,
                code: ResultCode::Success,
                entries: vec![host("a"), host("b")],
                referrals: vec![],
            },
            t(0),
        );
        // Client 2 proved its identity on the transport.
        giis.query_path()
            .front()
            .authenticate_session(2, Requester::subject("/O=Grid/CN=root"));

        let (full, anon, _, anon_cookie) = sync_pull(&mut giis, 1, None, t(1));
        assert!(full);
        assert_eq!(anon.len(), 1, "hn=b is hidden from anonymous pullers");
        assert!(!anon[0].has("secret"), "anonymous pull leaks: {anon:?}");
        assert_eq!(anon[0].get_str("system"), Some("linux"));
        assert!(
            gis_ldap::fresh_at(&anon[0]).is_some(),
            "lineage stamps survive redaction"
        );
        let (_, bound, _, bound_cookie) = sync_pull(&mut giis, 2, None, t(1));
        assert_eq!(bound.len(), 2);
        assert!(bound.iter().all(|e| e.has("secret")), "{bound:?}");

        // The child drops hn=b: only the bound puller learns of it.
        giis.handle_grrp(reg("gris.a", "", t(50)), t(50));
        let harvest = sends(&giis.tick(t(61)))[0].1;
        giis.handle_reply(
            &url("gris.a"),
            GripReply::SearchResult {
                id: harvest,
                code: ResultCode::Success,
                entries: vec![host("a")],
                referrals: vec![],
            },
            t(61),
        );
        let (full, _, deletes, _) = sync_pull(&mut giis, 1, Some(anon_cookie), t(62));
        assert!(!full);
        assert!(deletes.is_empty(), "hidden delete leaked: {deletes:?}");
        let (full, _, deletes, _) = sync_pull(&mut giis, 2, Some(bound_cookie), t(62));
        assert!(!full);
        assert_eq!(deletes, vec![Dn::parse("hn=b").unwrap()]);
    }

    #[test]
    fn silent_child_keeps_at_most_one_pull_in_flight() {
        let mut config = GiisConfig::chaining(url("giis.h"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(10) };
        let mut giis = Giis::new(config, secs(30), secs(90));
        giis.handle_grrp(reg("gris.silent", "hn=s", t(0)), t(0));
        for round in 1..=10 {
            // The child keeps refreshing its registration but never
            // answers a harvest.
            let now = t(round * 10);
            giis.handle_grrp(reg("gris.silent", "hn=s", now), now);
            giis.tick(now);
            let pulls = giis.children.values().filter(|s| s.pull.is_some()).count();
            let outstanding = giis.outbound.len() + pulls;
            assert!(
                outstanding <= 1,
                "round {round}: {outstanding} requests outstanding"
            );
        }
        assert_eq!(giis.stats().harvests, 11, "one harvest per refresh");
    }

    #[test]
    fn harvest_slower_than_refresh_is_abandoned() {
        let mut config = GiisConfig::chaining(url("giis.h"), Dn::root());
        config.mode = GiisMode::Harvest { refresh: secs(10) };
        let mut giis = Giis::new(config, secs(30), secs(90));
        let harvest_id = |actions: &[Action]| match actions {
            [Action::SendRequest {
                request: GripRequest::Search { id, .. },
                ..
            }] => *id,
            other => panic!("expected harvest, got {other:?}"),
        };
        let answer = |id| GripReply::SearchResult {
            id,
            code: ResultCode::Success,
            entries: vec![Entry::at("hn=s").unwrap().with_class("computer")],
            referrals: vec![],
        };
        let first = harvest_id(&giis.handle_grrp(reg("gris.slow", "hn=s", t(0)), t(0)));
        // A harvest gets one refresh interval to answer: at the next
        // refresh it is abandoned and a fresh one replaces it.
        let second = harvest_id(&giis.tick(t(10)));
        assert_ne!(first, second);
        giis.handle_reply(&url("gris.slow"), answer(first), t(11));
        assert_eq!(giis.cached_entries(), 0, "the late reply is dropped");
        // A reply inside the interval lands.
        giis.handle_reply(&url("gris.slow"), answer(second), t(12));
        assert_eq!(giis.cached_entries(), 1);
    }
}

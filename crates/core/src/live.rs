//! Live multi-threaded runtime: the same GRIS/GIIS engines that run in
//! the simulator, executed over real OS threads and crossbeam channels.
//!
//! A shared [`Router`] plays the network. Clock readings map wall time
//! onto [`SimTime`] from the runtime's epoch, so every soft-state TTL and
//! cache TTL behaves identically to the simulated runtime. This
//! demonstrates the architecture's transport independence and provides
//! the substrate for the parallel-client throughput benchmarks.
//!
//! # Threading model
//!
//! GRIS and GIIS run through one generic driver over the
//! [`Service`] trait. Each service has one *owner* thread that holds the
//! engine (`&mut`) and performs every mutation: GRRP soft-state, harvest
//! integration, chained fan-out correlation, subscriptions, and the
//! periodic `tick`. It drains its inbox in batches of up to
//! `OWNER_BATCH` messages under a TCP write cork and ticks once per
//! batch. With [`ServeOptions`]` { workers: N, .. }`, N extra *query
//! worker* threads pull from the service's shared inbox and answer the
//! read path concurrently through the engine's cloneable
//! [`QueryPath`]; anything a worker cannot handle (binds,
//! subscriptions, GRRP, cache-missing chained searches) is forwarded to
//! the owner's private channel. `workers = 0` (the default) keeps the
//! owner consuming the inbox directly — the single-thread loop.
//!
//! # Transports
//!
//! A service with an `ldap://` URL stays in-process. A `tcp://host:port`
//! service URL adds a real listener in front of the same inbox: framed
//! GRIP/GRRP from other OS processes flows through identical worker
//! pools, tracing envelopes and monitoring namespaces (see
//! [`crate::transport`]). Messages the
//! router sees *for* a `tcp://` URL go out over pooled real connections,
//! so a parent GIIS chains to networked children transparently.

use crate::service::{Action, QueryPath, Service};
pub use crate::transport::TcpTuning;
use crate::transport::{
    AuthCallback, BoundEndpoint, ClientConn, ConnCallback, ConnTable, InlineHandler, OutboundCork,
    OutboundSecurity, RecvFail, ReplyCork, TcpEndpoint, TcpOutbound, WireSecurity,
};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use gis_giis::Giis;
use gis_gris::Gris;
use gis_gsi::{Requester, SecurityPolicy};
use gis_ldap::{Entry, LdapUrl};
use gis_netsim::{SimRng, SimTime};
use gis_proto::{
    Gauge, GripReply, GripRequest, GrrpMessage, Histogram, ProtocolMessage, RequestId, ResultCode,
    SearchSpec, SpanRecord, TraceContext, TraceId, TraceSink,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a message came from / should go back to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Address {
    /// A client handle.
    Client(u64),
    /// A service, by URL string (chained requests).
    Service(String),
    /// A remote peer on an accepted TCP connection (the id indexes the
    /// runtime's connection table); replies are framed back over the
    /// socket the request arrived on.
    Tcp(u64),
}

/// Messages carried between live threads.
#[derive(Debug)]
pub enum LiveMsg {
    /// A GRIP request with its reply address.
    Request {
        /// Who asked.
        from: Address,
        /// The request.
        request: GripRequest,
        /// Trace context, when the request is part of a traced query
        /// (the live analogue of the `ProtocolMessage::Traced` envelope).
        trace: Option<TraceContext>,
        /// When the message entered the queue it currently waits in
        /// (input to the `inbox-wait-us` histogram; reset on forward to
        /// the owner so each reading measures one queue).
        enqueued: Instant,
    },
    /// A GRIP reply delivered to a *service* (chained-query responses).
    ReplyToService {
        /// URL of the replying server.
        from_url: String,
        /// The reply.
        reply: GripReply,
    },
    /// A GRRP notification, with the connection it arrived on when it
    /// came over TCP (`None` for in-process registrations). Directories
    /// that verify signatures use the origin to answer rejections.
    Grrp(GrrpMessage, Option<Address>),
    /// Control message: re-announce to registration targets immediately
    /// (sent by the runtime when a paused service is resumed).
    Reannounce,
    /// Control message: the TCP connection behind this client id closed;
    /// the owner drops the client's sessions and subscriptions.
    Closed(u64),
    /// Stop the service thread.
    Shutdown,
}

/// Interns reply addresses as the `u64` client ids the engines key
/// sessions by. Shared between a service's owner thread, its query
/// workers and its TCP callbacks so an id minted by any of them means
/// the same address. The `interned-clients` gauge tracks its size.
#[derive(Clone)]
struct ClientInterner {
    inner: Arc<Mutex<InternerState>>,
    size: Arc<Gauge>,
    /// The runtime's accepted connections: an `Address::Tcp` is minted
    /// an id only while its connection is open.
    conns: Arc<ConnTable>,
}

struct InternerState {
    ids: HashMap<Address, u64>,
    addrs: HashMap<u64, Address>,
    next: u64,
}

impl ClientInterner {
    fn new(size: Arc<Gauge>, conns: Arc<ConnTable>) -> ClientInterner {
        ClientInterner {
            inner: Arc::new(Mutex::new(InternerState {
                ids: HashMap::new(),
                addrs: HashMap::new(),
                next: 1,
            })),
            size,
            conns,
        }
    }

    /// The client id of `addr`, minted on first sight. `None` for a TCP
    /// connection that has closed: a request it left queued must not
    /// bring back the session its close dropped. The connection leaves
    /// the table before its close forgets the id, and both checks run
    /// under this lock, so an id minted here is always forgotten later.
    fn intern(&self, addr: &Address) -> Option<u64> {
        let mut s = self.inner.lock();
        if let Some(&id) = s.ids.get(addr) {
            return Some(id);
        }
        if let Address::Tcp(conn) = addr {
            if !self.conns.is_open(*conn) {
                return None;
            }
        }
        let id = s.next;
        s.next += 1;
        s.ids.insert(addr.clone(), id);
        s.addrs.insert(id, addr.clone());
        self.size.set(s.ids.len() as u64);
        Some(id)
    }

    fn address_of(&self, id: u64) -> Option<Address> {
        self.inner.lock().addrs.get(&id).cloned()
    }

    /// Drop `addr` (its connection closed), returning the id it held.
    /// Never mints one: teardown must not create sessions for peers
    /// that never spoke. Connection ids are never reused, so a late
    /// reply to the forgotten id is dropped, as for a vanished socket.
    fn forget(&self, addr: &Address) -> Option<u64> {
        let mut s = self.inner.lock();
        let id = s.ids.remove(addr)?;
        s.addrs.remove(&id);
        self.size.set(s.ids.len() as u64);
        Some(id)
    }
}

/// Injected fault state for one service's inbound link, mirroring the
/// simulator's [`gis_netsim::LinkConfig`] loss/latency knobs plus the
/// crash-style `paused` blackhole.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceFault {
    /// Probability in `[0, 1]` that an inbound message is dropped.
    pub drop: f64,
    /// Extra delivery latency added to every inbound message.
    pub latency: Duration,
    /// When true, all inbound traffic is discarded (the live analogue of
    /// a simulator crash or partition: the thread keeps running but the
    /// network no longer reaches it).
    pub paused: bool,
}

/// The fault-injection plan attached to the live [`Router`]: per-service
/// fault state plus a seeded RNG so drop decisions replay deterministically
/// for a given seed and message order.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<String, ServiceFault>,
    rng: Option<SimRng>,
}

/// What the fault plan decided for one message.
enum Verdict {
    Deliver,
    DeliverAfter(Duration),
    DropFault,
    DropPaused,
}

impl FaultPlan {
    fn verdict(&mut self, url: &str) -> Verdict {
        let Some(fault) = self.faults.get(url) else {
            return Verdict::Deliver;
        };
        if fault.paused {
            return Verdict::DropPaused;
        }
        if fault.drop > 0.0 {
            let hit = self
                .rng
                .get_or_insert_with(|| SimRng::new(0))
                .chance(fault.drop);
            if hit {
                return Verdict::DropFault;
            }
        }
        if fault.latency > Duration::ZERO {
            return Verdict::DeliverAfter(fault.latency);
        }
        Verdict::Deliver
    }
}

/// Counters the live router keeps, mirroring the simulator's
/// [`gis_netsim::NetMetrics`]: every send is accounted for, including the
/// previously-invisible drops to unknown services.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveNetMetrics {
    /// Messages handed to the router for a service.
    pub sent: u64,
    /// Messages placed on a service inbox.
    pub delivered: u64,
    /// Drops because no service with that URL is registered (killed,
    /// never spawned, or mis-addressed).
    pub dropped_unknown: u64,
    /// Drops from an injected loss probability.
    pub dropped_fault: u64,
    /// Drops because the destination service is paused.
    pub dropped_paused: u64,
    /// Deliveries that had injected latency applied.
    pub delayed: u64,
    /// Messages routed to a `tcp://` URL over a real connection (framed
    /// requests and GRRP notifications; replies are not counted again).
    pub remote: u64,
}

#[derive(Default)]
struct RouterCounters {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped_unknown: AtomicU64,
    dropped_fault: AtomicU64,
    dropped_paused: AtomicU64,
    delayed: AtomicU64,
    remote: AtomicU64,
}

/// The shared "network": routes messages to service inboxes and client
/// reply channels, applying the [`FaultPlan`] on the way. Messages for
/// `tcp://` URLs leave the process instead: they are framed onto pooled
/// real connections ([`TcpOutbound`]), and replies arriving on accepted
/// connections flow back through the [`ConnTable`].
#[derive(Default)]
pub struct Router {
    services: RwLock<HashMap<String, Sender<LiveMsg>>>,
    clients: RwLock<HashMap<u64, Sender<GripReply>>>,
    faults: Mutex<FaultPlan>,
    counters: RouterCounters,
    tcp_conns: Arc<ConnTable>,
    outbound: TcpOutbound,
}

impl Router {
    fn send_to_service(self: &Arc<Self>, url: &str, msg: LiveMsg) {
        self.counters.sent.fetch_add(1, Ordering::Relaxed);
        if url.starts_with("tcp://") {
            // Real-socket path, even when the target service happens to
            // live in this process: a tcp:// URL means the wire. The
            // fault plan does not apply — TCP peers fail like real ones
            // (refused connects, deadlines, dropped connections).
            self.send_remote(url, msg);
            return;
        }
        match self.faults.lock().verdict(url) {
            Verdict::Deliver => self.deliver(url, msg),
            Verdict::DropFault => {
                self.counters.dropped_fault.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::DropPaused => {
                self.counters.dropped_paused.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::DeliverAfter(delay) => {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                let router = Arc::clone(self);
                let url = url.to_owned();
                std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    router.deliver(&url, msg);
                });
            }
        }
    }

    /// Route a message addressed to a `tcp://` URL over the outbound
    /// connection pool. Requests carry a completion sink that feeds the
    /// reply back to the in-process requester; a transport failure posts
    /// *nothing*, so the requester's own deadline machinery (client
    /// retry, GIIS fan-out timeout + circuit breaker) observes exactly
    /// what it would observe from a silent real network.
    fn send_remote(self: &Arc<Self>, url: &str, msg: LiveMsg) {
        let Ok(peer) = LdapUrl::parse(url).map(|u| u.authority()) else {
            self.counters
                .dropped_unknown
                .fetch_add(1, Ordering::Relaxed);
            return;
        };
        match msg {
            LiveMsg::Request {
                from,
                request,
                trace,
                ..
            } => {
                let frame = match trace {
                    Some(ctx) => ProtocolMessage::Request(request).traced(ctx),
                    None => ProtocolMessage::Request(request),
                };
                self.counters.remote.fetch_add(1, Ordering::Relaxed);
                let router = Arc::clone(self);
                let from_url = url.to_owned();
                self.outbound.request(
                    &peer,
                    frame,
                    Box::new(move |result| {
                        let Ok(reply) = result else { return };
                        match &from {
                            Address::Client(id) => router.send_to_client(*id, reply),
                            Address::Service(parent) => {
                                router.deliver(parent, LiveMsg::ReplyToService { from_url, reply })
                            }
                            Address::Tcp(conn) => {
                                router.tcp_conns.send(*conn, &ProtocolMessage::Reply(reply));
                            }
                        }
                    }),
                );
            }
            LiveMsg::Grrp(m, _) => {
                // Fire-and-forget: a lost registration is re-sent at the
                // next soft-state refresh.
                self.counters.remote.fetch_add(1, Ordering::Relaxed);
                self.outbound.oneway(&peer, ProtocolMessage::Grrp(m));
            }
            // Control messages (Reannounce, Shutdown, service replies)
            // are process-local: deliver to the service if it lives
            // here, else count the drop.
            other => self.deliver(url, other),
        }
    }

    fn deliver(&self, url: &str, msg: LiveMsg) {
        if let Some(tx) = self.services.read().get(url) {
            if tx.send(msg).is_ok() {
                self.counters.delivered.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Unknown or shut-down services drop traffic — the partition /
        // failure semantics the protocols are built for — but the drop
        // is now counted rather than silent.
        self.counters
            .dropped_unknown
            .fetch_add(1, Ordering::Relaxed);
    }

    fn send_to_client(&self, id: u64, reply: GripReply) {
        if let Some(tx) = self.clients.read().get(&id) {
            let _ = tx.send(reply);
        }
    }

    fn send_back(self: &Arc<Self>, addr: &Address, self_url: &str, reply: GripReply) {
        match addr {
            Address::Client(id) => self.send_to_client(*id, reply),
            Address::Service(url) => self.send_to_service(
                url,
                LiveMsg::ReplyToService {
                    from_url: self_url.to_owned(),
                    reply,
                },
            ),
            Address::Tcp(conn) => {
                self.tcp_conns.send(*conn, &ProtocolMessage::Reply(reply));
            }
        }
    }

    /// Cork both TCP write paths — the outbound request pool and the
    /// accepted-connection reply handles — until the returned guards
    /// drop. An owner thread wraps an inbox batch in this so the
    /// batch's burst of fan-out sub-queries and completed replies
    /// leaves as one write per connection instead of one per message.
    /// Channel-routed messages are unaffected.
    fn cork_tcp_writes(&self) -> (OutboundCork, ReplyCork) {
        (self.outbound.cork_all(), self.tcp_conns.cork_all())
    }

    fn metrics(&self) -> LiveNetMetrics {
        LiveNetMetrics {
            sent: self.counters.sent.load(Ordering::Relaxed),
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            dropped_unknown: self.counters.dropped_unknown.load(Ordering::Relaxed),
            dropped_fault: self.counters.dropped_fault.load(Ordering::Relaxed),
            dropped_paused: self.counters.dropped_paused.load(Ordering::Relaxed),
            delayed: self.counters.delayed.load(Ordering::Relaxed),
            remote: self.counters.remote.load(Ordering::Relaxed),
        }
    }
}

/// What every thread of one spawned service shares: the network, the
/// reply-address interner, the service's own URL and clock, and its
/// inbox instruments.
#[derive(Clone)]
struct ServiceLink {
    router: Arc<Router>,
    interner: ClientInterner,
    url: String,
    epoch: Instant,
    /// The engine's `config.observability`: record inbox instruments.
    obs_on: bool,
    inbox_wait: Arc<Histogram>,
    inbox_depth: Arc<Gauge>,
}

impl ServiceLink {
    fn now(&self) -> SimTime {
        SimTime::wall(self.epoch)
    }

    /// Note one message taken off an inbox now holding `depth` more.
    fn dequeued(&self, enqueued: Instant, depth: usize) {
        if self.obs_on {
            self.inbox_wait
                .record(enqueued.elapsed().as_micros() as u64);
            self.inbox_depth.set(depth as u64);
        }
    }

    /// Execute an engine's effects against the live network. Replies to
    /// `origin`'s client id go straight back to its address, with no
    /// interner lookup.
    fn perform(&self, actions: Vec<Action>, origin: Option<(u64, &Address)>) {
        for action in actions {
            match action {
                Action::SendRequest { to, request, trace } => self.router.send_to_service(
                    &to.to_string(),
                    LiveMsg::Request {
                        from: Address::Service(self.url.clone()),
                        request,
                        trace,
                        enqueued: Instant::now(),
                    },
                ),
                Action::SendGrrp { to, message } => self
                    .router
                    .send_to_service(&to.to_string(), LiveMsg::Grrp(message, None)),
                Action::Reply { client, reply } => match origin {
                    Some((cid, from)) if cid == client => {
                        self.router.send_back(from, &self.url, reply)
                    }
                    _ => {
                        if let Some(addr) = self.interner.address_of(client) {
                            self.router.send_back(&addr, &self.url, reply);
                        }
                    }
                },
            }
        }
    }

    /// Answer `request` from `from` on the read path, or hand it back
    /// for the owner thread. A request from a closed connection is
    /// dropped.
    fn answer<Q: QueryPath>(
        &self,
        query: &Q,
        from: &Address,
        request: GripRequest,
        trace: Option<TraceContext>,
    ) -> Option<GripRequest> {
        let cid = self.interner.intern(from)?;
        match query.handle_query_traced(cid, request, trace, self.now()) {
            Ok(actions) => {
                self.perform(actions, Some((cid, from)));
                None
            }
            Err(request) => Some(request),
        }
    }
}

/// A query worker: answers read-path requests from the shared inbox
/// and forwards everything else to the owner.
fn worker_loop<Q: QueryPath>(
    query: Q,
    link: ServiceLink,
    inbox: Receiver<LiveMsg>,
    siblings: Sender<LiveMsg>,
    owner: Sender<LiveMsg>,
) {
    loop {
        match inbox.recv() {
            Ok(LiveMsg::Request {
                from,
                request,
                trace,
                enqueued,
            }) => {
                link.dequeued(enqueued, inbox.len());
                // Mutation-path requests are the owner's.
                if let Some(request) = link.answer(&query, &from, request, trace) {
                    let _ = owner.send(LiveMsg::Request {
                        from,
                        request,
                        trace,
                        enqueued: Instant::now(),
                    });
                }
            }
            Ok(LiveMsg::Shutdown) => {
                // Propagate to sibling workers and the owner, then exit.
                let _ = siblings.send(LiveMsg::Shutdown);
                let _ = owner.send(LiveMsg::Shutdown);
                break;
            }
            Ok(other) => {
                let _ = owner.send(other);
            }
            Err(_) => break,
        }
    }
}

/// The owner thread: holds the engine and performs every mutation,
/// then ticks. It drains its inbox in bounded batches under a write
/// cork, so a batch's chain fan-outs and completed replies leave as one
/// write per connection (pipelined requesters and mux'd child replies
/// arrive many-per-read, so the inbox genuinely batches under load).
fn owner_loop<S: Service>(
    mut engine: S,
    link: ServiceLink,
    inbox: Receiver<LiveMsg>,
    tick: Duration,
) {
    loop {
        let mut next = match inbox.recv_timeout(tick) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let cork = next.is_some().then(|| link.router.cork_tcp_writes());
        let mut drained = 0;
        while let Some(msg) = next.take() {
            match msg {
                LiveMsg::Shutdown => return,
                LiveMsg::Request {
                    from,
                    request,
                    trace,
                    enqueued,
                } => {
                    link.dequeued(enqueued, inbox.len());
                    if let Some(cid) = link.interner.intern(&from) {
                        let actions = engine.on_request(cid, request, trace, link.now());
                        link.perform(actions, Some((cid, &from)));
                    }
                }
                LiveMsg::ReplyToService { from_url, reply } => {
                    // A malformed source URL cannot be correlated to a
                    // child; drop the reply instead of attributing it to
                    // a placeholder server.
                    if let Ok(from) = LdapUrl::parse(&from_url) {
                        let actions = engine.on_reply(&from, reply, link.now());
                        link.perform(actions, None);
                    }
                }
                LiveMsg::Grrp(msg, origin) => {
                    // A TCP-borne registration keeps its connection as
                    // the reply address, so a signature rejection
                    // reaches the sender as a wire frame.
                    let from = origin.as_ref().and_then(|a| link.interner.intern(a));
                    let actions = engine.on_grrp(from, msg, link.now());
                    link.perform(actions, None);
                }
                LiveMsg::Reannounce => engine.parts().1.reannounce(),
                LiveMsg::Closed(cid) => engine.front().drop_client(cid),
            }
            drained += 1;
            if drained < OWNER_BATCH {
                next = inbox.try_recv().ok();
            }
        }
        drop(cork);
        let actions = engine.on_tick(link.now());
        link.perform(actions, None);
    }
}

/// How to run a spawned service: worker-pool width, socket knobs,
/// persistence and security.
///
/// The same options serve a GRIS or a GIIS: both run through one
/// driver ([`LiveRuntime::spawn_gris`] / [`LiveRuntime::spawn_giis`]).
/// `workers: 0` (the default) is the owner-thread-only loop; `workers:
/// N` adds N query-worker threads on the shared inbox. The service
/// URL, not an option, selects the transport: a `tcp://` URL puts a TCP
/// front-end on the inbox, an `ldap://` URL keeps it in-process.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Query-worker threads sharing the service inbox (0 = owner only).
    pub workers: usize,
    /// Socket knobs, used only for a `tcp://` service URL.
    pub tcp: TcpTuning,
    /// Durable storage directory: when set, the engine recovers its
    /// state from here before serving and journals every mutation. A
    /// directory that cannot be opened degrades to serving from empty
    /// (with a warning on stderr) — persistence never blocks startup.
    pub persist: Option<std::path::PathBuf>,
    /// Security posture override: when set, replaces the engine's
    /// `config.security` before anything binds or serves. The single
    /// switch that turns a spawned service fully §7-secured: handshake
    /// gate on the listener, signature checks on registrations, ACLs on
    /// the query path.
    pub security: Option<SecurityPolicy>,
}

impl ServeOptions {
    /// The defaults: owner thread only, default tuning.
    pub fn channel() -> ServeOptions {
        ServeOptions::default()
    }

    /// The defaults, named for a service served over TCP. The `tcp://`
    /// service URL is what selects the wire; this sets nothing more
    /// than [`ServeOptions::channel`].
    pub fn tcp() -> ServeOptions {
        ServeOptions::default()
    }

    /// Set the query-worker pool width.
    pub fn with_workers(mut self, workers: usize) -> ServeOptions {
        self.workers = workers;
        self
    }

    /// Set the socket knobs (used only for a `tcp://` service URL).
    pub fn with_tuning(mut self, tcp: TcpTuning) -> ServeOptions {
        self.tcp = tcp;
        self
    }

    /// Persist the engine's state under `dir` (snapshot + WAL): it
    /// recovers from whatever a previous incarnation left there, and a
    /// respawn pointed at the same directory continues where a killed
    /// service stopped.
    pub fn persist(mut self, dir: impl Into<std::path::PathBuf>) -> ServeOptions {
        self.persist = Some(dir.into());
        self
    }

    /// Serve under `policy` (overriding whatever the engine's config
    /// carries): [`SecurityPolicy::authenticated`] /
    /// [`SecurityPolicy::identity`] arm the §7 handshake gate,
    /// registration signature checks and ACL redaction in one move.
    pub fn security(mut self, policy: SecurityPolicy) -> ServeOptions {
        self.security = Some(policy);
        self
    }
}

/// Journal policy for live services: fsync every record, checkpoint
/// every 512 WAL records, and rebase recovered clocks against wall time
/// so soft-state deadlines survive a process restart (the anchor file
/// maps the previous incarnation's clock onto this one's).
fn live_journal_options() -> gis_store::JournalOptions {
    gis_store::JournalOptions {
        snapshot_every: 512,
        base: gis_store::TimeBase::Absolute,
        ..Default::default()
    }
}

/// Open `dir` as journal storage, or degrade to `None` (serve from
/// empty, warn on stderr) if the directory cannot be used.
fn open_persist_dir(dir: &std::path::Path) -> Option<Arc<dyn gis_store::Storage>> {
    match gis_store::FileStorage::open(dir) {
        Ok(fs) => Some(Arc::new(fs)),
        Err(e) => {
            eprintln!("warning: persistence disabled, cannot open {dir:?}: {e}");
            None
        }
    }
}

/// The live runtime: spawns service threads, hands out client handles.
pub struct LiveRuntime {
    router: Arc<Router>,
    epoch: Instant,
    handles: Vec<(Sender<LiveMsg>, JoinHandle<()>)>,
    endpoints: HashMap<String, TcpEndpoint>,
    next_client: AtomicU64,
    tick: Duration,
    sink: Arc<TraceSink>,
}

impl LiveRuntime {
    /// Create a runtime whose service threads tick at `tick` granularity.
    pub fn new(tick: Duration) -> LiveRuntime {
        LiveRuntime {
            router: Arc::new(Router::default()),
            epoch: Instant::now(),
            handles: Vec::new(),
            endpoints: HashMap::new(),
            next_client: AtomicU64::new(1),
            tick,
            sink: Arc::new(TraceSink::new()),
        }
    }

    /// Bind the TCP listener for a service URL *before* anything is
    /// spawned or advertised, and resolve an ephemeral port
    /// (`tcp://host:0`) into the kernel-assigned one: `url` and the
    /// registration agent's advert are rewritten in place so the agent
    /// announces the port that is actually served. Returns `None` for a
    /// URL that is not `tcp://`.
    fn bind_endpoint(
        url: &mut LdapUrl,
        agent: &mut gis_proto::RegistrationAgent,
    ) -> std::io::Result<Option<BoundEndpoint>> {
        if !url.is_tcp() {
            return Ok(None);
        }
        let bound = BoundEndpoint::bind(&url.authority())?;
        if url.port == 0 {
            url.port = bound.local_addr().port();
        }
        // The agent snapshotted its advert at engine construction —
        // possibly before the caller switched `config.url` to
        // `tcp://...`, and certainly before an ephemeral `:0` port was
        // resolved. Re-snapshot it from the URL actually bound so
        // registrations never announce an address nobody serves —
        // unless the caller pinned a deliberate advert
        // ([`gis_proto::RegistrationAgent::advertise`]; the NAT /
        // load-balancer case, where the dialable address differs from
        // the local bind).
        if !agent.advert_pinned() {
            agent.service_url = url.clone();
        }
        Ok(Some(bound))
    }

    /// Start serving a bound listener into `inbox` for the engine whose
    /// read path is `query`. Read-path requests are answered inline on
    /// the reactor shard threads — no inbox hop, no worker wakeup;
    /// owner-only work still flows to the inbox. The §7 handshake
    /// outcomes of `policy` hook into the engine's session table: an
    /// authenticated connection's queries run as the proven subject.
    /// When the socket closes, its interned reply address is forgotten
    /// and the `owner` thread drops the client's sessions and
    /// subscriptions. Every rejected handshake records an `auth.reject`
    /// span into the runtime's trace sink, so security incidents show up
    /// in the same place as slow queries. The service's metrics registry
    /// receives the endpoint's accept/conn/auth instruments plus the
    /// process-wide reactor shard gauges.
    #[allow(clippy::too_many_arguments)]
    fn serve_endpoint<Q: QueryPath>(
        &mut self,
        bound: BoundEndpoint,
        query: Q,
        link: &ServiceLink,
        inbox: &Sender<LiveMsg>,
        owner: &Sender<LiveMsg>,
        policy: &SecurityPolicy,
        tcp: TcpTuning,
        registry: &gis_proto::metrics::MetricsRegistry,
    ) {
        let (inline_query, inline_link) = (query.clone(), link.clone());
        let inline: InlineHandler = Arc::new(move |conn, request, trace| {
            inline_link.answer(&inline_query, &Address::Tcp(conn), request, trace)
        });
        let (auth_query, auth_interner) = (query, link.interner.clone());
        let on_auth: AuthCallback = Arc::new(move |conn, subject| {
            if let Some(cid) = auth_interner.intern(&Address::Tcp(conn)) {
                auth_query
                    .front()
                    .authenticate_session(cid, Requester::subject(subject));
            }
        });
        let (close_interner, owner) = (link.interner.clone(), owner.clone());
        let on_close: ConnCallback = Arc::new(move |conn| {
            if let Some(cid) = close_interner.forget(&Address::Tcp(conn)) {
                let _ = owner.send(LiveMsg::Closed(cid));
            }
        });
        let (sink, span_url, epoch) = (Arc::clone(&self.sink), link.url.clone(), self.epoch);
        let on_reject: ConnCallback = Arc::new(move |_conn| {
            let span = sink.next_span();
            let now = SimTime::wall(epoch);
            sink.record(SpanRecord {
                trace: TraceId(span),
                span,
                parent: None,
                service: span_url.clone(),
                name: "auth.reject".into(),
                start: now,
                end: now,
                outcome: "auth-rejected".into(),
            });
        });
        let security = WireSecurity::new(policy, &link.url, registry, on_auth, on_reject, on_close);
        let conns = Arc::clone(&self.router.tcp_conns);
        let ep = bound.serve(inbox.clone(), conns, tcp, Some(inline), security, registry);
        crate::reactor::Reactor::global().publish_into(registry);
        self.endpoints.insert(link.url.clone(), ep);
    }

    /// Wall time mapped onto the simulation clock type.
    pub fn now(&self) -> SimTime {
        SimTime::wall(self.epoch)
    }

    /// The shared span sink every spawned service records into. Traces
    /// started by a [`traced`](SearchRequest::traced) request from a
    /// channel client assemble here.
    pub fn trace_sink(&self) -> Arc<TraceSink> {
        Arc::clone(&self.sink)
    }

    /// Run a GRIS under `opts`. One owner thread holds the engine and
    /// performs every mutation (binds, subscriptions, GRRP traffic) and
    /// the periodic tick, draining its inbox in batches under a write
    /// cork. `opts.workers` query threads share the inbox and answer
    /// `Search` requests through the engine's [`QueryPath`], forwarding
    /// the rest to the owner (0 = the owner consumes the inbox
    /// directly). For a `tcp://` URL a listener on the URL's
    /// authority feeds the same inbox from other OS processes, answering
    /// read-path queries inline on its reactor threads; the only
    /// possible error is a failed bind. Binding happens before anything
    /// is advertised, and an ephemeral port (`tcp://host:0`) is resolved
    /// into the real one — both in `gris.config.url` and in the
    /// registration agent's advert (unless the caller deliberately
    /// pointed `gris.agent.service_url` elsewhere). The served URL is
    /// returned.
    ///
    /// When rebinding an already-constructed engine to a different
    /// `tcp://` URL, set `gris.agent.service_url` along with
    /// `gris.config.url`: the registration agent snapshots the URL at
    /// [`Gris::new`] time, and a stale advert makes parents chain to an
    /// address nobody serves.
    pub fn spawn_gris(&mut self, gris: Gris, opts: ServeOptions) -> std::io::Result<LdapUrl> {
        self.spawn(gris, opts)
    }

    /// Run a GIIS under `opts`, through the same driver as
    /// [`spawn_gris`](Self::spawn_gris). Its query path answers
    /// harvested-cache searches and chained-result-cache hits;
    /// registrations, fan-out replies and cache misses go to the owner
    /// thread.
    pub fn spawn_giis(&mut self, giis: Giis, opts: ServeOptions) -> std::io::Result<LdapUrl> {
        self.spawn(giis, opts)
    }

    /// The one service driver behind [`spawn_gris`](Self::spawn_gris)
    /// and [`spawn_giis`](Self::spawn_giis).
    fn spawn<S: Service>(&mut self, mut engine: S, opts: ServeOptions) -> std::io::Result<LdapUrl> {
        let (config, agent) = engine.parts();
        if let Some(policy) = opts.security {
            config.security = policy;
        }
        let bound = Self::bind_endpoint(&mut config.url, agent)?;
        let served_url = config.url.clone();
        let obs_on = config.observability;
        let url = served_url.to_string();
        engine.front().set_trace_sink(Arc::clone(&self.sink));
        if let Some(storage) = opts.persist.as_deref().and_then(open_persist_dir) {
            let report = engine.set_persistence(storage, live_journal_options(), self.now());
            for w in &report.warnings {
                eprintln!("warning: {url}: persistence recovery: {w}");
            }
        }
        let registry = Arc::clone(engine.front().metrics());
        let link = ServiceLink {
            router: Arc::clone(&self.router),
            interner: ClientInterner::new(
                registry.gauge("interned-clients"),
                Arc::clone(&self.router.tcp_conns),
            ),
            url: url.clone(),
            epoch: self.epoch,
            obs_on,
            inbox_wait: registry.histogram("inbox-wait-us"),
            inbox_depth: registry.gauge("inbox-depth"),
        };
        let query = engine.query_path();
        let (owner_tx, owner_rx) = unbounded();
        let inbox_tx = if opts.workers == 0 {
            owner_tx.clone()
        } else {
            let (in_tx, in_rx) = unbounded();
            for _ in 0..opts.workers {
                let (query, link, in_rx) = (query.clone(), link.clone(), in_rx.clone());
                let (siblings, owner) = (in_tx.clone(), owner_tx.clone());
                let handle =
                    std::thread::spawn(move || worker_loop(query, link, in_rx, siblings, owner));
                self.handles.push((in_tx.clone(), handle));
            }
            in_tx
        };

        self.router
            .services
            .write()
            .insert(url.clone(), inbox_tx.clone());
        if let Some(bound) = bound {
            let policy = &engine.parts().0.security;
            self.serve_endpoint(
                bound, query, &link, &inbox_tx, &owner_tx, policy, opts.tcp, &registry,
            );
        }
        let tick = self.tick;
        let handle = std::thread::spawn(move || owner_loop(engine, link, owner_rx, tick));
        self.handles.push((inbox_tx, handle));
        Ok(served_url)
    }

    /// Create a synchronous client handle. Handles are `Send`: spread
    /// them across threads for parallel-load benchmarks.
    pub fn client(&self) -> LiveClient {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1024);
        self.router.clients.write().insert(id, tx);
        LiveClient {
            id,
            link: ClientLink::Channel {
                rx,
                router: Arc::clone(&self.router),
            },
            next_req: 1,
            rng: SimRng::new(id),
            epoch: self.epoch,
            sink: Arc::clone(&self.sink),
            handshake_rtt: None,
        }
    }

    /// Install the client half of §7 for every *outbound* connection
    /// the runtime's services dial — chained GIIS fan-out, federated
    /// delta sync, GRRP registrations to remote directories. New dials
    /// lead with a `Hello` bound to the dialed peer; servers that
    /// demand authentication then serve this runtime's services instead
    /// of dropping their connections.
    pub fn set_outbound_security(&self, policy: &SecurityPolicy) {
        self.router
            .outbound
            .set_security(OutboundSecurity::from_policy(policy));
    }

    /// Simulate a service failure: unregister its inbox (and close its
    /// TCP listener and accepted connections, if any) and stop the
    /// thread. Soft state at directories will expire naturally. A
    /// crash+restart is this followed by `spawn_gris`/`spawn_giis` with a
    /// fresh engine; the new agent re-announces on its first tick.
    pub fn kill_service(&mut self, url: &LdapUrl) {
        if let Some(ep) = self.endpoints.remove(&url.to_string()) {
            ep.shutdown(&self.router.tcp_conns);
        }
        if let Some(tx) = self.router.services.write().remove(&url.to_string()) {
            let _ = tx.send(LiveMsg::Shutdown);
        }
    }

    /// Install (or replace) the injected fault state for one service's
    /// inbound link.
    pub fn set_fault(&self, url: &LdapUrl, fault: ServiceFault) {
        self.router
            .faults
            .lock()
            .faults
            .insert(url.to_string(), fault);
    }

    /// Remove the injected fault state for one service.
    pub fn clear_fault(&self, url: &LdapUrl) {
        self.router.faults.lock().faults.remove(&url.to_string());
    }

    /// Remove all injected faults (the netsim `heal_all` analogue).
    pub fn heal_all(&self) {
        self.router.faults.lock().faults.clear();
    }

    /// Seed the fault plan's RNG so drop decisions are reproducible for
    /// a given seed and message order.
    pub fn set_fault_seed(&self, seed: u64) {
        self.router.faults.lock().rng = Some(SimRng::new(seed));
    }

    /// Pause a service: blackhole its inbound traffic (netsim's crash
    /// semantics — the thread lives, the network no longer reaches it).
    pub fn pause_service(&self, url: &LdapUrl) {
        let mut plan = self.router.faults.lock();
        plan.faults.entry(url.to_string()).or_default().paused = true;
    }

    /// Resume a paused service and tell it to re-announce immediately,
    /// closing the visibility gap before the next scheduled refresh.
    pub fn resume_service(&self, url: &LdapUrl) {
        {
            let mut plan = self.router.faults.lock();
            plan.faults.entry(url.to_string()).or_default().paused = false;
        }
        self.router
            .send_to_service(&url.to_string(), LiveMsg::Reannounce);
    }

    /// Snapshot of the router's traffic counters.
    pub fn net_metrics(&self) -> LiveNetMetrics {
        self.router.metrics()
    }

    /// Shut down every service thread and join them. TCP endpoints stop
    /// accepting and close their connections first, so no new work
    /// arrives while the threads drain.
    pub fn shutdown(mut self) {
        for (_, ep) in self.endpoints.drain() {
            ep.shutdown(&self.router.tcp_conns);
        }
        self.router.outbound.close();
        self.router.services.write().clear();
        for (tx, _) in &self.handles {
            let _ = tx.send(LiveMsg::Shutdown);
        }
        for (_, handle) in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Client-side retry policy: per-attempt deadline plus jittered
/// exponential backoff between attempts ("retry storms" are the client
/// half of the thundering-herd problem the GRRP jitter addresses on the
/// registration path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for each individual attempt.
    pub attempt_timeout: Duration,
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Duration::from_secs(1),
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// How a [`LiveClient`] reaches services: the in-process router, or one
/// persistent TCP connection to a single endpoint in (possibly) another
/// OS process.
// A process holds a handful of clients, not millions: the Tcp variant's
// connection + tuning block dwarfing the Channel variant costs nothing.
#[allow(clippy::large_enum_variant)]
enum ClientLink {
    Channel {
        rx: Receiver<GripReply>,
        router: Arc<Router>,
    },
    Tcp {
        peer: String,
        tuning: TcpTuning,
        /// Client half of the §7 posture, replayed on every re-dial so
        /// a reconnected session holds the same authentication the
        /// original did. Boxed: a policy carries cert chains and a
        /// trust store, and the Channel variant shouldn't pay for them.
        security: Box<SecurityPolicy>,
        /// `None` between a detected drop and the next (re)connect.
        conn: Option<ClientConn>,
    },
}

/// A synchronous client of the live runtime.
pub struct LiveClient {
    id: u64,
    link: ClientLink,
    next_req: RequestId,
    /// Jitter source for retry backoff, seeded from the client id so a
    /// fleet of clients desynchronizes deterministically.
    rng: SimRng,
    epoch: Instant,
    sink: Arc<TraceSink>,
    /// Measured §7 handshake round-trip of the initial dial (`None` for
    /// channel clients and anonymous connections).
    handshake_rtt: Option<Duration>,
}

/// Terminal result of one client search: code, entries, referrals.
pub type SearchOutcome = (ResultCode, Vec<Entry>, Vec<LdapUrl>);

/// Why one search attempt produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptFail {
    /// No reply within the deadline.
    Timeout,
    /// The transport failed outright (connect refused, connection
    /// dropped mid-reply) — a *definite* failure, unlike a timeout.
    Transport,
}

/// Default deadline for [`SearchRequest`]s that set none.
const DEFAULT_SEARCH_TIMEOUT: Duration = Duration::from_secs(5);

/// Most inbox messages an owner thread drains under one write cork
/// before ticking: bounds how long soft-state upkeep can be deferred
/// while still letting a loaded inbox amortize its writes.
const OWNER_BATCH: usize = 64;

/// A search being assembled: target, spec, and the optional tracing /
/// retry / deadline decorations, finished with [`send`](Self::send).
///
/// ```no_run
/// # use gis_core::live::{LiveRuntime, RetryPolicy};
/// # use gis_proto::SearchSpec;
/// # use gis_ldap::{Dn, Filter, LdapUrl};
/// # use std::time::Duration;
/// # let rt = LiveRuntime::new(Duration::from_millis(10));
/// # let mut client = rt.client();
/// # let url = LdapUrl::server("giis.vo");
/// let spec = SearchSpec::subtree(Dn::root(), Filter::always());
/// let response = client
///     .request(&url, spec)
///     .traced()
///     .retry(RetryPolicy::default())
///     .send();
/// ```
#[must_use = "a SearchRequest does nothing until .send()"]
pub struct SearchRequest<'c> {
    client: &'c mut LiveClient,
    target: LdapUrl,
    spec: SearchSpec,
    timeout: Duration,
    traced: bool,
    retry: Option<RetryPolicy>,
}

impl SearchRequest<'_> {
    /// Overall deadline when no retry policy is set (with one, each
    /// attempt uses the policy's `attempt_timeout` instead).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Mint a fresh trace id and propagate the context through every
    /// hop; the client's root span is recorded into its
    /// [`TraceSink`] when the search concludes.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Retry under `policy`: per-attempt deadlines with jittered
    /// exponential backoff between attempts. Each attempt is a fresh
    /// request id, so a late reply to an abandoned attempt is
    /// discarded, not mistaken for the current one.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Execute the search, blocking until a result or the deadline.
    pub fn send(self) -> SearchResponse {
        let SearchRequest {
            client,
            target,
            spec,
            timeout,
            traced,
            retry,
        } = self;
        let (attempts, attempt_timeout) = match &retry {
            Some(p) => (p.max_attempts.max(1), p.attempt_timeout),
            None => (1, timeout),
        };
        let (trace, root) = if traced {
            let root = client.sink.next_span();
            (Some(TraceId(root)), root)
        } else {
            (None, 0)
        };
        let ctx = trace.map(|t| TraceContext {
            trace: t,
            parent: root,
        });
        let start = client.now();

        let mut outcome = None;
        let mut last_fail = AttemptFail::Timeout;
        for attempt in 0..attempts {
            match client.attempt_search(&target, spec.clone(), attempt_timeout, ctx) {
                Ok(result) => {
                    outcome = Some(result);
                    break;
                }
                Err(fail) => last_fail = fail,
            }
            if attempt + 1 < attempts {
                if let Some(p) = &retry {
                    let exp = p
                        .base_backoff
                        .saturating_mul(1u32 << attempt.min(16))
                        .min(p.max_backoff);
                    // Full-jitter half-spread: sleep in [exp/2, exp).
                    let frac = 0.5 + client.rng.next_f64() / 2.0;
                    std::thread::sleep(exp.mul_f64(frac));
                }
            }
        }
        // A transport-dead endpoint is a definite answer, not a missing
        // one: surface it as Unavailable so callers can distinguish a
        // refusing/dropping peer from a silent deadline.
        if outcome.is_none() && last_fail == AttemptFail::Transport {
            outcome = Some((ResultCode::Unavailable, Vec::new(), Vec::new()));
        }
        if let Some(t) = trace {
            client.sink.record(SpanRecord {
                trace: t,
                span: root,
                parent: None,
                service: format!("client:{}", client.id),
                name: "client.search".into(),
                start,
                end: client.now(),
                outcome: match &outcome {
                    Some((code, ..)) => code.label().to_string(),
                    None => "timeout".to_string(),
                },
            });
        }
        SearchResponse { trace, outcome }
    }
}

/// What a [`SearchRequest`] produced.
#[derive(Debug)]
pub struct SearchResponse {
    /// The minted trace id, when the request was [`traced`]
    /// (SearchRequest::traced).
    pub trace: Option<TraceId>,
    /// The search result; `None` means every attempt timed out.
    pub outcome: Option<SearchOutcome>,
}

impl SearchResponse {
    /// The outcome, discarding the trace id.
    pub fn into_outcome(self) -> Option<SearchOutcome> {
        self.outcome
    }
}

/// Client-side balancer over a replica group of federated GIIS roots
/// serving the same children: reads spread round-robin, a replica that
/// times out or answers `Unavailable` is failed over within the same
/// call, and — because replicas sync independently — an answer whose
/// entries carry an `mds-sync-version` *below* what this balancer
/// already served for the same DN is refused (monotone reads across
/// failover; the lagging replica is skipped like a dead one).
pub struct ReplicaBalancer {
    replicas: Vec<LdapUrl>,
    next: usize,
    /// Highest sync version served per DN — the monotone-read floor.
    high_water: std::collections::BTreeMap<String, u64>,
    /// Replicas skipped within a call because they produced no answer.
    pub failovers: u64,
    /// Replica answers refused because an entry's stamp regressed.
    pub regressions_refused: u64,
}

impl ReplicaBalancer {
    /// A balancer over `replicas` (at least one).
    pub fn new(replicas: Vec<LdapUrl>) -> ReplicaBalancer {
        assert!(!replicas.is_empty(), "a replica group needs members");
        ReplicaBalancer {
            replicas,
            next: 0,
            high_water: std::collections::BTreeMap::new(),
            failovers: 0,
            regressions_refused: 0,
        }
    }

    /// Would serving `entries` regress any DN below the high-water mark?
    fn regresses(&self, entries: &[Entry]) -> bool {
        entries.iter().any(|e| {
            gis_ldap::sync_version(e).is_some_and(|v| {
                self.high_water
                    .get(&e.dn().to_string())
                    .is_some_and(|&hw| v < hw)
            })
        })
    }

    /// Absorb a served answer's stamps into the high-water map.
    fn absorb(&mut self, entries: &[Entry]) {
        for e in entries {
            if let Some(v) = gis_ldap::sync_version(e) {
                let hw = self.high_water.entry(e.dn().to_string()).or_insert(0);
                *hw = (*hw).max(v);
            }
        }
    }

    /// Search the replica group through `client`, trying each member at
    /// most once starting from the round-robin cursor. Returns `None`
    /// only when every replica failed or would have served regressed
    /// data — the caller retries later rather than reading backwards.
    pub fn search(
        &mut self,
        client: &mut LiveClient,
        spec: &SearchSpec,
        timeout: Duration,
    ) -> Option<SearchOutcome> {
        let n = self.replicas.len();
        let start = self.next;
        self.next = (self.next + 1) % n;
        for i in 0..n {
            let url = self.replicas[(start + i) % n].clone();
            let outcome = client
                .request(&url, spec.clone())
                .timeout(timeout)
                .send()
                .into_outcome();
            match outcome {
                Some((ResultCode::Unavailable, ..)) | None => {
                    self.failovers += 1;
                }
                Some((code, entries, referrals)) => {
                    if self.regresses(&entries) {
                        self.regressions_refused += 1;
                        continue;
                    }
                    self.absorb(&entries);
                    return Some((code, entries, referrals));
                }
            }
        }
        None
    }
}

/// Configures a cross-process TCP client before it dials: endpoint,
/// socket knobs, and the client half of the §7 security posture. Built
/// by [`LiveClient::builder`].
#[must_use = "a LiveClientBuilder does nothing until .connect()"]
pub struct LiveClientBuilder {
    url: LdapUrl,
    tuning: TcpTuning,
    security: SecurityPolicy,
}

impl LiveClientBuilder {
    /// Present this posture when dialing: a credential leads the
    /// connection with a bound `Hello`, and a trust store additionally
    /// demands the server prove its own identity (mutual auth).
    pub fn security(mut self, policy: SecurityPolicy) -> LiveClientBuilder {
        self.security = policy;
        self
    }

    /// Replace the socket knobs.
    pub fn tuning(mut self, tuning: TcpTuning) -> LiveClientBuilder {
        self.tuning = tuning;
        self
    }

    /// Dial the endpoint, running the §7 handshake first when the
    /// posture carries a credential. The returned client speaks GRIP
    /// over one persistent framed connection: searches, subscriptions
    /// and their update streams all ride it. A dropped connection is
    /// re-dialed (with the same posture) on the next request. A server
    /// that rejects the handshake surfaces as `PermissionDenied`.
    pub fn connect(self) -> std::io::Result<LiveClient> {
        if !self.url.is_tcp() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("LiveClient::builder needs a tcp:// URL, got {}", self.url),
            ));
        }
        let peer = self.url.authority();
        let (conn, handshake_rtt) =
            ClientConn::connect_secured(&peer, self.tuning, &self.security)?;
        // Seed identity from the pid: requests are correlated per
        // connection so the id only needs to be process-unique, and the
        // span-id base keeps this process's spans disjoint from the
        // server process's sink (base 0) in stitched-together traces.
        let pid = u64::from(std::process::id());
        Ok(LiveClient {
            id: pid,
            link: ClientLink::Tcp {
                peer,
                tuning: self.tuning,
                security: Box::new(self.security),
                conn: Some(conn),
            },
            next_req: 1,
            rng: SimRng::new(pid),
            epoch: Instant::now(),
            sink: Arc::new(TraceSink::with_base(pid << 32)),
            handshake_rtt,
        })
    }
}

impl LiveClient {
    fn now(&self) -> SimTime {
        SimTime::wall(self.epoch)
    }

    /// Start configuring a TCP connection to `url` — the cross-process
    /// counterpart of [`LiveRuntime::client`]. Chain
    /// [`security`](LiveClientBuilder::security) and
    /// [`tuning`](LiveClientBuilder::tuning), then
    /// [`connect`](LiveClientBuilder::connect):
    ///
    /// ```no_run
    /// # use gis_core::live::LiveClient;
    /// # use gis_gsi::SecurityPolicy;
    /// # use gis_ldap::LdapUrl;
    /// # let url = LdapUrl::parse("tcp://127.0.0.1:5389").unwrap();
    /// # let (cred, trust) = unimplemented!();
    /// let client = LiveClient::builder(&url)
    ///     .security(SecurityPolicy::authenticated(cred, trust))
    ///     .connect()?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn builder(url: &LdapUrl) -> LiveClientBuilder {
        LiveClientBuilder {
            url: url.clone(),
            tuning: TcpTuning::default(),
            security: SecurityPolicy::anonymous(),
        }
    }

    /// The §7 handshake round-trip measured when this client connected:
    /// `None` for channel clients and anonymous TCP connections.
    pub fn handshake_rtt(&self) -> Option<Duration> {
        self.handshake_rtt
    }

    /// The sink this client's root spans land in. For channel clients
    /// this is the runtime's shared sink; for TCP clients it is the
    /// client process's own (the server process keeps its own half of
    /// the trace).
    pub fn trace_sink(&self) -> Arc<TraceSink> {
        Arc::clone(&self.sink)
    }

    /// Push one request out the link. Returns `false` on a definite
    /// transport failure (TCP link only; the channel router's silent
    /// drops stay silent, exactly as a lossy network would be).
    fn dispatch(
        &mut self,
        target: &LdapUrl,
        request: GripRequest,
        trace: Option<TraceContext>,
    ) -> bool {
        let from_id = self.id;
        match &mut self.link {
            ClientLink::Channel { router, .. } => {
                router.send_to_service(
                    &target.to_string(),
                    LiveMsg::Request {
                        from: Address::Client(from_id),
                        request,
                        trace,
                        enqueued: Instant::now(),
                    },
                );
                true
            }
            ClientLink::Tcp {
                peer,
                tuning,
                security,
                conn,
            } => {
                let msg = ProtocolMessage::Request(request);
                let frame = match trace {
                    Some(ctx) => msg.traced(ctx),
                    None => msg,
                };
                if conn.is_none() {
                    // Re-dial with the same posture the original
                    // connection held: an authenticated session must
                    // not silently degrade to anonymous on reconnect.
                    *conn = ClientConn::connect_secured(peer, *tuning, security)
                        .ok()
                        .map(|(c, _)| c);
                }
                let Some(c) = conn.as_mut() else {
                    return false;
                };
                if c.send(&frame, tuning.max_frame) {
                    true
                } else {
                    *conn = None;
                    false
                }
            }
        }
    }

    /// Send a raw request. TCP clients are bound to their connected
    /// endpoint; `target` selects the service only for channel clients.
    pub fn send(
        &mut self,
        target: &LdapUrl,
        build: impl FnOnce(RequestId) -> GripRequest,
    ) -> RequestId {
        let id = self.next_req;
        self.next_req += 1;
        self.dispatch(target, build(id), None);
        id
    }

    /// Start building a search against `target`; finish with
    /// [`SearchRequest::send`].
    pub fn request(&mut self, target: &LdapUrl, spec: SearchSpec) -> SearchRequest<'_> {
        SearchRequest {
            client: self,
            target: target.clone(),
            spec,
            timeout: DEFAULT_SEARCH_TIMEOUT,
            traced: false,
            retry: None,
        }
    }

    /// One send-and-wait round: fresh request id, dispatch, then block
    /// for the matching `SearchResult` until `timeout`.
    fn attempt_search(
        &mut self,
        target: &LdapUrl,
        spec: SearchSpec,
        timeout: Duration,
        trace: Option<TraceContext>,
    ) -> Result<SearchOutcome, AttemptFail> {
        let id = self.next_req;
        self.next_req += 1;
        if !self.dispatch(target, GripRequest::Search { id, spec }, trace) {
            return Err(AttemptFail::Transport);
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.recv_grip_reply(deadline)? {
                GripReply::SearchResult {
                    id: rid,
                    code,
                    entries,
                    referrals,
                } if rid == id => return Ok((code, entries, referrals)),
                _ => continue, // stale replies from earlier timeouts, updates
            }
        }
    }

    /// Block for the next GRIP reply on the link, whatever it answers —
    /// the one receive loop every synchronous path shares. The channel
    /// and TCP links differ only in where the bytes come from; a closed
    /// TCP session clears the connection so the next dispatch re-dials.
    fn recv_grip_reply(&mut self, deadline: Instant) -> Result<GripReply, AttemptFail> {
        // An already-passed deadline still drains buffered replies (the
        // decoder and the channel queue are checked before the clock),
        // which is how pipelined receivers pull a whole batch without a
        // syscall per reply.
        match &mut self.link {
            ClientLink::Channel { rx, .. } => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                rx.recv_timeout(remaining).map_err(|_| AttemptFail::Timeout)
            }
            ClientLink::Tcp { conn, .. } => loop {
                let Some(c) = conn.as_mut() else {
                    return Err(AttemptFail::Transport);
                };
                let remaining = deadline.saturating_duration_since(Instant::now());
                match c.recv(remaining) {
                    Ok(ProtocolMessage::Reply(reply)) => return Ok(reply),
                    Ok(_) => continue, // a service session only pushes replies
                    Err(RecvFail::Timeout) => return Err(AttemptFail::Timeout),
                    Err(RecvFail::Closed) => {
                        *conn = None;
                        return Err(AttemptFail::Transport);
                    }
                }
            },
        }
    }

    /// Issue `specs` as a pipelined batch with up to `depth` requests in
    /// flight, collecting each search's outcome (`None` = no reply
    /// within `timeout`). Replies match by request id, so they may
    /// return in any order. On a TCP link this is what saturates one
    /// multiplexed connection — the next requests are already on the
    /// wire while earlier replies are in flight — instead of paying a
    /// full round trip per query.
    pub fn search_pipelined(
        &mut self,
        target: &LdapUrl,
        specs: &[SearchSpec],
        depth: usize,
        timeout: Duration,
    ) -> Vec<Option<SearchOutcome>> {
        let depth = depth.max(1);
        let mut results: Vec<Option<SearchOutcome>> = vec![None; specs.len()];
        let mut slot_of: HashMap<RequestId, usize> = HashMap::new();
        let deadline = Instant::now() + timeout;
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut done = 0usize;
        // Refill once at least half the window is free (and always when
        // it empties): large corked bursts are what keep the wire on
        // one-write-per-batch footing. Refilling one request per reply
        // would lock the pipeline into per-frame writes the first time
        // the kernel fragments a burst.
        let refill_at = depth / 2;
        'pump: while done < specs.len() {
            if next < specs.len() && in_flight <= refill_at {
                self.cork_link();
                while next < specs.len() && in_flight < depth {
                    let id = self.next_req;
                    self.next_req += 1;
                    let sent = self.dispatch(
                        target,
                        GripRequest::Search {
                            id,
                            spec: specs[next].clone(),
                        },
                        None,
                    );
                    if sent {
                        slot_of.insert(id, next);
                        in_flight += 1;
                    } else {
                        done += 1; // definite transport failure: stays None
                    }
                    next += 1;
                }
                self.uncork_link();
            }
            if in_flight == 0 {
                if next >= specs.len() {
                    break;
                }
                continue; // every dispatch so far failed; keep going
            }
            // Block for one reply, then drain whatever else is already
            // buffered (no syscalls) before considering a refill.
            let mut draining = false;
            loop {
                let recv_by = if draining { Instant::now() } else { deadline };
                match self.recv_grip_reply(recv_by) {
                    Ok(GripReply::SearchResult {
                        id,
                        code,
                        entries,
                        referrals,
                    }) => {
                        if let Some(slot) = slot_of.remove(&id) {
                            results[slot] = Some((code, entries, referrals));
                            in_flight -= 1;
                            done += 1;
                        }
                        draining = true;
                    }
                    Ok(_) => {}                  // unrelated push (subscription update)
                    Err(_) if draining => break, // buffer dry
                    Err(_) => break 'pump,       // deadline or dead link
                }
                if in_flight == 0 {
                    break;
                }
            }
        }
        results
    }

    /// Stage outgoing frames instead of writing each (TCP link only);
    /// [`uncork_link`](Self::uncork_link) writes the burst at once.
    fn cork_link(&mut self) {
        if let ClientLink::Tcp { conn: Some(c), .. } = &mut self.link {
            c.cork();
        }
    }

    /// Flush a corked burst in one write; a dead connection is cleared
    /// so the next dispatch re-dials.
    fn uncork_link(&mut self) {
        if let ClientLink::Tcp { conn, .. } = &mut self.link {
            if let Some(c) = conn.as_mut() {
                if !c.uncork() {
                    *conn = None;
                }
            }
        }
    }

    /// Receive the next asynchronous reply (subscription updates).
    pub fn recv(&mut self, timeout: Duration) -> Option<GripReply> {
        self.recv_grip_reply(Instant::now() + timeout).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::SimDeployment;
    use gis_giis::{Giis, GiisConfig};
    use gis_gris::HostSpec;
    use gis_ldap::{Dn, Filter};
    use gis_netsim::SimDuration;

    fn fast_host_gris(name: &str, seed: u64, dirs: &[LdapUrl]) -> Gris {
        let host = HostSpec::linux(name, 2);
        let mut gris = SimDeployment::standard_host_gris(&host, seed);
        gris.agent.interval = SimDuration::from_millis(100);
        gris.agent.ttl = SimDuration::from_millis(400);
        for d in dirs {
            gris.agent.add_target(d.clone());
        }
        gris
    }

    #[test]
    fn live_direct_query() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        let mut client = rt.client();
        let result = client
            .request(
                &url,
                SearchSpec::subtree(Dn::parse("hn=n1").unwrap(), Filter::always()),
            )
            .timeout(Duration::from_secs(5))
            .send()
            .outcome;
        let (code, entries, _) = result.expect("live reply");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 4);
        rt.shutdown();
    }

    #[test]
    fn live_registration_and_chained_search() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let giis_url = LdapUrl::server("giis.vo");
        let mut giis = Giis::new(
            GiisConfig::chaining(giis_url.clone(), Dn::root()),
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        // Tighter chaining deadline for a fast test.
        giis.config.mode = gis_giis::GiisMode::Chain {
            timeout: SimDuration::from_millis(500),
        };
        rt.spawn_giis(giis, ServeOptions::default()).unwrap();
        for (i, name) in ["n1", "n2"].iter().enumerate() {
            rt.spawn_gris(
                fast_host_gris(name, i as u64, std::slice::from_ref(&giis_url)),
                ServeOptions::default(),
            )
            .unwrap();
        }
        // Let registrations propagate.
        std::thread::sleep(Duration::from_millis(400));
        let mut client = rt.client();
        let (code, entries, _) = client
            .request(
                &giis_url,
                SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
            )
            .timeout(Duration::from_secs(5))
            .send()
            .outcome
            .expect("chained reply");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 2);
        rt.shutdown();
    }

    #[test]
    fn live_killed_service_expires_from_directory() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let giis_url = LdapUrl::server("giis.vo");
        let mut giis = Giis::new(
            GiisConfig::chaining(giis_url.clone(), Dn::root()),
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        giis.config.mode = gis_giis::GiisMode::Chain {
            timeout: SimDuration::from_millis(300),
        };
        rt.spawn_giis(giis, ServeOptions::default()).unwrap();
        let gris = fast_host_gris("n1", 1, std::slice::from_ref(&giis_url));
        let gris_url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        std::thread::sleep(Duration::from_millis(400));

        let mut client = rt.client();
        let (_, entries, _) = client
            .request(
                &giis_url,
                SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
            )
            .timeout(Duration::from_secs(5))
            .send()
            .outcome
            .expect("host visible");
        assert_eq!(entries.len(), 1);

        rt.kill_service(&gris_url);
        // TTL 400ms: after ~1s the registration is swept.
        std::thread::sleep(Duration::from_millis(1200));
        let (code, entries, _) = client
            .request(
                &giis_url,
                SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
            )
            .timeout(Duration::from_secs(5))
            .send()
            .outcome
            .expect("directory still answers");
        assert_eq!(code, ResultCode::Success);
        assert!(entries.is_empty(), "dead host no longer listed");
        rt.shutdown();
    }

    #[test]
    fn ephemeral_bind_rewrites_stale_advert() {
        // Regression: an engine constructed with an ldap:// URL and then
        // pointed at `tcp://...:0` keeps its construction-time advert in
        // the registration agent; binding must rebuild it, or the GRIS
        // announces an address nobody serves.
        let agent = |advert: LdapUrl| {
            gis_proto::RegistrationAgent::new(
                advert,
                Dn::root(),
                SimDuration::from_secs(30),
                SimDuration::from_secs(90),
            )
        };
        let mut url = LdapUrl::tcp("127.0.0.1", 0);
        let mut ag = agent(LdapUrl::server("gris.n1"));
        let bound = LiveRuntime::bind_endpoint(&mut url, &mut ag)
            .unwrap()
            .unwrap();
        assert_ne!(url.port, 0, "ephemeral port resolved");
        assert_eq!(ag.service_url, url, "stale ldap:// advert rebuilt");
        drop(bound);

        // Regression for the rebind footgun: the engine was first bound
        // to one tcp:// port (agent re-snapshotted it), then pointed at
        // a *different* `tcp://...:0`. The old behaviour kept the now
        // dead first port because it no longer textually matched the
        // requested URL; an unpinned advert must always track the bind.
        let mut url2 = LdapUrl::tcp("127.0.0.1", 0);
        let mut ag2 = agent(url.clone());
        let bound2 = LiveRuntime::bind_endpoint(&mut url2, &mut ag2)
            .unwrap()
            .unwrap();
        assert_ne!(url2.port, url.port, "fresh ephemeral port");
        assert_eq!(ag2.service_url, url2, "stale tcp:// advert re-snapshotted");
        drop(bound2);

        // A deliberately pinned advert (e.g. a NATed public address) is
        // the caller's choice and stays untouched.
        let mut url = LdapUrl::tcp("127.0.0.1", 0);
        let mut ag = agent(LdapUrl::server("gris.n1"));
        ag.advertise(LdapUrl::tcp("public.example", 7000));
        let _bound = LiveRuntime::bind_endpoint(&mut url, &mut ag)
            .unwrap()
            .unwrap();
        assert_eq!(ag.service_url, LdapUrl::tcp("public.example", 7000));
    }

    #[test]
    fn live_stale_advert_still_reachable_through_directory() {
        // End-to-end version of the advert fix: the GRIS below was
        // constructed with an ldap:// URL (the agent snapshotted it) and
        // only `config.url` was switched to tcp://:0 before spawning.
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let giis_url = LdapUrl::server("giis.vo");
        let mut giis = Giis::new(
            GiisConfig::chaining(giis_url.clone(), Dn::root()),
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        giis.config.mode = gis_giis::GiisMode::Chain {
            timeout: SimDuration::from_millis(500),
        };
        rt.spawn_giis(giis, ServeOptions::default()).unwrap();
        let mut gris = fast_host_gris("n1", 1, std::slice::from_ref(&giis_url));
        gris.config.url = LdapUrl::tcp("127.0.0.1", 0);
        // Deliberately NOT updating gris.agent.service_url.
        rt.spawn_gris(gris, ServeOptions::tcp()).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        let mut client = rt.client();
        let (code, entries, _) = client
            .request(
                &giis_url,
                SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
            )
            .timeout(Duration::from_secs(5))
            .send()
            .outcome
            .expect("chained reply");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 1, "host reachable via rebuilt advert");
        rt.shutdown();
    }

    #[test]
    fn live_giis_recovers_state_after_kill() {
        let dir = std::env::temp_dir().join(format!(
            "gis-live-recover-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let giis_url = LdapUrl::server("giis.vo");
        let harvest_giis = || {
            let mut giis = Giis::new(
                GiisConfig::chaining(giis_url.clone(), Dn::root()),
                SimDuration::from_millis(100),
                SimDuration::from_secs(60),
            );
            giis.config.mode = gis_giis::GiisMode::Harvest {
                refresh: SimDuration::from_secs(60),
            };
            giis
        };
        rt.spawn_giis(harvest_giis(), ServeOptions::default().persist(&dir))
            .unwrap();
        // A child with a long TTL, so its soft state outlives the kill.
        let host = HostSpec::linux("n1", 2);
        let mut gris = SimDeployment::standard_host_gris(&host, 1);
        gris.agent.interval = SimDuration::from_millis(100);
        gris.agent.ttl = SimDuration::from_secs(60);
        gris.agent.add_target(giis_url.clone());
        let gris_url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        std::thread::sleep(Duration::from_millis(500));

        let mut client = rt.client();
        let search = |client: &mut LiveClient| {
            client
                .request(&giis_url, SearchSpec::subtree(Dn::root(), Filter::always()))
                .timeout(Duration::from_secs(5))
                .send()
                .outcome
        };
        let (_, before, _) = search(&mut client).expect("harvested reply");
        assert!(!before.is_empty(), "harvest populated the cache");

        // Crash both: the respawned GIIS has no live child to rebuild
        // from — whatever it serves must come from the journal.
        rt.kill_service(&gris_url);
        rt.kill_service(&giis_url);
        std::thread::sleep(Duration::from_millis(300));
        rt.spawn_giis(harvest_giis(), ServeOptions::default().persist(&dir))
            .unwrap();
        let (code, after, _) = search(&mut client).expect("recovered reply");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(
            after.len(),
            before.len(),
            "recovered cache serves the pre-crash rows"
        );
        rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_subscription_updates_flow() {
        use gis_proto::{GripRequest, SubscriptionMode};
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        let mut client = rt.client();
        let sub_id = client.send(&url, |id| GripRequest::Subscribe {
            id,
            spec: SearchSpec::subtree(
                Dn::parse("perf=load, hn=n1").unwrap(),
                Filter::parse("(load5=*)").unwrap(),
            ),
            mode: SubscriptionMode::Periodic(SimDuration::from_millis(100)),
        });
        // Initial snapshot + at least two periodic deliveries within 1s.
        let mut updates = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while updates < 3 && std::time::Instant::now() < deadline {
            if let Some(reply) = client.recv(Duration::from_millis(200)) {
                if matches!(reply, gis_proto::GripReply::Update { id, .. } if id == sub_id) {
                    updates += 1;
                }
            }
        }
        assert!(
            updates >= 3,
            "periodic updates over live threads: {updates}"
        );
        // Unsubscribe stops the stream (allow in-flight deliveries).
        client.send(&url, |_| GripRequest::Unsubscribe { id: sub_id });
        std::thread::sleep(Duration::from_millis(300));
        while client.recv(Duration::from_millis(50)).is_some() {}
        assert!(
            client.recv(Duration::from_millis(300)).is_none(),
            "no updates after unsubscribe"
        );
        rt.shutdown();
    }

    #[test]
    fn live_paused_service_blackholes_then_resumes() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        let mut client = rt.client();
        let spec = SearchSpec::lookup(Dn::parse("hn=n1").unwrap());

        rt.pause_service(&url);
        assert!(
            client
                .request(&url, spec.clone())
                .timeout(Duration::from_millis(300))
                .send()
                .outcome
                .is_none(),
            "paused service is unreachable"
        );
        let m = rt.net_metrics();
        assert!(m.dropped_paused >= 1, "pause drops are counted: {m:?}");

        rt.resume_service(&url);
        assert!(
            client
                .request(&url, spec)
                .timeout(Duration::from_secs(5))
                .send()
                .outcome
                .is_some(),
            "resumed service answers again"
        );
        rt.shutdown();
    }

    #[test]
    fn live_injected_latency_delays_delivery() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        rt.set_fault(
            &url,
            ServiceFault {
                drop: 0.0,
                latency: Duration::from_millis(200),
                paused: false,
            },
        );
        let mut client = rt.client();
        let started = Instant::now();
        let result = client
            .request(&url, SearchSpec::lookup(Dn::parse("hn=n1").unwrap()))
            .timeout(Duration::from_secs(5))
            .send()
            .outcome;
        assert!(result.is_some(), "delayed message still delivered");
        assert!(
            started.elapsed() >= Duration::from_millis(200),
            "request path carried the injected latency"
        );
        assert!(rt.net_metrics().delayed >= 1);
        rt.shutdown();
    }

    #[test]
    fn live_full_loss_drops_deterministically() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        rt.set_fault_seed(42);
        rt.set_fault(
            &url,
            ServiceFault {
                drop: 1.0,
                latency: Duration::ZERO,
                paused: false,
            },
        );
        let mut client = rt.client();
        assert!(
            client
                .request(&url, SearchSpec::lookup(Dn::parse("hn=n1").unwrap()))
                .timeout(Duration::from_millis(300))
                .send()
                .outcome
                .is_none(),
            "total loss yields no answer"
        );
        assert!(rt.net_metrics().dropped_fault >= 1);

        rt.heal_all();
        assert!(
            client
                .request(&url, SearchSpec::lookup(Dn::parse("hn=n1").unwrap()))
                .timeout(Duration::from_secs(5))
                .send()
                .outcome
                .is_some(),
            "healed link delivers"
        );
        rt.shutdown();
    }

    #[test]
    fn live_search_with_retry_outlasts_transient_outage() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
        rt.pause_service(&url);

        // Heal the outage from another thread while the client is mid-retry.
        let rt_ref = &rt;
        let heal_url = url.clone();
        let result = std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(350));
                rt_ref.resume_service(&heal_url);
            });
            let mut client = rt_ref.client();
            client
                .request(&url, SearchSpec::lookup(Dn::parse("hn=n1").unwrap()))
                .retry(RetryPolicy {
                    attempt_timeout: Duration::from_millis(200),
                    max_attempts: 8,
                    base_backoff: Duration::from_millis(40),
                    max_backoff: Duration::from_millis(200),
                })
                .send()
                .outcome
        });
        let (code, entries, _) = result.expect("a later attempt lands after the heal");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 1);
        rt.shutdown();
    }

    #[test]
    fn live_pooled_gris_answers_in_parallel() {
        let mut rt = LiveRuntime::new(Duration::from_millis(5));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default().with_workers(4))
            .unwrap();

        let mut threads = Vec::new();
        for _ in 0..8 {
            let mut client = rt.client();
            let url = url.clone();
            threads.push(std::thread::spawn(move || {
                let mut ok = 0;
                for _ in 0..20 {
                    if client
                        .request(&url, SearchSpec::lookup(Dn::parse("hn=n1").unwrap()))
                        .timeout(Duration::from_secs(5))
                        .send()
                        .outcome
                        .is_some()
                    {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 160, "all queries answered through the worker pool");
        rt.shutdown();
    }

    #[test]
    fn live_pooled_gris_mutation_path_still_works() {
        use gis_proto::{GripRequest, SubscriptionMode};
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default().with_workers(2))
            .unwrap();
        let mut client = rt.client();
        // Subscriptions are owner-thread work: a worker must forward the
        // request, and updates must still reach the client.
        let sub_id = client.send(&url, |id| GripRequest::Subscribe {
            id,
            spec: SearchSpec::subtree(
                Dn::parse("perf=load, hn=n1").unwrap(),
                Filter::parse("(load5=*)").unwrap(),
            ),
            mode: SubscriptionMode::Periodic(SimDuration::from_millis(100)),
        });
        let mut updates = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while updates < 2 && std::time::Instant::now() < deadline {
            if let Some(reply) = client.recv(Duration::from_millis(200)) {
                if matches!(reply, gis_proto::GripReply::Update { id, .. } if id == sub_id) {
                    updates += 1;
                }
            }
        }
        assert!(updates >= 2, "subscription updates via pooled spawn");
        rt.shutdown();
    }

    #[test]
    fn live_pooled_giis_serves_harvested_snapshots() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let giis_url = LdapUrl::server("giis.vo");
        let mut giis = Giis::new(
            GiisConfig::chaining(giis_url.clone(), Dn::root()),
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        giis.config.mode = gis_giis::GiisMode::Harvest {
            refresh: SimDuration::from_millis(200),
        };
        rt.spawn_giis(giis, ServeOptions::default().with_workers(4))
            .unwrap();
        for (i, name) in ["n1", "n2"].iter().enumerate() {
            rt.spawn_gris(
                fast_host_gris(name, i as u64, std::slice::from_ref(&giis_url)),
                ServeOptions::default(),
            )
            .unwrap();
        }
        // Registration + first harvest round-trip.
        std::thread::sleep(Duration::from_millis(600));
        let mut threads = Vec::new();
        for _ in 0..4 {
            let mut client = rt.client();
            let giis_url = giis_url.clone();
            threads.push(std::thread::spawn(move || {
                let mut ok = 0;
                for _ in 0..10 {
                    if let Some((code, entries, _)) = client
                        .request(
                            &giis_url,
                            SearchSpec::subtree(
                                Dn::root(),
                                Filter::parse("(objectclass=computer)").unwrap(),
                            ),
                        )
                        .timeout(Duration::from_secs(5))
                        .send()
                        .outcome
                    {
                        if code == ResultCode::Success && entries.len() == 2 {
                            ok += 1;
                        }
                    }
                }
                ok
            }));
        }
        let total: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 40, "workers answer from the harvested snapshot");
        rt.shutdown();
    }

    #[test]
    fn live_pooled_giis_chained_miss_reaches_owner() {
        let mut rt = LiveRuntime::new(Duration::from_millis(10));
        let giis_url = LdapUrl::server("giis.vo");
        let mut giis = Giis::new(
            GiisConfig::chaining(giis_url.clone(), Dn::root()),
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        giis.config.mode = gis_giis::GiisMode::Chain {
            timeout: SimDuration::from_millis(500),
        };
        rt.spawn_giis(giis, ServeOptions::default().with_workers(2))
            .unwrap();
        for (i, name) in ["n1", "n2"].iter().enumerate() {
            rt.spawn_gris(
                fast_host_gris(name, i as u64, std::slice::from_ref(&giis_url)),
                ServeOptions::default(),
            )
            .unwrap();
        }
        std::thread::sleep(Duration::from_millis(400));
        let mut client = rt.client();
        let (code, entries, _) = client
            .request(
                &giis_url,
                SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
            )
            .timeout(Duration::from_secs(5))
            .send()
            .outcome
            .expect("worker forwards the miss; owner fans out");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 2);
        rt.shutdown();
    }

    #[test]
    fn live_parallel_clients() {
        let mut rt = LiveRuntime::new(Duration::from_millis(5));
        let gris = fast_host_gris("n1", 1, &[]);
        let url = gris.config.url.clone();
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();

        let mut threads = Vec::new();
        for _ in 0..8 {
            let mut client = rt.client();
            let url = url.clone();
            threads.push(std::thread::spawn(move || {
                let mut ok = 0;
                for _ in 0..20 {
                    if client
                        .request(&url, SearchSpec::lookup(Dn::parse("hn=n1").unwrap()))
                        .timeout(Duration::from_secs(5))
                        .send()
                        .outcome
                        .is_some()
                    {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 160, "all parallel queries answered");
        rt.shutdown();
    }
}

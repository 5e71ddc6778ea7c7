//! TCP transport: real sockets under the live runtime, driven by the
//! readiness reactor.
//!
//! The engines are sans-IO and the live runtime's [`Router`](crate::live)
//! moves [`LiveMsg`](crate::live::LiveMsg) values between threads; this
//! module is the boundary where those values become length-prefixed
//! [`ProtocolMessage`] frames ([`gis_proto::frame`]) on real connections,
//! so a GRIS/GIIS can serve GRIP and accept GRRP registrations from
//! clients and peers in **other OS processes**.
//!
//! # Who blocks on what
//!
//! No thread blocks on a socket. Every socket — the listener, each
//! accepted connection, each outbound connection — is a nonblocking fd
//! owned by one shard of the process-global [`Reactor`]
//! (crate::reactor::Reactor): `O(shards)` transport threads total, not
//! `O(connections)`. The per-socket state machines live here:
//!
//! * [`ListenerSource`] — accepts until `EAGAIN`; fd-exhaustion
//!   (`EMFILE`/`ENFILE`) sheds *new* connections with a metered backoff
//!   (interest off, timer on) while existing connections keep serving,
//!   and every accept failure bumps the `tcp-accept-errors` counter.
//! * [`ServerConn`] — read-ready drives the connection's
//!   [`FrameDecoder`] into the service's MPMC inbox (or the
//!   [`InlineHandler`] fast path, answered on the shard thread);
//!   write-ready drains the per-connection staging buffer. A mid-frame
//!   stall or a peer that stops draining our replies arms the shard's
//!   timer wheel and the deadline drops the connection.
//! * [`OutboundSource`] — the client side of one multiplexed
//!   connection: a nonblocking connect completes via writability +
//!   `SO_ERROR`, then read-ready matches reply frames to callers by
//!   correlation id and the timer wheel fires per-request deadlines
//!   (the connection stays up; a late reply is dropped as unknown).
//!
//! # Staging-buffer ownership
//!
//! Any thread may produce bytes for a connection (owner threads, query
//! workers, inline handlers) by appending to its mutexed staging buffer
//! and attempting a nonblocking drain. On `EAGAIN` the writer leaves the
//! remainder staged and nudges the connection's shard
//! ([`Nudge::attend`]), which enables write interest and finishes the
//! drain on write-ready. The PR 6 corking heuristics are unchanged:
//! while a connection's cork count is non-zero, drains are no-ops and
//! bytes accumulate so a burst leaves as one `write(2)`.
//!
//! # Correlation-id space
//!
//! Outbound rewrites each request's GRIP id into a per-connection
//! correlation counter before framing (and restores the original on the
//! matching reply), so independent engines sharing one connection cannot
//! collide. Servers echo request ids verbatim, which makes the reply's
//! id *be* the correlation id; the envelope additionally carries it so
//! receivers can drop mislabeled frames. A connection starts in plain
//! framing and a server marks it mux-speaking only after **receiving**
//! an enveloped frame, so an old peer is never sent an envelope it
//! cannot decode.
//!
//! # Deadlines and backpressure
//!
//! * **Connect deadline** — outbound dials arm `connect_timeout` on the
//!   timer wheel; an unreachable peer fails its queued requests quickly
//!   instead of hanging a fan-out.
//! * **Read deadline, server side** — an *idle* connection between
//!   frames is legitimate (a subscriber waiting for updates); a
//!   connection stalled **mid-frame** for longer than `read_deadline` is
//!   a slow or wedged peer and is dropped, freeing its connection slot.
//! * **Read deadline, outbound** — each in-flight request has its own
//!   deadline; expiry fires that request's sink with a timeout while the
//!   connection (still frame-aligned — framing is self-describing)
//!   stays up, and the late reply is dropped as unknown. Upper layers
//!   (client retry, GIIS fan-out deadline + circuit breaker) take over.
//! * **Write deadline** — a peer that stops draining its socket while we
//!   reply (slow consumer) trips `write_deadline`; the connection is
//!   dropped rather than growing its staging buffer forever.
//! * **In-flight depth** — a submitter finding `mux_depth` requests
//!   already in flight blocks (bounded by `write_deadline`) until a slot
//!   frees: backpressure, not unbounded queueing. On a reactor shard
//!   thread the wait is skipped (briefly overshooting the depth) —
//!   parking a shard would stall every connection it owns.
//! * **Connection slots** — at most `max_conns` accepted connections per
//!   endpoint; beyond that, new connections are closed on accept. With
//!   the stall rule above, a slot held by a wedged peer frees within one
//!   read deadline.
//!
//! A poisoned decoder (oversized header, undecodable body, trailing
//! bytes) still drops the connection on either side — framing has lost
//! sync and is never resynchronized; the peer sees EOF, the silent
//! network the upper layers already handle.

use crate::live::{Address, LiveMsg};
use crate::reactor::{
    connect_nonblocking, take_socket_error, Ctl, EventSource, Keep, Nudge, Reactor,
};
use gis_gsi::{Authenticator, BindToken, Credential, SecurityPolicy, TrustStore};
use gis_proto::frame::{encode_frame_limited, encode_mux_frame_limited, Frame, FrameDecoder};
use gis_proto::metrics::{Gauge, MetricsRegistry};
use gis_proto::{
    Counter, GripReply, GripRequest, Handshake, ProtocolMessage, ResultCode, TraceContext,
};
use parking_lot::{Mutex, RwLock};
// The vendored parking_lot is a shim over std primitives, so its guards
// interoperate with the std condition variable.
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Condvar;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

/// Socket-level knobs for both endpoint (server) and outbound (client)
/// sides. One set of defaults fits tests and production-ish loopback use;
/// experiments and robustness tests tighten individual fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTuning {
    /// Outbound dial deadline.
    pub connect_timeout: Duration,
    /// Server: maximum mid-frame stall before a connection is dropped.
    /// Outbound: maximum wait for each in-flight request's reply.
    pub read_deadline: Duration,
    /// Maximum write stall before a slow-consumer connection is
    /// dropped; also bounds how long a submitter waits for an in-flight
    /// slot when the connection is at `mux_depth`.
    pub write_deadline: Duration,
    /// Per-frame body ceiling (both directions).
    pub max_frame: usize,
    /// Server: maximum concurrently accepted connections.
    pub max_conns: usize,
    /// Outbound: in-flight requests allowed per connection before
    /// submitters block for a free slot.
    pub mux_depth: usize,
}

impl Default for TcpTuning {
    fn default() -> TcpTuning {
        TcpTuning {
            connect_timeout: Duration::from_secs(1),
            read_deadline: Duration::from_secs(5),
            write_deadline: Duration::from_secs(5),
            max_frame: gis_proto::MAX_FRAME,
            max_conns: 256,
            mux_depth: 32,
        }
    }
}

/// Client-session read buffer size (the reactor shards use their own
/// shared scratch buffers).
const READ_CHUNK: usize = 16 * 1024;

/// How many scratch-buffer reads one connection may consume per
/// readiness callback before yielding the shard to its neighbors
/// (level-triggered polling re-reports the fd immediately).
const READS_PER_WAKE: usize = 8;

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Accept-time fd exhaustion: per-process (`EMFILE`) or system-wide
/// (`ENFILE`) file-table limits. Transient by nature — existing
/// connections closing frees slots — so the listener sheds instead of
/// dying.
fn is_fd_exhaustion(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

/// Correlation id to echo on a reply frame's envelope: the reply's GRIP
/// id (servers echo request ids, which outbound rewrote to the
/// correlation value).
fn reply_corr(msg: &ProtocolMessage) -> Option<u64> {
    match msg {
        ProtocolMessage::Reply(r) => Some(r.id()),
        ProtocolMessage::Traced { inner, .. } => reply_corr(inner),
        _ => None,
    }
}

/// Rewrite the GRIP request id inside `msg` (through a trace envelope)
/// to `new`, returning the original id. `None` when `msg` carries no
/// request.
fn rewrite_request_id(msg: &mut ProtocolMessage, new: u64) -> Option<u64> {
    match msg {
        ProtocolMessage::Request(r) => {
            let old = r.id();
            r.set_id(new);
            Some(old)
        }
        ProtocolMessage::Traced { inner, .. } => rewrite_request_id(inner, new),
        _ => None,
    }
}

/// Health of a connection's staging buffer after a drain attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteHealth {
    /// Nothing left to write (or writing is deferred: corked / still
    /// dialing).
    Idle,
    /// The socket stopped accepting bytes (`EAGAIN`); the remainder is
    /// staged and the shard must watch for write-readiness.
    Pending,
    /// The peer is gone; the connection must be dropped.
    Dead,
}

/// One accepted connection: the write half plus its coalescing staging
/// buffer, shared between the reply path (shard, owner and query-worker
/// threads) and the endpoint's shutdown path.
struct ConnHandle {
    /// The one socket, shared with the shard's [`ServerConn`] reader —
    /// one fd per connection, not a `try_clone` pair (reads and writes
    /// are independent directions, and writes are serialized by the
    /// `queued` lock).
    stream: Arc<TcpStream>,
    /// Frames encoded but not yet written; whichever thread drains next
    /// writes them, so concurrent repliers coalesce into one write.
    queued: Mutex<bytes::BytesMut>,
    /// Set once the peer sends an enveloped frame; replies then carry
    /// the envelope too. Plain peers never see a tag they can't decode.
    mux: AtomicBool,
    /// Cork count; while non-zero, [`drain`](Self::drain) stages without
    /// writing. The shard corks around each decoded batch so the inline
    /// replies to a pipelined burst leave as one `write(2)`; an owner
    /// thread corks every handle around an inbox batch
    /// ([`ConnTable::cork_all`]) for the same effect on its reply burst.
    /// Corks nest, hence a count rather than a flag; whoever drops the
    /// count to zero flushes what everyone staged.
    corked: AtomicUsize,
    max_frame: usize,
    /// Handle to the shard that owns this connection's read half, set
    /// before the connection's source is activated. Writers nudge it
    /// when a drain leaves bytes staged.
    nudge: OnceLock<Nudge>,
}

impl ConnHandle {
    /// Nonblocking drain of `queued` to the socket. Never blocks: on
    /// `EAGAIN` the remainder stays staged and the caller decides who
    /// finishes the job (writer threads nudge the owning shard; the
    /// shard itself enables write interest).
    fn drain(&self) -> WriteHealth {
        if self.corked.load(Ordering::Acquire) > 0 {
            return WriteHealth::Idle;
        }
        let mut q = self.queued.lock();
        while !q.is_empty() {
            match (&*self.stream).write(&q[..]) {
                Ok(0) => return WriteHealth::Dead,
                Ok(n) => q.advance(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return WriteHealth::Pending
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return WriteHealth::Dead,
            }
        }
        WriteHealth::Idle
    }

    /// Writer-thread drain: `false` drops the connection (peer gone);
    /// a partial write stages the remainder and hands completion to the
    /// owning shard.
    fn flush(&self) -> bool {
        match self.drain() {
            WriteHealth::Dead => false,
            WriteHealth::Idle => true,
            WriteHealth::Pending => {
                if let Some(nudge) = self.nudge.get() {
                    nudge.attend();
                }
                true
            }
        }
    }
}

/// Registry of accepted connections, keyed by the id carried in
/// [`Address::Tcp`]. Shared by every endpoint of a runtime so the router
/// can write a reply without knowing which endpoint accepted the
/// connection.
#[derive(Default)]
pub(crate) struct ConnTable {
    conns: RwLock<HashMap<u64, Arc<ConnHandle>>>,
    next: AtomicU64,
}

impl ConnTable {
    fn register(&self, stream: Arc<TcpStream>, max_frame: usize) -> (u64, Arc<ConnHandle>) {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let handle = Arc::new(ConnHandle {
            stream,
            queued: Mutex::new(bytes::BytesMut::new()),
            mux: AtomicBool::new(false),
            corked: AtomicUsize::new(0),
            max_frame,
            nudge: OnceLock::new(),
        });
        self.conns.write().insert(id, Arc::clone(&handle));
        (id, handle)
    }

    /// Whether connection `id` is still registered (not yet closed).
    pub(crate) fn is_open(&self, id: u64) -> bool {
        self.conns.read().contains_key(&id)
    }

    fn remove(&self, id: u64) {
        if let Some(conn) = self.conns.write().remove(&id) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Encode and write one frame to connection `id`, enveloped with the
    /// reply's correlation id when the peer speaks the mux envelope.
    /// Returns `false` (and drops the connection) when the peer is gone
    /// — exactly the silent-drop semantics the in-process router has for
    /// vanished clients. A partial write is a success: the remainder is
    /// staged and the owning shard drains it on write-ready.
    pub(crate) fn send(&self, id: u64, msg: &ProtocolMessage) -> bool {
        let Some(conn) = self.conns.read().get(&id).map(Arc::clone) else {
            return false;
        };
        let encoded = {
            let mut q = conn.queued.lock();
            match reply_corr(msg).filter(|_| conn.mux.load(Ordering::Relaxed)) {
                Some(corr) => encode_mux_frame_limited(corr, msg, &mut q, conn.max_frame).is_ok(),
                None => encode_frame_limited(msg, &mut q, conn.max_frame).is_ok(),
            }
        };
        if encoded && conn.flush() {
            true
        } else {
            self.remove(id);
            false
        }
    }

    /// Cork every accepted connection until the returned guard drops:
    /// replies written in between stage in their handles and leave as
    /// one write per connection. Used by owner threads draining an inbox
    /// batch whose messages each produce a reply.
    pub(crate) fn cork_all(self: &Arc<Self>) -> ReplyCork {
        let conns: Vec<(u64, Arc<ConnHandle>)> = self
            .conns
            .read()
            .iter()
            .map(|(id, conn)| (*id, Arc::clone(conn)))
            .collect();
        for (_, conn) in &conns {
            conn.corked.fetch_add(1, Ordering::AcqRel);
        }
        ReplyCork {
            table: Arc::clone(self),
            conns,
        }
    }
}

/// RAII cork over the accepted connections that existed when
/// [`ConnTable::cork_all`] ran (later arrivals write directly, which is
/// merely unbatched). Dropping uncorks and flushes; a connection whose
/// flush fails is dropped exactly as a failed direct write would be.
pub(crate) struct ReplyCork {
    table: Arc<ConnTable>,
    conns: Vec<(u64, Arc<ConnHandle>)>,
}

impl Drop for ReplyCork {
    fn drop(&mut self) {
        for (id, conn) in &self.conns {
            conn.corked.fetch_sub(1, Ordering::AcqRel);
            if !conn.flush() {
                self.table.remove(*id);
            }
        }
    }
}

/// Fast-path hook a service installs on its endpoint: called on the
/// connection's shard thread for every inbound GRIP request. Returning
/// `None` means the request was fully handled (replies already written
/// via [`ConnTable::send`]); returning the request forwards it to the
/// service inbox for the owner thread, exactly as if no hook existed.
pub(crate) type InlineHandler =
    Arc<dyn Fn(u64, GripRequest, Option<TraceContext>) -> Option<GripRequest> + Send + Sync>;

/// Notification that connection `conn_id` proved `subject` (the runtime
/// marks the engine session authenticated).
pub(crate) type AuthCallback = Arc<dyn Fn(u64, &str) + Send + Sync>;

/// Per-connection lifecycle notification (auth rejection, close).
pub(crate) type ConnCallback = Arc<dyn Fn(u64) + Send + Sync>;

/// One endpoint's §7 wire-security posture: how inbound `Hello` frames
/// are verified, whether unauthenticated traffic is served at all, and
/// what to tell the owning runtime when a connection's handshake
/// settles. Built by the live runtime from the service's
/// [`SecurityPolicy`]; the transport itself stays policy-free — it only
/// executes the handshake state machine.
pub(crate) struct WireSecurity {
    /// When true, a non-handshake frame on a connection that has not
    /// authenticated drops that *connection* (never the service). The
    /// anonymous tier leaves this false, so legacy peers keep working.
    pub(crate) required: bool,
    /// Verifies inbound `Hello` tokens. `None` means this endpoint does
    /// not speak the handshake: any `Hello` is answered with
    /// `Reject(UnwillingToPerform)` and the connection is closed.
    pub(crate) authenticator: Option<Authenticator>,
    /// Credential signing the `Welcome` return token (the server half of
    /// mutual authentication). The token binds to `service_name`, the
    /// endpoint's own advertised URL — the name the client dialed — so
    /// the client can verify it against its trust store.
    pub(crate) credential: Option<Credential>,
    /// The endpoint's advertised `tcp://host:port` URL string.
    pub(crate) service_name: String,
    /// Fired when a connection authenticates.
    pub(crate) on_auth: AuthCallback,
    /// Fired when a `Hello` fails verification (auth-failure span).
    pub(crate) on_reject: ConnCallback,
    /// Fired when an accepted connection closes (session cleanup).
    pub(crate) on_close: ConnCallback,
    /// Handshakes accepted.
    pub(crate) auth_ok: Arc<Counter>,
    /// `Hello` tokens that failed verification.
    pub(crate) auth_rejected: Arc<Counter>,
    /// Frames dropped (with their connection) for arriving before
    /// authentication on a `required` endpoint.
    pub(crate) auth_gated: Arc<Counter>,
}

impl WireSecurity {
    /// The posture `policy` gives an endpoint advertised as
    /// `service_name`, with the runtime's hooks. The `auth-ok`,
    /// `auth-rejected` and `auth-gated` counters register under
    /// `registry`, so the monitoring namespace shows zeros rather than
    /// missing series.
    pub(crate) fn new(
        policy: &SecurityPolicy,
        service_name: &str,
        registry: &MetricsRegistry,
        on_auth: AuthCallback,
        on_reject: ConnCallback,
        on_close: ConnCallback,
    ) -> Arc<WireSecurity> {
        Arc::new(WireSecurity {
            required: policy.requires_auth(),
            authenticator: policy.authenticator(service_name),
            credential: policy.credential.clone(),
            service_name: service_name.to_owned(),
            on_auth,
            on_reject,
            on_close,
            auth_ok: registry.counter("auth-ok"),
            auth_rejected: registry.counter("auth-rejected"),
            auth_gated: registry.counter("auth-gated"),
        })
    }

    /// An open endpoint: no handshake support, nothing required — the
    /// pre-§7 wire behaviour.
    #[cfg(test)]
    pub(crate) fn open(registry: &MetricsRegistry) -> Arc<WireSecurity> {
        WireSecurity::new(
            &SecurityPolicy::anonymous(),
            "",
            registry,
            Arc::new(|_, _| {}),
            Arc::new(|_| {}),
            Arc::new(|_| {}),
        )
    }
}

/// What an outbound connection presents when dialing: the client half of
/// the §7 handshake. Snapshotted per peer at dial time by
/// [`TcpOutbound::conn_for`].
#[derive(Clone, Default)]
pub(crate) struct OutboundSecurity {
    /// When present, every new connection opens with a `Hello` carrying
    /// a [`BindToken`] over the peer's `tcp://host:port` name.
    pub(crate) credential: Option<Credential>,
    /// When present, the server's `Welcome` token must verify against
    /// this store (mutual authentication) or the connection dies.
    pub(crate) trust: Option<TrustStore>,
}

impl OutboundSecurity {
    /// Derive the wire-client posture from a service-level policy.
    pub(crate) fn from_policy(policy: &SecurityPolicy) -> OutboundSecurity {
        OutboundSecurity {
            credential: policy.credential.clone(),
            trust: policy.trust.clone(),
        }
    }

    /// The staged `Hello` token and `Welcome` verifier for dialing
    /// `peer` (`host:port`), or `None` when this side stays anonymous.
    fn hello_for(&self, peer: &str) -> Option<ClientHello> {
        let cred = self.credential.as_ref()?;
        let target = format!("tcp://{peer}");
        Some(ClientHello {
            token: BindToken::create(cred, &target).to_bytes(),
            verify: self
                .trust
                .as_ref()
                .map(|t| Authenticator::new(t.clone(), target)),
        })
    }
}

/// The prepared client half of one connection's handshake.
struct ClientHello {
    token: Vec<u8>,
    verify: Option<Authenticator>,
}

/// A bound-but-not-yet-serving listener. Splitting bind from serve lets
/// the runtime read the kernel-assigned port (`tcp://host:0`) and fix up
/// registration URLs *before* any traffic arrives.
pub(crate) struct BoundEndpoint {
    listener: TcpListener,
    local: SocketAddr,
}

impl BoundEndpoint {
    /// Bind `authority` (`host:port`, port may be 0 for ephemeral).
    pub(crate) fn bind(authority: &str) -> std::io::Result<BoundEndpoint> {
        let listener = TcpListener::bind(authority)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(BoundEndpoint { listener, local })
    }

    /// The actual bound address (real port even when 0 was requested).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Register the listener with the reactor and start serving frames
    /// into `inbox`, with read-path requests optionally short-circuited
    /// by `inline` on the shard threads and connections authenticated
    /// under `security`. `registry` receives the endpoint's
    /// `tcp-accept-errors` counter and `tcp-conns` gauge.
    pub(crate) fn serve(
        self,
        inbox: Sender<LiveMsg>,
        conns: Arc<ConnTable>,
        tuning: TcpTuning,
        inline: Option<InlineHandler>,
        security: Arc<WireSecurity>,
        registry: &MetricsRegistry,
    ) -> TcpEndpoint {
        let conn_ids = Arc::new(Mutex::new(Vec::new()));
        let reg = Reactor::global().bind(false);
        let endpoint = TcpEndpoint {
            listener: reg.nudge(),
            conn_ids: Arc::clone(&conn_ids),
        };
        reg.activate(
            Box::new(ListenerSource {
                listener: self.listener,
                inbox,
                conns,
                tuning,
                inline,
                security,
                conn_ids,
                active: Arc::new(AtomicUsize::new(0)),
                accept_errors: registry.counter("tcp-accept-errors"),
                conns_gauge: registry.gauge("tcp-conns"),
                shed_rounds: 0,
            }),
            true,
            false,
            None,
        );
        endpoint
    }
}

/// A served TCP listener: the socket front-end of one spawned service.
pub(crate) struct TcpEndpoint {
    listener: Nudge,
    conn_ids: Arc<Mutex<Vec<u64>>>,
}

impl TcpEndpoint {
    /// Stop accepting and close every live connection. The listener
    /// deregisters on its shard's next loop iteration; connections see
    /// their sockets shut down immediately and their sources collect on
    /// the resulting readiness events.
    pub(crate) fn shutdown(self, conns: &ConnTable) {
        self.listener.close();
        for id in self.conn_ids.lock().drain(..) {
            conns.remove(id);
        }
    }
}

/// Accept loop as a reactor source: accepts until `EAGAIN`, registering
/// each connection as a [`ServerConn`] on some shard (round-robin).
struct ListenerSource {
    listener: TcpListener,
    inbox: Sender<LiveMsg>,
    conns: Arc<ConnTable>,
    tuning: TcpTuning,
    inline: Option<InlineHandler>,
    security: Arc<WireSecurity>,
    conn_ids: Arc<Mutex<Vec<u64>>>,
    active: Arc<AtomicUsize>,
    accept_errors: Arc<Counter>,
    conns_gauge: Arc<Gauge>,
    /// Consecutive fd-exhaustion sheds; scales the backoff 10 ms → 640 ms.
    shed_rounds: u32,
}

impl ListenerSource {
    /// Register one accepted connection with the reactor.
    fn admit(&self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        let read_half = Arc::clone(&stream);
        let (conn_id, handle) = self.conns.register(stream, self.tuning.max_frame);
        self.conn_ids.lock().push(conn_id);
        let live = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_gauge.set(live as u64);
        let reg = Reactor::global().bind(true);
        // The nudge must be reachable from the handle before the first
        // event can fire — that is what the reserve/activate split is for.
        let _ = handle.nudge.set(reg.nudge());
        reg.activate(
            Box::new(ServerConn {
                read_half,
                conn_id,
                handle,
                conns: Arc::clone(&self.conns),
                dec: FrameDecoder::with_max_frame(self.tuning.max_frame),
                inbox: self.inbox.clone(),
                inline: self.inline.clone(),
                security: Arc::clone(&self.security),
                authed: false,
                tuning: self.tuning,
                conn_ids: Arc::clone(&self.conn_ids),
                active: Arc::clone(&self.active),
                conns_gauge: Arc::clone(&self.conns_gauge),
                read_stall: None,
                write_stall: None,
            }),
            true,
            false,
            None,
        );
    }
}

impl EventSource for ListenerSource {
    fn fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }

    fn on_ready(&mut self, _readable: bool, _writable: bool, ctl: &mut Ctl<'_>) -> Keep {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.shed_rounds = 0;
                    if self.active.load(Ordering::Relaxed) >= self.tuning.max_conns {
                        // Slot-limited: refuse by closing immediately.
                        drop(stream);
                        continue;
                    }
                    self.admit(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if is_fd_exhaustion(&e) => {
                    // Out of fds: shed *new* connections for a bounded
                    // backoff while existing connections keep serving.
                    // Pending accepts get kernel backlog treatment; the
                    // timer re-enables read interest.
                    self.accept_errors.bump();
                    self.shed_rounds = (self.shed_rounds + 1).min(6);
                    let delay = Duration::from_millis(10u64 << self.shed_rounds);
                    eprintln!(
                        "gis-core: accept shed ({e}); pausing accepts for {delay:?}, \
                         existing connections unaffected"
                    );
                    ctl.set_interest(false, false);
                    ctl.arm_timer(Instant::now() + delay);
                    return Keep::Keep;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    // The peer gave up between SYN and accept: their
                    // problem, keep accepting.
                    self.accept_errors.bump();
                }
                Err(e) => {
                    // Fatal listener error: stop accepting. Connections
                    // already admitted are independent sources and keep
                    // serving.
                    self.accept_errors.bump();
                    eprintln!("gis-core: listener failed ({e}); no longer accepting");
                    return Keep::Drop;
                }
            }
        }
        Keep::Keep
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Keep {
        // Shed backoff over: resume accepting.
        ctl.set_interest(true, false);
        Keep::Keep
    }

    fn on_attend(&mut self, _ctl: &mut Ctl<'_>) -> Keep {
        Keep::Keep
    }
}

/// One accepted connection's reactor state machine: decode frames into
/// the service inbox (or the inline handler), drain staged replies, trip
/// stall deadlines.
struct ServerConn {
    read_half: Arc<TcpStream>,
    conn_id: u64,
    handle: Arc<ConnHandle>,
    conns: Arc<ConnTable>,
    dec: FrameDecoder,
    inbox: Sender<LiveMsg>,
    inline: Option<InlineHandler>,
    security: Arc<WireSecurity>,
    /// Whether this connection completed the §7 handshake.
    authed: bool,
    tuning: TcpTuning,
    conn_ids: Arc<Mutex<Vec<u64>>>,
    active: Arc<AtomicUsize>,
    conns_gauge: Arc<Gauge>,
    /// Deadline for the currently incomplete inbound frame, if any.
    read_stall: Option<Instant>,
    /// Deadline for the current undrained reply backlog, if any.
    write_stall: Option<Instant>,
}

impl Drop for ServerConn {
    fn drop(&mut self) {
        // Runs on the shard thread whenever the source is dropped —
        // protocol error, EOF, deadline, or endpoint shutdown. The
        // connection leaves the table before `on_close` runs, so the
        // interner cannot mint a fresh id for it afterwards.
        self.conns.remove(self.conn_id);
        (self.security.on_close)(self.conn_id);
        self.conn_ids.lock().retain(|&id| id != self.conn_id);
        let live = self
            .active
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        self.conns_gauge.set(live as u64);
    }
}

impl ServerConn {
    /// Drain staged replies and track write interest + stall deadline.
    fn pump_writes(&mut self, ctl: &mut Ctl<'_>) -> Keep {
        match self.handle.drain() {
            WriteHealth::Dead => Keep::Drop,
            WriteHealth::Idle => {
                self.write_stall = None;
                ctl.set_interest(true, false);
                Keep::Keep
            }
            WriteHealth::Pending => {
                if self.write_stall.is_none() {
                    self.write_stall = Some(Instant::now() + self.tuning.write_deadline);
                }
                ctl.set_interest(true, true);
                Keep::Keep
            }
        }
    }

    /// Arm the earlier of the two stall deadlines (or clear).
    fn rearm(&self, ctl: &mut Ctl<'_>) {
        match [self.read_stall, self.write_stall]
            .into_iter()
            .flatten()
            .min()
        {
            Some(at) => ctl.arm_timer(at),
            None => ctl.clear_timer(),
        }
    }

    /// Run the server half of the §7 handshake for one inbound
    /// handshake frame. `false` drops the connection — every failure
    /// path stages an explanatory `Reject` first, so a well-behaved
    /// client learns *why* before the EOF.
    fn handle_handshake(&mut self, frame: Frame) -> bool {
        let ProtocolMessage::Handshake(Handshake::Hello { token }) = frame.msg else {
            // Welcome/Reject aimed at a server, or a second frame after
            // one of those: out of protocol order.
            return false;
        };
        if self.authed {
            return false; // one handshake per connection
        }
        let Some(auth) = &self.security.authenticator else {
            // This endpoint does not speak the handshake (anonymous
            // tier with no trust store): refuse the *connection*, not
            // the service — anonymous peers that never send a Hello are
            // unaffected.
            let _ = self.conns.send(
                self.conn_id,
                &ProtocolMessage::Handshake(Handshake::Reject {
                    code: ResultCode::UnwillingToPerform,
                }),
            );
            return false;
        };
        match auth.authenticate(&token) {
            Some(subject) => {
                self.authed = true;
                self.security.auth_ok.bump();
                (self.security.on_auth)(self.conn_id, &subject);
                // Mutual auth: prove our own identity by binding a
                // token to the name the client dialed. No credential
                // (authenticator-only endpoint) sends an empty token;
                // clients holding a trust store treat that as failure.
                let token = self
                    .security
                    .credential
                    .as_ref()
                    .map(|c| BindToken::create(c, &self.security.service_name).to_bytes())
                    .unwrap_or_default();
                self.conns.send(
                    self.conn_id,
                    &ProtocolMessage::Handshake(Handshake::Welcome { subject, token }),
                )
            }
            None => {
                self.security.auth_rejected.bump();
                (self.security.on_reject)(self.conn_id);
                let _ = self.conns.send(
                    self.conn_id,
                    &ProtocolMessage::Handshake(Handshake::Reject {
                        code: ResultCode::AuthRejected,
                    }),
                );
                false
            }
        }
    }
}

impl EventSource for ServerConn {
    fn fd(&self) -> RawFd {
        self.read_half.as_raw_fd()
    }

    fn on_ready(&mut self, readable: bool, _writable: bool, ctl: &mut Ctl<'_>) -> Keep {
        if readable {
            let mut rounds = 0;
            loop {
                match (&*self.read_half).read(ctl.scratch) {
                    Ok(0) => return Keep::Drop, // peer closed
                    Ok(n) => {
                        self.dec.feed(&ctl.scratch[..n]);
                        // Cork while draining the batch: inline replies
                        // to every frame in this read coalesce into a
                        // single write in pump_writes below.
                        self.handle.corked.fetch_add(1, Ordering::AcqRel);
                        let mut keep = true;
                        loop {
                            match self.dec.next_frame() {
                                Ok(Some(frame)) => {
                                    if frame.corr.is_some() {
                                        // The peer speaks the envelope;
                                        // echo it on replies from now on.
                                        self.handle.mux.store(true, Ordering::Relaxed);
                                    }
                                    if matches!(frame.msg, ProtocolMessage::Handshake(_)) {
                                        if !self.handle_handshake(frame) {
                                            keep = false;
                                            break;
                                        }
                                        continue;
                                    }
                                    if self.security.required && !self.authed {
                                        // §7: an authenticated-tier
                                        // endpoint refuses GRIP/GRRP
                                        // before the handshake. The
                                        // *connection* dies; the
                                        // service keeps serving.
                                        self.security.auth_gated.bump();
                                        keep = false;
                                        break;
                                    }
                                    if !dispatch_inbound(
                                        frame,
                                        self.conn_id,
                                        &self.inbox,
                                        self.inline.as_ref(),
                                    ) {
                                        keep = false;
                                        break;
                                    }
                                }
                                Ok(None) => break,
                                // Oversized or malformed frame: drop the
                                // connection cleanly; the sender sees EOF.
                                Err(_) => {
                                    keep = false;
                                    break;
                                }
                            }
                        }
                        self.handle.corked.fetch_sub(1, Ordering::AcqRel);
                        if !keep {
                            // Best effort: flush any staged handshake
                            // Reject so the peer learns why before the
                            // EOF. A blocked socket just drops it.
                            let _ = self.handle.drain();
                            return Keep::Drop;
                        }
                        rounds += 1;
                        if n < ctl.scratch.len() || rounds >= READS_PER_WAKE {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Keep::Drop,
                }
            }
            // Half a frame, then silence, trips the slow-peer deadline
            // and frees the connection slot; a complete frame clears it.
            self.read_stall = if self.dec.mid_frame() {
                Some(
                    self.read_stall
                        .unwrap_or_else(|| Instant::now() + self.tuning.read_deadline),
                )
            } else {
                None
            };
        }
        if self.pump_writes(ctl) == Keep::Drop {
            return Keep::Drop;
        }
        self.rearm(ctl);
        Keep::Keep
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Keep {
        let now = Instant::now();
        if self.read_stall.is_some_and(|at| now >= at) {
            return Keep::Drop; // wedged mid-frame
        }
        if self.write_stall.is_some_and(|at| now >= at) {
            return Keep::Drop; // peer stopped draining our replies
        }
        self.rearm(ctl);
        Keep::Keep
    }

    fn on_attend(&mut self, ctl: &mut Ctl<'_>) -> Keep {
        // A writer thread staged bytes it could not finish writing.
        if self.pump_writes(ctl) == Keep::Drop {
            return Keep::Drop;
        }
        self.rearm(ctl);
        Keep::Keep
    }
}

/// Translate one decoded frame into the same `LiveMsg` the in-process
/// transport would deliver — unless the inline handler answers it on
/// this thread. Returns `false` when the connection must be dropped
/// (service gone, or the peer sent a frame a server never accepts).
fn dispatch_inbound(
    frame: Frame,
    conn_id: u64,
    inbox: &Sender<LiveMsg>,
    inline: Option<&InlineHandler>,
) -> bool {
    let corr = frame.corr;
    let (trace, inner) = frame.msg.untraced();
    let live = match inner {
        ProtocolMessage::Request(request) => {
            // A mislabeled envelope (corr disagreeing with the id the
            // reply would echo) can never be answered correctly; drop
            // the frame, keep the connection.
            if corr.is_some_and(|c| c != request.id()) {
                return true;
            }
            let request = match inline {
                Some(handler) => match handler(conn_id, request, trace) {
                    None => return true, // answered on this thread
                    Some(owner_work) => owner_work,
                },
                None => request,
            };
            LiveMsg::Request {
                from: Address::Tcp(conn_id),
                request,
                trace,
                enqueued: Instant::now(),
            }
        }
        ProtocolMessage::Grrp(m) => LiveMsg::Grrp(m, Some(Address::Tcp(conn_id))),
        // A server-side connection carries requests and registrations;
        // an unsolicited Reply is a protocol violation, and a
        // handshake frame reaching dispatch (a second Hello after the
        // connection authenticated, or a client-side Welcome/Reject
        // aimed at a server) is out of protocol order.
        ProtocolMessage::Reply(_)
        | ProtocolMessage::Traced { .. }
        | ProtocolMessage::Handshake(_) => return false,
    };
    inbox.send(live).is_ok()
}

/// What one outbound request produced.
pub(crate) type OutboundResult = Result<GripReply, TransportError>;

/// Why an outbound request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TransportError {
    /// Could not dial the peer.
    Connect,
    /// The connection dropped (or desynced) before a full reply arrived.
    Dropped,
    /// No full reply within the read deadline (or no in-flight slot
    /// within the write deadline).
    Timeout,
}

/// Completion callback for one outbound request.
pub(crate) type ReplySink = Box<dyn FnOnce(OutboundResult) + Send + 'static>;

/// One in-flight request on a multiplexed connection.
struct MuxPending {
    sink: ReplySink,
    /// The GRIP id the caller used, restored onto the reply.
    original: u64,
    deadline: Instant,
}

/// Writer-half lifecycle of a multiplexed connection.
enum WireState {
    /// The nonblocking connect has not completed; submitted frames stage
    /// in `queued` and flush on connection.
    Dialing,
    /// Connected: whoever drains writes through this socket (shared
    /// with the shard's reader — one fd per connection).
    Up(Arc<TcpStream>),
    /// Killed; every submit fails fast.
    Dead,
}

/// Shared state of one multiplexed persistent connection: many
/// submitting threads, one reactor shard that completes the dial then
/// reads replies and fires deadlines.
struct MuxConn {
    tuning: TcpTuning,
    state: Mutex<WireState>,
    /// Staged frames: pre-connect backlog and the coalescing buffer.
    queued: Mutex<bytes::BytesMut>,
    /// In-flight requests keyed by correlation id; its lock also guards
    /// the depth gate (`gate` waits on it).
    pending: Mutex<HashMap<u64, MuxPending>>,
    gate: Condvar,
    alive: AtomicBool,
    next_corr: AtomicU64,
    /// Cork count (see [`TcpOutbound::cork_all`]): while non-zero,
    /// [`drain`](Self::drain) stages submitted frames instead of
    /// writing, so a burst of requests coalesces into one write.
    corked: AtomicUsize,
    /// Handle to the shard that owns this connection's socket, set
    /// before the source is activated.
    nudge: OnceLock<Nudge>,
    /// When set, the server's `Welcome` token must verify against this
    /// authenticator (mutual auth); an empty or forged token drops the
    /// connection.
    verify: Option<Authenticator>,
}

impl MuxConn {
    /// Create the connection state, begin a nonblocking dial, and
    /// register it with the reactor. A peer that cannot even be resolved
    /// or a socket that cannot be created kills the connection
    /// immediately (callers see `Connect` failures fast). With `hello`
    /// set, a §7 `Hello` frame is staged ahead of any traffic, so the
    /// handshake rides the same initial burst as the first request.
    fn spawn(
        peer: &str,
        tuning: TcpTuning,
        closed: Arc<AtomicBool>,
        hello: Option<ClientHello>,
    ) -> Arc<MuxConn> {
        let (hello_token, verify) = match hello {
            Some(h) => (Some(h.token), h.verify),
            None => (None, None),
        };
        let conn = Arc::new(MuxConn {
            tuning,
            state: Mutex::new(WireState::Dialing),
            queued: Mutex::new(bytes::BytesMut::new()),
            pending: Mutex::new(HashMap::new()),
            gate: Condvar::new(),
            alive: AtomicBool::new(true),
            next_corr: AtomicU64::new(0),
            corked: AtomicUsize::new(0),
            nudge: OnceLock::new(),
            verify,
        });
        if let Some(token) = hello_token {
            // Plain-framed: the handshake predates any envelope
            // negotiation and expects no correlated reply.
            let mut q = conn.queued.lock();
            let _ = encode_frame_limited(
                &ProtocolMessage::Handshake(Handshake::Hello { token }),
                &mut q,
                tuning.max_frame,
            );
        }
        let sock = resolve(peer).and_then(|addr| connect_nonblocking(&addr).ok());
        let Some((sock, _immediate)) = sock else {
            conn.kill(TransportError::Connect);
            return conn;
        };
        let _ = sock.set_nodelay(true);
        let sock = Arc::new(sock);
        let connect_deadline = Instant::now() + tuning.connect_timeout;
        let reg = Reactor::global().bind(true);
        let _ = conn.nudge.set(reg.nudge());
        reg.activate(
            Box::new(OutboundSource {
                conn: Arc::clone(&conn),
                sock,
                dec: FrameDecoder::with_max_frame(tuning.max_frame),
                closed,
                connected: false,
                connect_deadline,
                write_stall: None,
            }),
            false,
            true, // connect completion reports as writability
            Some(connect_deadline),
        );
        conn
    }

    /// Match one inbound frame to its caller. `false` means protocol
    /// violation (drop the connection); mismatched, duplicate and
    /// unknown correlation ids drop the *frame* only.
    fn on_frame(&self, frame: Frame) -> bool {
        if let ProtocolMessage::Handshake(h) = &frame.msg {
            return match h {
                // Mutual auth: with a trust store configured, the
                // server must prove its identity; without one we accept
                // the Welcome on faith (authenticated-client-only).
                Handshake::Welcome { token, .. } => match &self.verify {
                    Some(auth) => auth.authenticate(token).is_some(),
                    None => true,
                },
                // Reject (or a nonsensical client-bound Hello): the
                // server will not serve us — kill the connection so
                // every pending request fails and the breaker counts.
                _ => false,
            };
        }
        let ProtocolMessage::Reply(mut reply) = frame.msg else {
            return false;
        };
        let key = reply.id();
        if frame.corr.is_some_and(|c| c != key) {
            return true; // mislabeled envelope: not answerable, drop it
        }
        // An unknown or duplicate id is a late reply: drop the frame.
        if let Some(p) = self.pending.lock().remove(&key) {
            self.gate.notify_all();
            reply.set_id(p.original);
            (p.sink)(Ok(reply));
        }
        true
    }

    /// Fire timed-out in-flight requests. The connection stays up:
    /// framing is self-describing, so a late reply is simply dropped as
    /// unknown when it eventually lands.
    fn reap_expired(&self) {
        let now = Instant::now();
        let fired: Vec<MuxPending> = {
            let mut pending = self.pending.lock();
            let expired: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| now >= p.deadline)
                .map(|(k, _)| *k)
                .collect();
            expired
                .into_iter()
                .filter_map(|k| pending.remove(&k))
                .collect()
        };
        if !fired.is_empty() {
            self.gate.notify_all();
            for p in fired {
                (p.sink)(Err(TransportError::Timeout));
            }
        }
    }

    /// Earliest in-flight reply deadline, for the shard's timer.
    fn earliest_deadline(&self) -> Option<Instant> {
        self.pending.lock().values().map(|p| p.deadline).min()
    }

    /// Register `frame` as an in-flight request (rewriting its GRIP id
    /// into the correlation space) and stage its bytes for writing.
    fn submit(&self, mut frame: ProtocolMessage, sink: ReplySink) {
        let deadline = Instant::now() + self.tuning.read_deadline;
        let corr = {
            let mut pending = self.pending.lock();
            while pending.len() >= self.tuning.mux_depth {
                if Reactor::on_reactor_thread() {
                    // Never park a shard thread on backpressure: every
                    // connection the shard owns would stall behind it.
                    // Briefly exceeding mux_depth is the lesser evil.
                    break;
                }
                if !self.alive.load(Ordering::Relaxed) {
                    drop(pending);
                    sink(Err(TransportError::Dropped));
                    return;
                }
                let (guard, wait) = self
                    .gate
                    .wait_timeout(pending, self.tuning.write_deadline)
                    .unwrap_or_else(|e| e.into_inner());
                pending = guard;
                if wait.timed_out() && pending.len() >= self.tuning.mux_depth {
                    drop(pending);
                    sink(Err(TransportError::Timeout));
                    return;
                }
            }
            if !self.alive.load(Ordering::Relaxed) {
                drop(pending);
                sink(Err(TransportError::Dropped));
                return;
            }
            let corr = self.next_corr.fetch_add(1, Ordering::Relaxed) + 1;
            let Some(original) = rewrite_request_id(&mut frame, corr) else {
                drop(pending);
                sink(Err(TransportError::Dropped));
                return;
            };
            pending.insert(
                corr,
                MuxPending {
                    sink,
                    original,
                    deadline,
                },
            );
            corr
        };
        let encoded = {
            let mut q = self.queued.lock();
            encode_mux_frame_limited(corr, &frame, &mut q, self.tuning.max_frame).is_ok()
        };
        if !encoded || !self.flush() {
            // Fire our own sink (unless a concurrent kill already did)
            // and retire the connection.
            if let Some(p) = self.pending.lock().remove(&corr) {
                (p.sink)(Err(TransportError::Dropped));
            }
            self.kill(TransportError::Dropped);
            return;
        }
        // Ask the owning shard to fold this request's reply deadline
        // into its timer (and finish any partial write).
        if let Some(nudge) = self.nudge.get() {
            nudge.attend();
        }
    }

    /// Stage a one-way frame (GRRP notification) — plain framing, no
    /// envelope, no reply expected.
    fn submit_oneway(&self, frame: &ProtocolMessage) {
        let encoded = {
            let mut q = self.queued.lock();
            encode_frame_limited(frame, &mut q, self.tuning.max_frame).is_ok()
        };
        if !encoded || !self.flush() {
            self.kill(TransportError::Dropped);
        }
    }

    /// Nonblocking drain of `queued` through the writer half. Staging is
    /// success while dialing or corked (the shard flushes on connect;
    /// the uncork writes the burst).
    fn drain(&self) -> WriteHealth {
        let mut st = self.state.lock();
        match &mut *st {
            WireState::Dialing => WriteHealth::Idle,
            WireState::Dead => WriteHealth::Dead,
            WireState::Up(stream) => {
                if self.corked.load(Ordering::Acquire) > 0 {
                    return WriteHealth::Idle;
                }
                let mut q = self.queued.lock();
                while !q.is_empty() {
                    match (&**stream).write(&q[..]) {
                        Ok(0) => return WriteHealth::Dead,
                        Ok(n) => q.advance(n),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return WriteHealth::Pending
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => return WriteHealth::Dead,
                    }
                }
                WriteHealth::Idle
            }
        }
    }

    /// Writer-thread drain: `true` while the connection is usable. A
    /// partial write stages the remainder and nudges the owning shard.
    fn flush(&self) -> bool {
        match self.drain() {
            WriteHealth::Dead => false,
            WriteHealth::Idle => true,
            WriteHealth::Pending => {
                if let Some(nudge) = self.nudge.get() {
                    nudge.attend();
                }
                true
            }
        }
    }

    /// Tear the connection down: every in-flight and future request
    /// fails with `err`. Idempotent.
    fn kill(&self, err: TransportError) {
        if !self.alive.swap(false, Ordering::Relaxed) {
            return;
        }
        {
            let mut st = self.state.lock();
            if let WireState::Up(stream) = &*st {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            *st = WireState::Dead;
        }
        self.queued.lock().clear();
        let fired: Vec<MuxPending> = {
            let mut pending = self.pending.lock();
            pending.drain().map(|(_, p)| p).collect()
        };
        self.gate.notify_all();
        for p in fired {
            (p.sink)(Err(err.clone()));
        }
        // Let the owning shard collect the source (and close the fd)
        // promptly instead of waiting for a readiness event.
        if let Some(nudge) = self.nudge.get() {
            nudge.attend();
        }
    }
}

/// Reactor state machine for one outbound connection: complete the
/// nonblocking dial, then read replies, drain staged requests, and fire
/// per-request deadlines off the shard's timer wheel.
struct OutboundSource {
    conn: Arc<MuxConn>,
    sock: Arc<TcpStream>,
    dec: FrameDecoder,
    closed: Arc<AtomicBool>,
    connected: bool,
    connect_deadline: Instant,
    /// Deadline for the current undrained request backlog, if any.
    write_stall: Option<Instant>,
}

impl OutboundSource {
    /// Writability during `Dialing`: the connect finished — check
    /// `SO_ERROR` and promote to `Up` (or kill).
    fn complete_connect(&mut self) -> bool {
        if take_socket_error(&self.sock).is_err() {
            self.conn.kill(TransportError::Connect);
            return false;
        }
        {
            let mut st = self.conn.state.lock();
            if matches!(*st, WireState::Dead) {
                return false; // killed while dialing
            }
            *st = WireState::Up(Arc::clone(&self.sock));
        }
        self.connected = true;
        true
    }

    /// Drain staged requests and track write interest + stall deadline.
    /// Only meaningful once connected.
    fn pump_writes(&mut self, ctl: &mut Ctl<'_>) -> Keep {
        match self.conn.drain() {
            WriteHealth::Dead => {
                self.conn.kill(TransportError::Dropped);
                Keep::Drop
            }
            WriteHealth::Idle => {
                self.write_stall = None;
                ctl.set_interest(true, false);
                Keep::Keep
            }
            WriteHealth::Pending => {
                if self.write_stall.is_none() {
                    self.write_stall = Some(Instant::now() + self.conn.tuning.write_deadline);
                }
                ctl.set_interest(true, true);
                Keep::Keep
            }
        }
    }

    /// Arm the earliest relevant deadline: connect (while dialing),
    /// earliest in-flight reply, write stall.
    fn rearm(&self, ctl: &mut Ctl<'_>) {
        let mut at = if self.connected {
            None
        } else {
            Some(self.connect_deadline)
        };
        for cand in [self.conn.earliest_deadline(), self.write_stall]
            .into_iter()
            .flatten()
        {
            at = Some(at.map_or(cand, |a: Instant| a.min(cand)));
        }
        match at {
            Some(at) => ctl.arm_timer(at),
            None => ctl.clear_timer(),
        }
    }
}

impl EventSource for OutboundSource {
    fn fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }

    fn on_ready(&mut self, readable: bool, _writable: bool, ctl: &mut Ctl<'_>) -> Keep {
        if self.closed.load(Ordering::Relaxed) || !self.conn.alive.load(Ordering::Relaxed) {
            self.conn.kill(TransportError::Dropped);
            return Keep::Drop;
        }
        if !self.connected && !self.complete_connect() {
            return Keep::Drop;
        }
        if readable {
            let mut rounds = 0;
            loop {
                match (&*self.sock).read(ctl.scratch) {
                    Ok(0) => {
                        self.conn.kill(TransportError::Dropped);
                        return Keep::Drop;
                    }
                    Ok(n) => {
                        self.dec.feed(&ctl.scratch[..n]);
                        loop {
                            match self.dec.next_frame() {
                                Ok(Some(frame)) => {
                                    if !self.conn.on_frame(frame) {
                                        self.conn.kill(TransportError::Dropped);
                                        return Keep::Drop;
                                    }
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    // Poisoned decoder: the stream is out
                                    // of sync; drop it, never
                                    // resynchronize.
                                    self.conn.kill(TransportError::Dropped);
                                    return Keep::Drop;
                                }
                            }
                        }
                        rounds += 1;
                        if n < ctl.scratch.len() || rounds >= READS_PER_WAKE {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.conn.kill(TransportError::Dropped);
                        return Keep::Drop;
                    }
                }
            }
            self.conn.reap_expired();
            if !self.conn.alive.load(Ordering::Relaxed) {
                return Keep::Drop;
            }
        }
        if self.pump_writes(ctl) == Keep::Drop {
            return Keep::Drop;
        }
        self.rearm(ctl);
        Keep::Keep
    }

    fn on_timer(&mut self, ctl: &mut Ctl<'_>) -> Keep {
        if self.closed.load(Ordering::Relaxed) || !self.conn.alive.load(Ordering::Relaxed) {
            self.conn.kill(TransportError::Dropped);
            return Keep::Drop;
        }
        let now = Instant::now();
        if !self.connected {
            if now >= self.connect_deadline {
                self.conn.kill(TransportError::Connect);
                return Keep::Drop;
            }
            // An in-flight deadline fired before the dial finished.
            self.conn.reap_expired();
            self.rearm(ctl);
            return Keep::Keep;
        }
        self.conn.reap_expired();
        if !self.conn.alive.load(Ordering::Relaxed) {
            return Keep::Drop;
        }
        if self.write_stall.is_some_and(|at| now >= at) {
            // The peer stopped draining our requests.
            self.conn.kill(TransportError::Dropped);
            return Keep::Drop;
        }
        self.rearm(ctl);
        Keep::Keep
    }

    fn on_attend(&mut self, ctl: &mut Ctl<'_>) -> Keep {
        // A submitter staged bytes / armed a deadline, or kill() wants
        // the fd collected.
        if self.closed.load(Ordering::Relaxed) || !self.conn.alive.load(Ordering::Relaxed) {
            self.conn.kill(TransportError::Dropped);
            return Keep::Drop;
        }
        if !self.connected {
            // Still dialing: keep write interest for the connect; the
            // staged bytes flush on promotion to Up.
            self.rearm(ctl);
            return Keep::Keep;
        }
        if self.pump_writes(ctl) == Keep::Drop {
            return Keep::Drop;
        }
        self.rearm(ctl);
        Keep::Keep
    }
}

/// Multiplexing TCP client shared by a runtime (GIIS chaining, GRRP
/// registration streams) and by standalone [`LiveClient`]
/// (crate::live::LiveClient) handles in client-only processes. Keeps
/// one persistent connection per `host:port` peer, carrying up to
/// `mux_depth` concurrent requests; a dead connection is
/// replaced on the next submit (so a failed dial stays cheap to retry
/// and the circuit breaker sees every failure).
pub(crate) struct TcpOutbound {
    peers: Mutex<HashMap<String, Arc<MuxConn>>>,
    tuning: TcpTuning,
    closed: Arc<AtomicBool>,
    /// Client-side §7 identity: when a credential is present every new
    /// connection leads with a bound `Hello`.
    security: Mutex<OutboundSecurity>,
}

impl Default for TcpOutbound {
    fn default() -> TcpOutbound {
        TcpOutbound::new(TcpTuning::default())
    }
}

impl TcpOutbound {
    pub(crate) fn new(tuning: TcpTuning) -> TcpOutbound {
        TcpOutbound {
            peers: Mutex::new(HashMap::new()),
            tuning,
            closed: Arc::new(AtomicBool::new(false)),
            security: Mutex::new(OutboundSecurity::default()),
        }
    }

    /// Install the outbound identity. Existing connections keep their
    /// tier; new dials lead with a `Hello` bound to the dialed peer.
    pub(crate) fn set_security(&self, sec: OutboundSecurity) {
        *self.security.lock() = sec;
    }

    /// Fire-and-forget a frame (GRRP notifications). Connection errors
    /// are the soft-state protocol's problem: a lost registration is
    /// re-sent at the next refresh interval.
    pub(crate) fn oneway(&self, peer: &str, frame: ProtocolMessage) {
        if self.closed.load(Ordering::Relaxed) {
            return;
        }
        self.conn_for(peer).submit_oneway(&frame);
    }

    /// Send a request frame and hand the single reply frame (or the
    /// failure) to `sink`, asynchronously.
    pub(crate) fn request(&self, peer: &str, frame: ProtocolMessage, sink: ReplySink) {
        if self.closed.load(Ordering::Relaxed) {
            sink(Err(TransportError::Dropped));
            return;
        }
        self.conn_for(peer).submit(frame, sink);
    }

    /// Tear down every connection and fail every in-flight request.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        let conns: Vec<Arc<MuxConn>> = self.peers.lock().drain().map(|(_, c)| c).collect();
        for conn in conns {
            conn.kill(TransportError::Dropped);
        }
    }

    /// Cork every live connection until the returned guard drops:
    /// requests submitted in between stage their frames, and the uncork
    /// writes each connection's burst in one go. Lets an owner thread
    /// draining an inbox batch (GIIS chain fan-out) pay one write per
    /// child connection instead of one per sub-query.
    pub(crate) fn cork_all(&self) -> OutboundCork {
        let conns: Vec<Arc<MuxConn>> = self.peers.lock().values().cloned().collect();
        for conn in &conns {
            conn.corked.fetch_add(1, Ordering::AcqRel);
        }
        OutboundCork { conns }
    }

    /// The live connection to `peer`, dialing a new one when there is
    /// none or the last one died.
    fn conn_for(&self, peer: &str) -> Arc<MuxConn> {
        let mut peers = self.peers.lock();
        match peers.get(peer) {
            Some(conn) if conn.alive.load(Ordering::Relaxed) => Arc::clone(conn),
            _ => {
                let hello = self.security.lock().hello_for(peer);
                let conn = MuxConn::spawn(peer, self.tuning, Arc::clone(&self.closed), hello);
                peers.insert(peer.to_owned(), Arc::clone(&conn));
                conn
            }
        }
    }
}

/// RAII cork over the pooled connections that existed when
/// [`TcpOutbound::cork_all`] ran (a connection dialed mid-cork writes
/// directly, which is merely unbatched). Dropping uncorks and flushes;
/// a connection whose flush fails is torn down exactly as a failed
/// direct write would be.
pub(crate) struct OutboundCork {
    conns: Vec<Arc<MuxConn>>,
}

impl Drop for OutboundCork {
    fn drop(&mut self) {
        for conn in &self.conns {
            conn.corked.fetch_sub(1, Ordering::AcqRel);
            if !conn.flush() {
                conn.kill(TransportError::Dropped);
            }
        }
    }
}

/// Resolve `host:port` to the first socket address.
pub(crate) fn resolve(peer: &str) -> Option<SocketAddr> {
    peer.to_socket_addrs().ok()?.next()
}

/// Why [`ClientConn::recv`] returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecvFail {
    /// Deadline passed with no complete frame.
    Timeout,
    /// Connection closed or desynced; the caller must reconnect.
    Closed,
}

/// A client's single persistent connection to one endpoint. Carries a
/// full client session: pipelined requests out, any number of replies
/// and subscription updates back, in whatever order the service produces
/// them — the socket analogue of a [`LiveClient`]
/// (crate::live::LiveClient) reply channel. Deliberately **blocking**:
/// a client session is one caller waiting on its own socket, which is
/// exactly the case threads are good at; the reactor exists for the
/// N-connection sides (endpoint, outbound pool). Requests go out in the
/// mux envelope (correlation id = the request's own GRIP id, which is
/// already unique per session); inbound frames tolerate both enveloped
/// and plain framing, dropping any whose envelope disagrees with the
/// reply id it carries.
pub(crate) struct ClientConn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Reused read buffer: one allocation per connection, not per recv.
    chunk: Vec<u8>,
    /// Reused encode buffer for outgoing frames; while corked it
    /// accumulates a burst that [`uncork`](Self::uncork) writes at once.
    ebuf: bytes::BytesMut,
    corked: bool,
}

impl ClientConn {
    /// Dial `peer` (`host:port`) under `tuning`'s connect deadline.
    pub(crate) fn connect(peer: &str, tuning: TcpTuning) -> std::io::Result<ClientConn> {
        let addr = resolve(peer).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("bad peer {peer:?}"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&addr, tuning.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(tuning.write_deadline))?;
        Ok(ClientConn {
            stream,
            dec: FrameDecoder::with_max_frame(tuning.max_frame),
            chunk: vec![0u8; READ_CHUNK],
            ebuf: bytes::BytesMut::new(),
            corked: false,
        })
    }

    /// Dial `peer` and, when `security` carries a credential, run the
    /// §7 handshake before returning: send a bound `Hello`, block for
    /// the server's verdict, and verify its `Welcome` token against the
    /// trust store (when one is configured). Returns the connection and
    /// the measured handshake round-trip (`None` for anonymous dials).
    /// A `Reject` (or unverifiable server identity) surfaces as
    /// `PermissionDenied`.
    pub(crate) fn connect_secured(
        peer: &str,
        tuning: TcpTuning,
        security: &SecurityPolicy,
    ) -> std::io::Result<(ClientConn, Option<Duration>)> {
        let mut conn = ClientConn::connect(peer, tuning)?;
        let outbound = OutboundSecurity::from_policy(security);
        let Some(hello) = outbound.hello_for(peer) else {
            return Ok((conn, None));
        };
        let denied = |why: &str| {
            std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                format!("handshake with {peer}: {why}"),
            )
        };
        let started = Instant::now();
        if !conn.send(
            &ProtocolMessage::Handshake(Handshake::Hello { token: hello.token }),
            tuning.max_frame,
        ) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                format!("handshake with {peer}: connection closed"),
            ));
        }
        match conn.recv(tuning.read_deadline) {
            Ok(ProtocolMessage::Handshake(Handshake::Welcome { token, .. })) => {
                if let Some(auth) = &hello.verify {
                    if auth.authenticate(&token).is_none() {
                        return Err(denied("server identity unverifiable"));
                    }
                }
                Ok((conn, Some(started.elapsed())))
            }
            Ok(ProtocolMessage::Handshake(Handshake::Reject { code })) => Err(denied(code.label())),
            Ok(_) => Err(denied("out-of-order reply before handshake")),
            Err(RecvFail::Timeout) => Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("handshake with {peer}: no verdict"),
            )),
            Err(RecvFail::Closed) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                format!("handshake with {peer}: connection closed"),
            )),
        }
    }

    /// Start staging outgoing frames instead of writing each one: a
    /// pipelined burst becomes a single `write(2)` at
    /// [`uncork`](Self::uncork).
    pub(crate) fn cork(&mut self) {
        self.corked = true;
    }

    /// Write everything staged since [`cork`](Self::cork) in one go.
    /// `false` means the connection is dead. No-op when not corked (a
    /// mid-burst redial hands out a fresh, uncorked connection).
    pub(crate) fn uncork(&mut self) -> bool {
        if !self.corked {
            return true;
        }
        self.corked = false;
        if self.ebuf.is_empty() {
            return true;
        }
        let ok = self.stream.write_all(&self.ebuf).is_ok() && self.stream.flush().is_ok();
        self.ebuf.clear();
        ok
    }

    /// Encode and send one frame (staged while corked). `false` means
    /// the connection is dead.
    pub(crate) fn send(&mut self, msg: &ProtocolMessage, max_frame: usize) -> bool {
        if !self.corked {
            self.ebuf.clear();
        }
        let encoded = match request_corr(msg) {
            Some(corr) => encode_mux_frame_limited(corr, msg, &mut self.ebuf, max_frame).is_ok(),
            None => encode_frame_limited(msg, &mut self.ebuf, max_frame).is_ok(),
        };
        if !encoded {
            return false;
        }
        if self.corked {
            return true;
        }
        self.stream.write_all(&self.ebuf).is_ok() && self.stream.flush().is_ok()
    }

    /// Receive the next frame, waiting up to `timeout`. Frames whose
    /// envelope contradicts the reply they carry are dropped without
    /// closing the session.
    pub(crate) fn recv(&mut self, timeout: Duration) -> Result<ProtocolMessage, RecvFail> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => {
                    match frame.corr {
                        Some(c) if reply_corr(&frame.msg) != Some(c) => {
                            continue; // mislabeled envelope: drop frame
                        }
                        _ => return Ok(frame.msg),
                    }
                }
                Ok(None) => {}
                Err(_) => return Err(RecvFail::Closed),
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvFail::Timeout);
            }
            // Block no longer than what is left of the deadline.
            if self.stream.set_read_timeout(Some(remaining)).is_err() {
                return Err(RecvFail::Closed);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(RecvFail::Closed),
                Ok(n) => self.dec.feed(&self.chunk[..n]),
                Err(e) if is_timeout(&e) => {}
                Err(_) => return Err(RecvFail::Closed),
            }
        }
    }
}

/// Correlation id for an outgoing client-session request: its own GRIP
/// id (unique per session).
fn request_corr(msg: &ProtocolMessage) -> Option<u64> {
    match msg {
        ProtocolMessage::Request(r) => Some(r.id()),
        ProtocolMessage::Traced { inner, .. } => request_corr(inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ldap::{Dn, Entry};
    use gis_proto::grip::{ResultCode, SearchSpec};
    use gis_proto::MAX_FRAME;
    use std::sync::mpsc;

    /// A scripted loopback server: accepts one connection, reads `n`
    /// requests, then answers them in the order `plan` dictates
    /// (indices into arrival order), optionally preceded by junk frames
    /// that a correct client must drop without failing real callers.
    fn scripted_server(
        n: usize,
        plan: Vec<usize>,
        inject_junk: bool,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut got: Vec<(u64, Dn)> = Vec::new();
            let mut chunk = [0u8; 4096];
            while got.len() < n {
                let read = stream.read(&mut chunk).unwrap();
                assert_ne!(read, 0, "client hung up early");
                dec.feed(&chunk[..read]);
                while let Some(frame) = dec.next_frame().unwrap() {
                    let corr = frame.corr.expect("outbound requests are enveloped");
                    let ProtocolMessage::Request(GripRequest::Search { id, spec }) = frame.msg
                    else {
                        panic!("expected a search request");
                    };
                    assert_eq!(corr, id, "correlation id is the rewritten GRIP id");
                    got.push((id, spec.base.clone()));
                }
            }
            let mut out = bytes::BytesMut::new();
            if inject_junk {
                // Unknown correlation id: must be dropped.
                let stray = ProtocolMessage::Reply(GripReply::SearchResult {
                    id: 0xDEAD_BEEF,
                    code: ResultCode::Success,
                    entries: vec![],
                    referrals: vec![],
                });
                encode_mux_frame_limited(0xDEAD_BEEF, &stray, &mut out, MAX_FRAME).unwrap();
                // Envelope contradicting the reply id: must be dropped.
                let (first_id, first_dn) = got[0].clone();
                let mislabeled = ProtocolMessage::Reply(GripReply::SearchResult {
                    id: 0xBAD,
                    code: ResultCode::Success,
                    entries: vec![Entry::at(&first_dn.to_string()).unwrap()],
                    referrals: vec![],
                });
                encode_mux_frame_limited(first_id, &mislabeled, &mut out, MAX_FRAME).unwrap();
            }
            for &slot in &plan {
                let (id, dn) = got[slot].clone();
                let reply = ProtocolMessage::Reply(GripReply::SearchResult {
                    id,
                    code: ResultCode::Success,
                    entries: vec![Entry::at(&dn.to_string()).unwrap()],
                    referrals: vec![],
                });
                encode_mux_frame_limited(id, &reply, &mut out, MAX_FRAME).unwrap();
                if inject_junk && slot == plan[0] {
                    // Duplicate of an already-consumed id: must be
                    // dropped, not double-delivered.
                    encode_mux_frame_limited(id, &reply, &mut out, MAX_FRAME).unwrap();
                }
            }
            stream.write_all(&out).unwrap();
            // Hold the socket open until the client is done reading.
            let _ = stream.read(&mut chunk);
        });
        (addr, handle)
    }

    /// Drive `n` concurrent requests through one multiplexed connection
    /// against a server replying in `plan` order; assert every caller
    /// gets exactly its own reply.
    fn run_mux_exchange(n: usize, plan: Vec<usize>, inject_junk: bool) {
        let (addr, server) = scripted_server(n, plan, inject_junk);
        let out = TcpOutbound::new(TcpTuning {
            mux_depth: n.max(1),
            ..TcpTuning::default()
        });
        let (tx, rx) = mpsc::channel::<(u64, OutboundResult)>();
        for i in 0..n {
            let req = ProtocolMessage::Request(GripRequest::Search {
                // Deliberately colliding GRIP ids across callers: the
                // correlation space must keep them apart.
                id: 100 + (i as u64 % 3),
                spec: SearchSpec::lookup(Dn::parse(&format!("hn=h{i}")).unwrap()),
            });
            let tx = tx.clone();
            let marker = i as u64;
            out.request(
                &addr,
                req,
                Box::new(move |res| {
                    let _ = tx.send((marker, res));
                }),
            );
        }
        drop(tx);
        let mut seen = 0;
        while let Ok((marker, res)) = rx.recv() {
            let reply = res.expect("caller must get its reply");
            let GripReply::SearchResult { id, entries, .. } = reply else {
                panic!("expected a search result");
            };
            assert_eq!(id, 100 + (marker % 3), "original GRIP id restored");
            assert_eq!(
                entries[0].dn().to_string(),
                format!("hn=h{marker}"),
                "caller {marker} got someone else's reply"
            );
            seen += 1;
        }
        assert_eq!(seen, n);
        out.close();
        server.join().unwrap();
    }

    #[test]
    fn pipelined_requests_match_out_of_order_replies() {
        run_mux_exchange(6, vec![5, 0, 3, 1, 4, 2], false);
    }

    #[test]
    fn junk_frames_dropped_without_poisoning_callers() {
        run_mux_exchange(4, vec![1, 0, 3, 2], true);
    }

    #[test]
    fn per_request_timeout_keeps_the_connection_alive() {
        // The server never answers request A but answers B and a later
        // C: A's timeout must fire its sink without tearing down the
        // connection the others ride.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut answered = 0;
            let mut chunk = [0u8; 4096];
            while answered < 2 {
                let read = stream.read(&mut chunk).unwrap();
                assert_ne!(read, 0, "client dropped the connection");
                dec.feed(&chunk[..read]);
                while let Some(f) = dec.next_frame().unwrap() {
                    let corr = f.corr.unwrap();
                    if corr == 1 {
                        continue; // request A: never answered
                    }
                    let reply = ProtocolMessage::Reply(GripReply::SearchResult {
                        id: corr,
                        code: ResultCode::Success,
                        entries: vec![],
                        referrals: vec![],
                    });
                    let mut out = bytes::BytesMut::new();
                    encode_mux_frame_limited(corr, &reply, &mut out, MAX_FRAME).unwrap();
                    stream.write_all(&out).unwrap();
                    answered += 1;
                }
            }
            let _ = stream.read(&mut chunk);
        });
        let out = TcpOutbound::new(TcpTuning {
            read_deadline: Duration::from_millis(300),
            ..TcpTuning::default()
        });
        let send = |out: &TcpOutbound, tag: u8| {
            let (tx, rx) = mpsc::channel::<OutboundResult>();
            let req = ProtocolMessage::Request(GripRequest::Search {
                id: tag as u64,
                spec: SearchSpec::lookup(Dn::parse("hn=x").unwrap()),
            });
            out.request(
                &addr,
                req,
                Box::new(move |res| {
                    let _ = tx.send(res);
                }),
            );
            rx
        };
        let rx_a = send(&out, b'a'); // corr 1: the server ignores it
        let rx_b = send(&out, b'b'); // corr 2: answered promptly
        assert!(rx_b.recv().unwrap().is_ok(), "B answered while A pends");
        assert_eq!(
            rx_a.recv().unwrap(),
            Err(TransportError::Timeout),
            "A's own deadline fires"
        );
        let rx_c = send(&out, b'c'); // corr 3: rides the same connection
        assert!(
            rx_c.recv().unwrap().is_ok(),
            "the connection outlives an unrelated per-request timeout"
        );
        out.close();
        server.join().unwrap();
    }

    /// Spin up a real served endpooint (reactor-driven) with no inline
    /// handler: every decoded request lands in the returned inbox.
    fn spawn_endpoint(
        tuning: TcpTuning,
    ) -> (
        TcpEndpoint,
        String,
        crossbeam::channel::Receiver<LiveMsg>,
        Arc<ConnTable>,
        Arc<MetricsRegistry>,
    ) {
        let bound = BoundEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = bound.local_addr().to_string();
        let conns = Arc::new(ConnTable::default());
        let (tx, rx) = crossbeam::channel::unbounded();
        let registry = Arc::new(MetricsRegistry::new());
        let security = WireSecurity::open(&registry);
        let ep = bound.serve(tx, Arc::clone(&conns), tuning, None, security, &registry);
        (ep, addr, rx, conns, registry)
    }

    fn lookup_request(id: u64, dn: &str) -> ProtocolMessage {
        ProtocolMessage::Request(GripRequest::Search {
            id,
            spec: SearchSpec::lookup(Dn::parse(dn).unwrap()),
        })
    }

    // Satellite: a half-frame stall must trip the read deadline on the
    // reactor build, freeing the connection slot for the next client —
    // the transport-level slow-loris defense.
    #[test]
    fn half_frame_stall_trips_deadline_and_frees_the_only_slot() {
        let tuning = TcpTuning {
            read_deadline: Duration::from_millis(200),
            max_conns: 1,
            ..TcpTuning::default()
        };
        let (ep, addr, rx, conns, _registry) = spawn_endpoint(tuning);

        let mut staller = TcpStream::connect(&addr).unwrap();
        staller.write_all(&[0x00, 0x00]).unwrap(); // half a length prefix
        staller
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        let got = staller.read(&mut byte);
        assert!(
            matches!(got, Ok(0)),
            "mid-frame staller must be disconnected by the deadline, got {got:?}"
        );

        // The freed slot admits a new client whose request reaches the
        // inbox. Retry: the listener may briefly still count the old
        // connection against max_conns.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline && !delivered {
            let mut client = match ClientConn::connect(&addr, tuning) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if !client.send(&lookup_request(9, "hn=after-loris"), tuning.max_frame) {
                continue;
            }
            if let Ok(LiveMsg::Request { request, .. }) =
                rx.recv_timeout(Duration::from_millis(500))
            {
                assert_eq!(request.id(), 9);
                delivered = true;
            }
        }
        assert!(delivered, "slot never freed for the next client");
        ep.shutdown(&conns);
    }

    // Satellite: a reply far larger than the socket buffers must drain
    // through write-readiness (partial writes stage the remainder; the
    // shard finishes the job) and arrive byte-exact.
    #[test]
    fn oversized_reply_drains_through_write_readiness() {
        let tuning = TcpTuning::default();
        let (ep, addr, rx, conns, _registry) = spawn_endpoint(tuning);

        // Answer every inbox request with a ~6 MiB reply — far beyond
        // loopback socket buffering, so the first nonblocking write
        // cannot complete.
        let replier_conns = Arc::clone(&conns);
        let blob = "x".repeat(1024 * 1024);
        let expect_entries = 6usize;
        let reply_for = move |id: u64| {
            let entries: Vec<Entry> = (0..expect_entries)
                .map(|i| {
                    Entry::at(&format!("hn=bulk{i}"))
                        .unwrap()
                        .with("payload", blob.as_str())
                })
                .collect();
            ProtocolMessage::Reply(GripReply::SearchResult {
                id,
                code: ResultCode::Success,
                entries,
                referrals: vec![],
            })
        };
        let replier = std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                if let LiveMsg::Request {
                    from: Address::Tcp(conn_id),
                    request,
                    ..
                } = msg
                {
                    assert!(replier_conns.send(conn_id, &reply_for(request.id())));
                }
            }
        });

        let mut client = ClientConn::connect(&addr, tuning).unwrap();
        assert!(client.send(&lookup_request(42, "hn=bulk"), tuning.max_frame));
        // Give the write side time to hit EAGAIN before we start
        // draining: the reply must survive being parked in the staging
        // buffer.
        std::thread::sleep(Duration::from_millis(150));
        let msg = client.recv(Duration::from_secs(20)).expect("bulk reply");
        let ProtocolMessage::Reply(GripReply::SearchResult { id, entries, .. }) = msg else {
            panic!("expected search result");
        };
        assert_eq!(id, 42);
        assert_eq!(entries.len(), expect_entries);
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(entry.dn().to_string(), format!("hn=bulk{i}"));
            assert_eq!(
                entry.get_str("payload").map(str::len),
                Some(1024 * 1024),
                "payload truncated in transit"
            );
        }
        // The connection survived the staged write: a second exchange
        // still works.
        assert!(client.send(&lookup_request(43, "hn=again"), tuning.max_frame));
        let again = client.recv(Duration::from_secs(20)).expect("second reply");
        let ProtocolMessage::Reply(GripReply::SearchResult { id, .. }) = again else {
            panic!("expected search result");
        };
        assert_eq!(id, 43);

        ep.shutdown(&conns);
        replier.join().unwrap();
    }

    // Satellite: arbitrary fragmentation (EAGAIN at every byte boundary
    // the chunk size dictates) must decode identically to feeding the
    // decoder the same bytes directly. Case count kept low: each case
    // spins up a real listener.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 8, ..Default::default()
        })]

        #[test]
        fn fragmented_reads_decode_identically(
            n in 1usize..12,
            chunk in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Build a wire image of n request frames, mixing enveloped
            // and plain framing by seed bits.
            let mut wire = bytes::BytesMut::new();
            for i in 0..n {
                let id = (i + 1) as u64;
                let msg = lookup_request(id, &format!("hn=frag{i}"));
                if (seed >> (i % 64)) & 1 == 1 {
                    encode_mux_frame_limited(id, &msg, &mut wire, MAX_FRAME).unwrap();
                } else {
                    encode_frame_limited(&msg, &mut wire, MAX_FRAME).unwrap();
                }
            }
            let wire = wire.to_vec();

            // Oracle: the same bytes through a decoder directly.
            let mut oracle = Vec::new();
            let mut dec = FrameDecoder::with_max_frame(MAX_FRAME);
            dec.feed(&wire);
            while let Some(frame) = dec.next_frame().unwrap() {
                let ProtocolMessage::Request(GripRequest::Search { id, spec }) = frame.msg
                else { panic!("expected request") };
                oracle.push((id, spec.base.to_string()));
            }
            assert_eq!(oracle.len(), n);

            // Live: the same bytes dribbled at the endpoint in
            // `chunk`-sized writes (down to one byte per write).
            let (ep, addr, rx, conns, _registry) = spawn_endpoint(TcpTuning::default());
            let mut sock = TcpStream::connect(&addr).unwrap();
            sock.set_nodelay(true).unwrap();
            for piece in wire.chunks(chunk) {
                sock.write_all(piece).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..n {
                match rx.recv_timeout(Duration::from_secs(10)).expect("frame lost in reassembly") {
                    LiveMsg::Request { request: GripRequest::Search { id, spec }, .. } => {
                        got.push((id, spec.base.to_string()));
                    }
                    other => panic!("unexpected inbox message: {other:?}"),
                }
            }
            assert_eq!(got, oracle, "fragmented stream decoded differently");
            ep.shutdown(&conns);
        }
    }

    // Satellite: multiplexing correctness as a property — arbitrary
    // shuffles of reply order over one real loopback connection, every
    // caller gets exactly its own reply. Case count kept low: each case
    // spins up a real listener.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12, ..Default::default()
        })]

        #[test]
        fn shuffled_replies_always_reach_their_callers(
            n in 2usize..10,
            seed in proptest::prelude::any::<u64>(),
            junk in proptest::prelude::any::<bool>(),
        ) {
            // Fisher–Yates with a deterministic LCG over the seed.
            let mut plan: Vec<usize> = (0..n).collect();
            let mut s = seed | 1;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                plan.swap(i, j);
            }
            run_mux_exchange(n, plan, junk);
        }
    }

    /// A §7-secured endpoint requiring mutual auth. Returns the policy a
    /// well-behaved client should present (a credential the server's
    /// trust store vouches for, plus the same store for verifying the
    /// server back).
    fn spawn_secured_endpoint(
        tuning: TcpTuning,
    ) -> (
        TcpEndpoint,
        String,
        crossbeam::channel::Receiver<LiveMsg>,
        Arc<ConnTable>,
        Arc<MetricsRegistry>,
        SecurityPolicy,
    ) {
        let ca = gis_gsi::CertAuthority::new("/O=Grid/CN=CA", 42);
        let mut trust = TrustStore::new();
        trust.add_ca(&ca);
        let bound = BoundEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = bound.local_addr().to_string();
        let service_name = format!("tcp://{addr}");
        let conns = Arc::new(ConnTable::default());
        let (tx, rx) = crossbeam::channel::unbounded();
        let registry = Arc::new(MetricsRegistry::new());
        let server = SecurityPolicy::authenticated(ca.issue(&service_name), trust.clone());
        let security = WireSecurity::new(
            &server,
            &service_name,
            &registry,
            Arc::new(|_, _| {}),
            Arc::new(|_| {}),
            Arc::new(|_| {}),
        );
        let ep = bound.serve(tx, Arc::clone(&conns), tuning, None, security, &registry);
        let client = SecurityPolicy::authenticated(ca.issue("/O=Grid/CN=client"), trust);
        (ep, addr, rx, conns, registry, client)
    }

    // Tentpole: GRIP before the handshake on an authenticated endpoint
    // kills that *connection* — never the service. The next, properly
    // authenticated dial is served.
    #[test]
    fn grip_before_auth_drops_connection_not_service() {
        let tuning = TcpTuning::default();
        let (ep, addr, rx, conns, registry, client_policy) = spawn_secured_endpoint(tuning);

        let mut anon = ClientConn::connect(&addr, tuning).unwrap();
        assert!(anon.send(&lookup_request(1, "hn=x"), tuning.max_frame));
        assert!(
            matches!(anon.recv(Duration::from_secs(5)), Err(RecvFail::Closed)),
            "unauthenticated GRIP must drop the connection"
        );
        assert!(
            rx.try_recv().is_err(),
            "the gated request must never reach the inbox"
        );
        assert_eq!(registry.counter("auth-gated").get(), 1);

        let (mut authed, rtt) = ClientConn::connect_secured(&addr, tuning, &client_policy).unwrap();
        assert!(rtt.is_some(), "handshake round-trip measured");
        assert!(authed.send(&lookup_request(2, "hn=y"), tuning.max_frame));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            LiveMsg::Request { request, .. } => assert_eq!(request.id(), 2),
            other => panic!("unexpected inbox message: {other:?}"),
        }
        assert_eq!(registry.counter("auth-ok").get(), 1);
        ep.shutdown(&conns);
    }

    // An unverifiable token is answered with the `auth-rejected` wire
    // code before the connection closes, so the peer learns *why*.
    #[test]
    fn forged_hello_gets_wire_reject_code() {
        let tuning = TcpTuning::default();
        let (ep, addr, _rx, conns, registry, _) = spawn_secured_endpoint(tuning);
        let mut conn = ClientConn::connect(&addr, tuning).unwrap();
        assert!(conn.send(
            &ProtocolMessage::Handshake(Handshake::Hello {
                token: vec![0xDE, 0xAD, 0xBE, 0xEF],
            }),
            tuning.max_frame,
        ));
        match conn.recv(Duration::from_secs(5)) {
            Ok(ProtocolMessage::Handshake(Handshake::Reject { code })) => {
                assert_eq!(code, ResultCode::AuthRejected);
            }
            other => panic!("expected a Reject frame, got {other:?}"),
        }
        assert!(matches!(
            conn.recv(Duration::from_secs(5)),
            Err(RecvFail::Closed)
        ));
        assert_eq!(registry.counter("auth-rejected").get(), 1);
        ep.shutdown(&conns);
    }

    // Satellite: a truncated handshake frame (half a length prefix,
    // then silence) is reaped by the read-stall deadline and leaves the
    // endpoint healthy for the next client.
    #[test]
    fn truncated_handshake_frame_leaves_service_healthy() {
        let tuning = TcpTuning {
            read_deadline: Duration::from_millis(200),
            ..TcpTuning::default()
        };
        let (ep, addr, rx, conns, _registry, client_policy) = spawn_secured_endpoint(tuning);

        let mut stall = TcpStream::connect(&addr).unwrap();
        stall.write_all(&[0x00, 0x00, 0x01]).unwrap();
        stall
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert!(
            matches!(stall.read(&mut byte), Ok(0)),
            "truncated handshake must be reaped by the deadline"
        );

        let (mut ok, _) = ClientConn::connect_secured(&addr, tuning, &client_policy).unwrap();
        assert!(ok.send(&lookup_request(3, "hn=after-stall"), tuning.max_frame));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            LiveMsg::Request { request, .. } => assert_eq!(request.id(), 3),
            other => panic!("unexpected inbox message: {other:?}"),
        }
        ep.shutdown(&conns);
    }

    // Satellite: an absurd length prefix is a framing error — the
    // connection dies immediately, the service does not.
    #[test]
    fn oversized_handshake_frame_drops_connection_cleanly() {
        let tuning = TcpTuning::default();
        let (ep, addr, rx, conns, _registry, client_policy) = spawn_secured_endpoint(tuning);

        let mut big = TcpStream::connect(&addr).unwrap();
        big.write_all(&u32::MAX.to_be_bytes()).unwrap();
        big.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut byte = [0u8; 1];
        assert!(
            matches!(big.read(&mut byte), Ok(0)),
            "oversized frame must close the connection"
        );

        let (mut ok, _) = ClientConn::connect_secured(&addr, tuning, &client_policy).unwrap();
        assert!(ok.send(&lookup_request(4, "hn=after-bomb"), tuning.max_frame));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            LiveMsg::Request { request, .. } => assert_eq!(request.id(), 4),
            other => panic!("unexpected inbox message: {other:?}"),
        }
        ep.shutdown(&conns);
    }

    // Satellite: the handshake survives arbitrary TCP fragmentation —
    // a Hello and the first request sliced at arbitrary byte positions
    // still authenticate and deliver. Case count kept low: each case
    // binds a real listener.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 8, ..Default::default()
        })]

        #[test]
        fn fragmented_handshake_still_authenticates(
            cuts in proptest::collection::vec(1usize..48, 0..6),
        ) {
            let tuning = TcpTuning::default();
            let (ep, addr, rx, conns, _registry, client_policy) =
                spawn_secured_endpoint(tuning);
            let hello = OutboundSecurity::from_policy(&client_policy)
                .hello_for(&addr)
                .expect("client policy carries a credential");
            let mut bytes = bytes::BytesMut::new();
            encode_frame_limited(
                &ProtocolMessage::Handshake(Handshake::Hello { token: hello.token }),
                &mut bytes,
                MAX_FRAME,
            )
            .unwrap();
            encode_mux_frame_limited(
                7,
                &lookup_request(7, "hn=frag"),
                &mut bytes,
                MAX_FRAME,
            )
            .unwrap();
            let mut stream = TcpStream::connect(&addr).unwrap();
            let mut off = 0usize;
            for cut in cuts {
                let end = (off + cut).min(bytes.len());
                if off < end {
                    stream.write_all(&bytes[off..end]).unwrap();
                    stream.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                    off = end;
                }
            }
            stream.write_all(&bytes[off..]).unwrap();
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                LiveMsg::Request { request, .. } => assert_eq!(request.id(), 7),
                other => panic!("unexpected inbox message: {other:?}"),
            }
            ep.shutdown(&conns);
        }
    }
}

//! The GRIP front the GRIS and the GIIS engine share (§10).
//!
//! MDS-2 serves GRIS and GIIS as two back-ends behind one LDAP server
//! front end (OpenLDAP's slapd): bind, sessions, persistent search and
//! self-description belong to the front; a back-end answers searches.
//! [`Front`] is that front. It answers `Bind`, `Subscribe` and
//! `Unsubscribe` ([`Front::request`]), holds the sessions every search
//! is redacted by, delivers due subscriptions ([`Front::deliveries`]),
//! keeps the monitoring-namespace cell and the instruments, and
//! [`registrations`] emits the engine's due GRRP registrations, signed
//! when it holds a credential. The engine behind it is a [`Backend`].
//!
//! A `Front` is a handle on shared state: the engine's owner and every
//! query path it hands out hold clones of the same one.

use gis_gsi::{Requester, ServiceConfig};
use gis_ldap::{Entry, LdapUrl};
use gis_netsim::{SimDuration, SimTime};
use gis_proto::{
    result_digest, Action, Counter, GripReply, GripRequest, Histogram, MetricsRegistry,
    RegistrationAgent, RequestId, ResultCode, SearchSpec, SpanRecord, SubscriptionMode,
    TraceContext, TraceSink,
};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Identifies a client connection (assigned by the runtime: a sim node
/// id, a channel index, ...).
pub type ClientId = u64;

/// What the front asks of the engine behind it.
pub trait Backend {
    /// Whether this engine takes subscriptions (a chaining directory
    /// does not: watches belong at the authoritative source).
    fn subscribes(&self) -> bool;

    /// The entries `spec` names for `requester` at `now`: a new
    /// subscription's snapshot and each later delivery.
    fn evaluate(&self, spec: &SearchSpec, requester: &Requester, now: SimTime) -> Vec<Entry>;
}

/// The front's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Successful binds.
    pub binds_ok: u64,
    /// Failed binds.
    pub binds_failed: u64,
    /// Subscription updates pushed (initial snapshots included).
    pub updates_sent: u64,
    /// Searches served from the `Mds-Vo-name=monitoring` namespace.
    pub monitoring_queries: u64,
}

#[derive(Debug, Default)]
struct Counters {
    binds_ok: Counter,
    binds_failed: Counter,
    updates_sent: Counter,
    monitoring_queries: Counter,
}

/// The monitoring-namespace snapshot and when it was built.
type MonitorCell = RwLock<Option<(SimTime, Arc<Vec<Entry>>)>>;

/// One persistent search.
struct Subscription {
    spec: SearchSpec,
    mode: SubscriptionMode,
    /// Every delivery is evaluated with the subscriber's rights.
    requester: Requester,
    /// Fingerprint of the last delivered answer (`OnChange` compares).
    last_digest: u64,
    /// When a periodic subscription is next due.
    next_due: SimTime,
}

/// The part of a GRIP service that is the same for GRIS and GIIS.
#[derive(Clone)]
pub struct Front {
    sessions: Arc<RwLock<BTreeMap<ClientId, Requester>>>,
    /// Taken by the owner only; behind a lock so that one `Front` is
    /// what the owner and its query paths share.
    subs: Arc<Mutex<BTreeMap<(ClientId, RequestId), Subscription>>>,
    monitor: Arc<MonitorCell>,
    counters: Arc<Counters>,
    enabled: bool,
    registry: Arc<MetricsRegistry>,
    search_us: Arc<Histogram>,
    sink: Arc<OnceLock<Arc<TraceSink>>>,
}

/// `SubscriptionDone` with `UnwillingToPerform`: how a server declines a
/// request it does not serve.
pub fn unwilling(id: RequestId) -> GripReply {
    GripReply::SubscriptionDone {
        id,
        code: ResultCode::UnwillingToPerform,
    }
}

/// The GRRP registrations `agent` has due at `now`, signed when
/// `service` holds a credential (a directory that verifies
/// registrations drops unsigned ones, §7).
pub fn registrations(
    agent: &mut RegistrationAgent,
    service: &ServiceConfig,
    now: SimTime,
) -> Vec<Action> {
    let credential = service.security.credential.as_ref();
    agent
        .due_messages(now)
        .into_iter()
        .map(|(to, mut message)| {
            if let Some(cred) = credential {
                message.subject = Some(cred.subject().to_owned());
                let blob = gis_gsi::sign_registration(cred, &message.signable_bytes());
                message.signature = Some(blob);
            }
            Action::SendGrrp { to, message }
        })
        .collect()
}

impl Front {
    /// A front with no sessions or subscriptions; `observability`
    /// switches the instruments and the monitoring namespace on.
    pub fn new(observability: bool) -> Front {
        let registry = Arc::new(MetricsRegistry::new());
        Front {
            sessions: Arc::default(),
            subs: Arc::default(),
            monitor: Arc::default(),
            counters: Arc::default(),
            enabled: observability,
            search_us: registry.histogram("search-us"),
            registry,
            sink: Arc::default(),
        }
    }

    /// Answer the requests every GRIP server answers alike: `Bind`,
    /// `Subscribe` and `Unsubscribe`. Searches and sync pulls are the
    /// back-end's and come back as `Err`.
    // Err carries the request back unboxed, as the query paths do.
    #[allow(clippy::result_large_err)]
    pub fn request(
        &self,
        client: ClientId,
        req: GripRequest,
        service: &ServiceConfig,
        backend: &impl Backend,
        now: SimTime,
    ) -> Result<GripReply, GripRequest> {
        Ok(match req {
            GripRequest::Bind { id, token, .. } => {
                let subject = service
                    .security
                    .authenticator(service.url.to_string())
                    .and_then(|auth| auth.authenticate(&token));
                match &subject {
                    Some(s) => {
                        self.counters.binds_ok.bump();
                        self.authenticate_session(client, Requester::subject(s.clone()));
                    }
                    None => self.counters.binds_failed.bump(),
                }
                GripReply::BindResult {
                    id,
                    ok: subject.is_some(),
                    subject,
                }
            }
            GripRequest::Subscribe { id, .. } if !backend.subscribes() => unwilling(id),
            GripRequest::Subscribe { id, spec, mode } => {
                // The initial snapshot is delivered at once.
                let requester = self.requester_of(client);
                let entries = backend.evaluate(&spec, &requester, now);
                let next_due = match mode {
                    SubscriptionMode::Periodic(period) => now + period,
                    SubscriptionMode::OnChange => now,
                };
                let sub = Subscription {
                    spec,
                    mode,
                    requester,
                    last_digest: result_digest(&entries),
                    next_due,
                };
                self.subs.lock().insert((client, id), sub);
                self.counters.updates_sent.bump();
                GripReply::Update { id, entries }
            }
            GripRequest::Unsubscribe { id } => GripReply::SubscriptionDone {
                id,
                code: match self.subs.lock().remove(&(client, id)) {
                    Some(_) => ResultCode::Success,
                    None => ResultCode::NoSuchObject,
                },
            },
            other => return Err(other),
        })
    }

    /// The subscription updates due at `now`: every periodic one whose
    /// time has come (its next time advances by one period), and every
    /// on-change one whose answer moved since its last delivery. Each is
    /// evaluated for its subscriber by `backend`.
    pub fn deliveries(&self, backend: &impl Backend, now: SimTime) -> Vec<Action> {
        let due: Vec<_> = self
            .subs
            .lock()
            .iter_mut()
            .filter_map(|(&key, sub)| {
                if let SubscriptionMode::Periodic(period) = sub.mode {
                    if now < sub.next_due {
                        return None;
                    }
                    sub.next_due += period;
                }
                Some((key, sub.spec.clone(), sub.requester.clone()))
            })
            .collect();
        // Evaluated with the table unlocked: an evaluation may search.
        let mut out = Vec::new();
        for ((client, id), spec, requester) in due {
            let entries = backend.evaluate(&spec, &requester, now);
            let digest = result_digest(&entries);
            if let Some(sub) = self.subs.lock().get_mut(&(client, id)) {
                if sub.mode == SubscriptionMode::OnChange && sub.last_digest == digest {
                    continue;
                }
                sub.last_digest = digest;
                self.counters.updates_sent.bump();
                let reply = GripReply::Update { id, entries };
                out.push(Action::Reply { client, reply });
            }
        }
        out
    }

    /// The identity `client`'s requests run as: anonymous until a
    /// successful bind or handshake.
    pub fn requester_of(&self, client: ClientId) -> Requester {
        self.sessions
            .read()
            .get(&client)
            .cloned()
            .unwrap_or_else(Requester::anonymous)
    }

    /// Run `client`'s later requests as `requester`. The transport calls
    /// this when a connection completes the §7 mutual-auth handshake
    /// (the wire analog of a successful in-band `Bind`).
    pub fn authenticate_session(&self, client: ClientId, requester: Requester) {
        self.sessions.write().insert(client, requester);
    }

    /// Forget `client`'s session and subscriptions (its connection
    /// closed).
    pub fn drop_client(&self, client: ClientId) {
        self.sessions.write().remove(&client);
        self.subs.lock().retain(|&(who, _), _| who != client);
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subs.lock().len()
    }

    /// The front's counters.
    pub fn stats(&self) -> FrontStats {
        FrontStats {
            binds_ok: self.counters.binds_ok.get(),
            binds_failed: self.counters.binds_failed.get(),
            updates_sent: self.counters.updates_sent.get(),
            monitoring_queries: self.counters.monitoring_queries.get(),
        }
    }

    /// [`monitoring`](Self::monitoring) for a search of the namespace,
    /// counted before the snapshot is built so a fresh one includes it.
    pub fn monitoring_search(
        &self,
        now: SimTime,
        refresh: SimDuration,
        build: impl FnOnce() -> Vec<Entry>,
    ) -> Option<Arc<Vec<Entry>>> {
        if self.enabled {
            self.counters.monitoring_queries.bump();
        }
        self.monitoring(now, refresh, build)
    }

    /// The monitoring-namespace snapshot, rebuilt by `build` once it is
    /// `refresh` old (soft state, §4.3 applied to the service itself) by
    /// whichever caller notices first. `None` while observability is
    /// off: the namespace does not exist then.
    pub fn monitoring(
        &self,
        now: SimTime,
        refresh: SimDuration,
        build: impl FnOnce() -> Vec<Entry>,
    ) -> Option<Arc<Vec<Entry>>> {
        if !self.enabled {
            return None;
        }
        if let Some((at, entries)) = self.monitor.read().as_ref() {
            if now.since(*at) < refresh {
                return Some(Arc::clone(entries));
            }
        }
        let built = Arc::new(build());
        *self.monitor.write() = Some((now, Arc::clone(&built)));
        Some(built)
    }

    /// Whether instrumentation is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The engine's metrics registry (exported under the monitoring
    /// namespace).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record spans of traced requests into `sink`, for the owner and
    /// every query path alike. The first sink installed stays.
    pub fn set_trace_sink(&self, sink: Arc<TraceSink>) {
        let _ = self.sink.set(sink);
    }

    /// The trace sink, when one is installed.
    pub fn sink(&self) -> Option<&TraceSink> {
        self.sink.get().map(|sink| &**sink)
    }

    /// A span id for a request traced under `trace`, when a sink is
    /// installed, paired with that context.
    pub fn open_span(&self, trace: Option<TraceContext>) -> Option<(TraceContext, u64)> {
        trace.and_then(|ctx| Some((ctx, self.sink()?.next_span())))
    }

    /// Time one answered search into `search-us` and, when it is traced
    /// (`span` from [`open_span`](Self::open_span)), record its span
    /// `name` at `service`.
    pub fn searched(
        &self,
        name: &str,
        service: &LdapUrl,
        span: Option<(TraceContext, u64)>,
        start: SimTime,
        end: SimTime,
        outcome: &str,
    ) {
        if self.enabled {
            self.search_us.record(end.since(start).micros());
        }
        if let (Some(sink), Some((ctx, span))) = (self.sink(), span) {
            sink.record(SpanRecord {
                trace: ctx.trace,
                span,
                parent: Some(ctx.parent),
                service: service.to_string(),
                name: name.to_string(),
                start,
                end,
                outcome: outcome.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ldap::{Dn, Filter};
    use gis_netsim::secs;

    /// A back-end whose every answer is `entries`.
    struct Fixed(Vec<Entry>);

    impl Backend for Fixed {
        fn subscribes(&self) -> bool {
            true
        }

        fn evaluate(&self, _: &SearchSpec, _: &Requester, _: SimTime) -> Vec<Entry> {
            self.0.clone()
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + secs(s)
    }

    fn subscribe(
        front: &Front,
        backend: &Fixed,
        who: ClientId,
        id: RequestId,
        mode: SubscriptionMode,
    ) {
        let spec = SearchSpec::subtree(Dn::root(), Filter::always());
        let req = GripRequest::Subscribe { id, spec, mode };
        let service = ServiceConfig::open(LdapUrl::server("svc"));
        let reply = front.request(who, req, &service, backend, t(0));
        assert!(matches!(reply, Ok(GripReply::Update { .. })), "snapshot");
    }

    fn delivered(actions: &[Action]) -> Vec<(ClientId, RequestId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Reply { client, reply } => Some((*client, reply.id())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn subscription_table_lifecycle() {
        let front = Front::new(true);
        let backend = Fixed(Vec::new());
        subscribe(&front, &backend, 1, 100, SubscriptionMode::OnChange);
        subscribe(
            &front,
            &backend,
            1,
            101,
            SubscriptionMode::Periodic(secs(5)),
        );
        subscribe(&front, &backend, 2, 100, SubscriptionMode::OnChange);
        assert_eq!(front.subscription_count(), 3);
        let service = ServiceConfig::open(LdapUrl::server("svc"));
        let unsubscribe = |id| {
            let req = GripRequest::Unsubscribe { id };
            match front.request(1, req, &service, &backend, t(0)) {
                Ok(GripReply::SubscriptionDone { code, .. }) => code,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(unsubscribe(100), ResultCode::Success);
        assert_eq!(unsubscribe(100), ResultCode::NoSuchObject);
        front.drop_client(1);
        assert_eq!(front.subscription_count(), 1);
    }

    #[test]
    fn subscriptions_deliver_when_due_or_changed() {
        let front = Front::new(true);
        let a = Fixed(vec![Entry::at("hn=a").unwrap()]);
        subscribe(&front, &a, 1, 7, SubscriptionMode::OnChange);
        subscribe(&front, &a, 2, 8, SubscriptionMode::Periodic(secs(5)));
        // At t=4 only the on-change watch is evaluated; it has not moved.
        assert!(front.deliveries(&a, t(4)).is_empty());
        // At t=5 the periodic one is due and delivers even unchanged;
        // its next time is one period later.
        assert_eq!(delivered(&front.deliveries(&a, t(5))), vec![(2, 8)]);
        assert!(front.deliveries(&a, t(9)).is_empty());
        let b = Fixed(vec![Entry::at("hn=b").unwrap()]);
        assert_eq!(
            delivered(&front.deliveries(&b, t(9))),
            vec![(1, 7)],
            "a moved answer is delivered"
        );
        assert_eq!(front.stats().updates_sent, 4);
    }
}

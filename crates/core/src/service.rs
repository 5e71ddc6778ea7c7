//! One service abstraction over the two engines.
//!
//! GRIS and GIIS are two instances of one kind of service (§4–5): both
//! answer GRIP enquiries, speak GRRP and run soft-state timers. Both
//! runtimes drive either engine through [`Service`]: the simulator with
//! one [`crate::actors::ServiceActor`], the live runtime with one
//! generic driver. Both engines hold one [`gis_gris::Front`] (bind,
//! sessions, subscriptions, monitoring, GRRP emission) and every entry
//! point yields the one effect list ([`Action`]), so each impl below
//! only forwards. The drivers are generic, not `dyn`, so each engine's
//! path stays monomorphised.

use gis_giis::{Giis, GiisQueryPath};
use gis_gris::{Front, Gris, GrisQueryPath};
use gis_gsi::ServiceConfig;
use gis_ldap::LdapUrl;
use gis_netsim::SimTime;
pub use gis_proto::Action;
use gis_proto::{GripReply, GripRequest, GrrpMessage, RegistrationAgent, TraceContext};
use gis_store::{JournalOptions, RecoveryReport, Storage};
use std::sync::Arc;

/// An engine's cloneable concurrent read path: what query workers and
/// the TCP reactor's inline handler answer without the engine's owner.
pub trait QueryPath: Clone + Send + Sync + 'static {
    /// Answer `req` if it is read-path work; anything else comes back
    /// as `Err` for the owner thread.
    // Err carries the request back unboxed, as the engines' own
    // `handle_query_traced` does.
    #[allow(clippy::result_large_err)]
    fn handle_query_traced(
        &self,
        client: u64,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Result<Vec<Action>, GripRequest>;

    /// The front the read path shares with its engine (a completed §7
    /// handshake authenticates a session there).
    fn front(&self) -> &Front;
}

/// A GRIP/GRRP service engine a runtime can drive.
pub trait Service: Send + 'static {
    /// The engine's concurrent read path.
    type Query: QueryPath;

    /// A fresh handle on the read path.
    fn query_path(&self) -> Self::Query;

    /// A GRIP request from `client`.
    fn on_request(
        &mut self,
        client: u64,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<Action>;

    /// A GRIP reply from the server at `from` (a GRIS sends no requests
    /// and ignores replies).
    fn on_reply(&mut self, from: &LdapUrl, reply: GripReply, now: SimTime) -> Vec<Action>;

    /// A GRRP notification; `origin` is the sending connection's client
    /// id when it arrived over one.
    fn on_grrp(&mut self, origin: Option<u64>, msg: GrrpMessage, now: SimTime) -> Vec<Action>;

    /// Advance soft-state timers: registration refreshes, subscription
    /// deliveries, deadlines.
    fn on_tick(&mut self, now: SimTime) -> Vec<Action>;

    /// What a runtime reads, and rewrites, before it serves the engine:
    /// the shared knobs (URL, security, observability) and the GRRP
    /// registration agent.
    fn parts(&mut self) -> (&mut ServiceConfig, &mut RegistrationAgent);

    /// Recover from and journal into `storage`.
    fn set_persistence(
        &mut self,
        storage: Arc<dyn Storage>,
        opts: JournalOptions,
        now: SimTime,
    ) -> RecoveryReport;

    /// The engine's front: its metrics registry and trace sink, and the
    /// sessions and subscriptions a closed connection takes with it.
    fn front(&self) -> &Front;
}

impl QueryPath for GrisQueryPath {
    fn handle_query_traced(
        &self,
        client: u64,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Result<Vec<Action>, GripRequest> {
        GrisQueryPath::handle_query_traced(self, client, req, trace, now)
    }

    fn front(&self) -> &Front {
        GrisQueryPath::front(self)
    }
}

impl QueryPath for GiisQueryPath {
    fn handle_query_traced(
        &self,
        client: u64,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Result<Vec<Action>, GripRequest> {
        GiisQueryPath::handle_query_traced(self, client, req, trace, now)
    }

    fn front(&self) -> &Front {
        GiisQueryPath::front(self)
    }
}

impl Service for Gris {
    type Query = GrisQueryPath;

    fn query_path(&self) -> GrisQueryPath {
        Gris::query_path(self)
    }

    fn on_request(
        &mut self,
        client: u64,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<Action> {
        self.handle_request_traced(client, req, trace, now)
    }

    fn on_reply(&mut self, _from: &LdapUrl, _reply: GripReply, _now: SimTime) -> Vec<Action> {
        Vec::new()
    }

    fn on_grrp(&mut self, _origin: Option<u64>, msg: GrrpMessage, _now: SimTime) -> Vec<Action> {
        self.handle_grrp(&msg)
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        self.tick(now)
    }

    fn parts(&mut self) -> (&mut ServiceConfig, &mut RegistrationAgent) {
        (&mut self.config.service, &mut self.agent)
    }

    fn set_persistence(
        &mut self,
        storage: Arc<dyn Storage>,
        opts: JournalOptions,
        now: SimTime,
    ) -> RecoveryReport {
        Gris::set_persistence(self, storage, opts, now)
    }

    fn front(&self) -> &Front {
        Gris::front(self)
    }
}

impl Service for Giis {
    type Query = GiisQueryPath;

    fn query_path(&self) -> GiisQueryPath {
        Giis::query_path(self)
    }

    fn on_request(
        &mut self,
        client: u64,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<Action> {
        self.handle_request_traced(client, req, trace, now)
    }

    fn on_reply(&mut self, from: &LdapUrl, reply: GripReply, now: SimTime) -> Vec<Action> {
        self.handle_reply(from, reply, now)
    }

    fn on_grrp(&mut self, origin: Option<u64>, msg: GrrpMessage, now: SimTime) -> Vec<Action> {
        self.handle_grrp_from(origin, msg, now)
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        self.tick(now)
    }

    fn parts(&mut self) -> (&mut ServiceConfig, &mut RegistrationAgent) {
        (&mut self.config.service, &mut self.agent)
    }

    fn set_persistence(
        &mut self,
        storage: Arc<dyn Storage>,
        opts: JournalOptions,
        now: SimTime,
    ) -> RecoveryReport {
        Giis::set_persistence(self, storage, opts, now)
    }

    fn front(&self) -> &Front {
        Giis::front(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_giis::{GiisConfig, GiisMode};
    use gis_gris::{GrisConfig, HostSpec, InfoProvider, StaticHostProvider};
    use gis_gsi::{Acl, BindToken, CertAuthority, Grant, PolicyMap, Principal};
    use gis_gsi::{SecurityPolicy, TrustStore};
    use gis_ldap::{Dn, Entry, Filter};
    use gis_netsim::secs;
    use gis_proto::{ResultCode, SearchSpec, SubscriptionMode};

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + secs(s)
    }

    fn ca() -> CertAuthority {
        CertAuthority::new("/O=Grid/CN=CA", 61)
    }

    /// Binds verify against `ca`; an anonymous client sees only
    /// `objectclass`, a bound one everything.
    fn security(ca: &CertAuthority, url: &LdapUrl) -> SecurityPolicy {
        let mut trust = TrustStore::new();
        trust.add_ca(ca);
        let anonymous = Grant::Attrs(vec!["objectclass".into()]);
        let acl = Acl::default()
            .with_rule(Principal::Anonymous, anonymous)
            .with_rule(Principal::Authenticated, Grant::All);
        let credential = ca.issue(format!("/O=Grid/CN={}", url.host));
        SecurityPolicy::authenticated(credential, trust)
            .with_policy_map(PolicyMap::with_default(acl))
    }

    fn host() -> HostSpec {
        HostSpec::linux("h", 2)
    }

    fn host_entries() -> Vec<Entry> {
        let spec = SearchSpec::subtree(host().dn(), Filter::always());
        let mut provider = StaticHostProvider::new(host());
        provider.fetch(&spec, t(0)).expect("static host data")
    }

    fn gris(observability: bool) -> (Gris, LdapUrl) {
        let url = LdapUrl::server("gris.h");
        let mut config = GrisConfig::open(url.clone(), host().dn());
        config.security = security(&ca(), &url);
        config.observability = observability;
        let mut gris = Gris::new(config, secs(30), secs(90));
        gris.add_provider(Box::new(StaticHostProvider::new(host())));
        (gris, url)
    }

    /// A harvest directory holding the same host, pulled from a signed
    /// child registration.
    fn giis(observability: bool) -> (Giis, LdapUrl) {
        let url = LdapUrl::server("giis.vo");
        let mut config = GiisConfig::chaining(url.clone(), Dn::root());
        config.mode = GiisMode::Harvest {
            refresh: secs(3600),
        };
        config.security = security(&ca(), &url);
        config.observability = observability;
        let mut giis = Giis::new(config, secs(30), secs(90));
        let child = LdapUrl::server("gris.h");
        let signer = ca().issue("/O=Grid/CN=gris.h");
        let mut msg = GrrpMessage::register(child.clone(), host().dn(), t(0), secs(3600));
        msg.subject = Some(signer.subject().to_owned());
        msg.signature = Some(gis_gsi::sign_registration(&signer, &msg.signable_bytes()));
        let mut actions = giis.on_grrp(None, msg, t(0));
        // The credentialed directory binds first (refused here), then
        // harvests.
        while let Some(Action::SendRequest { request, .. }) = actions.pop() {
            let reply = match request {
                GripRequest::Bind { id, .. } => GripReply::BindResult {
                    id,
                    ok: false,
                    subject: None,
                },
                GripRequest::Search { id, .. } => GripReply::SearchResult {
                    id,
                    code: ResultCode::Success,
                    entries: host_entries(),
                    referrals: Vec::new(),
                },
                other => panic!("unexpected pull {other:?}"),
            };
            actions = giis.on_reply(&child, reply, t(0));
        }
        assert_eq!(giis.cached_entries(), host_entries().len());
        (giis, url)
    }

    /// The one reply `engine` gives `client`.
    fn reply<S: Service>(engine: &mut S, client: u64, req: GripRequest, now: SimTime) -> GripReply {
        match engine.on_request(client, req, None, now).as_slice() {
            [Action::Reply { client: to, reply }] if *to == client => reply.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Whether `client`'s search of the host shows an attribute only a
    /// bound session may see.
    fn sees_all<S: Service>(engine: &mut S, client: u64, now: SimTime) -> bool {
        let spec = SearchSpec::subtree(host().dn(), Filter::always());
        match reply(engine, client, GripRequest::Search { id: 3, spec }, now) {
            GripReply::SearchResult { code, entries, .. } => {
                assert_eq!(code, ResultCode::Success);
                assert!(!entries.is_empty());
                entries.iter().all(|e| e.has("system"))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The clients `actions` deliver subscription updates to.
    fn updated(actions: Vec<Action>) -> Vec<u64> {
        let updates = actions.into_iter().filter_map(|a| match a {
            Action::Reply {
                client,
                reply: GripReply::Update { .. },
            } => Some(client),
            _ => None,
        });
        updates.collect()
    }

    /// Bind, sessions, subscriptions and the monitoring gate answer the
    /// same way whichever engine is behind the front.
    fn front_behaves_alike<S: Service>(make: impl Fn(bool) -> (S, LdapUrl)) {
        let (mut engine, url) = make(true);
        let alice = ca().issue("/O=Grid/CN=alice");
        let bind = |target: &str| GripRequest::Bind {
            id: 1,
            subject: alice.subject().to_owned(),
            token: BindToken::create(&alice, target).to_bytes(),
        };
        // A token for another service is refused; one for this one binds.
        match reply(&mut engine, 1, bind("ldap://elsewhere"), t(1)) {
            GripReply::BindResult { ok, subject, .. } => assert!(!ok && subject.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            !sees_all(&mut engine, 1, t(1)),
            "a refused bind stays anonymous"
        );
        match reply(&mut engine, 1, bind(&url.to_string()), t(1)) {
            GripReply::BindResult { ok, subject, .. } => {
                assert!(ok);
                assert_eq!(subject.as_deref(), Some("/O=Grid/CN=alice"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = engine.front().stats();
        assert_eq!((stats.binds_ok, stats.binds_failed), (1, 1));
        assert!(
            sees_all(&mut engine, 1, t(2)),
            "redacted for the bound session"
        );
        assert!(
            !sees_all(&mut engine, 2, t(2)),
            "another client is anonymous"
        );

        // A subscription delivers its snapshot at once, with the
        // subscriber's rights, then on its period.
        let spec = SearchSpec::subtree(host().dn(), Filter::always());
        let mode = SubscriptionMode::Periodic(secs(10));
        let subscribe = |id| GripRequest::Subscribe {
            id,
            spec: spec.clone(),
            mode,
        };
        match reply(&mut engine, 1, subscribe(4), t(2)) {
            GripReply::Update { id: 4, entries } => {
                assert!(!entries.is_empty() && entries.iter().all(|e| e.has("system")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(updated(engine.on_tick(t(12))), vec![1]);
        let unsubscribe =
            |engine: &mut S| match reply(engine, 1, GripRequest::Unsubscribe { id: 4 }, t(13)) {
                GripReply::SubscriptionDone { id: 4, code } => code,
                other => panic!("unexpected {other:?}"),
            };
        assert_eq!(unsubscribe(&mut engine), ResultCode::Success);
        assert_eq!(unsubscribe(&mut engine), ResultCode::NoSuchObject);
        assert!(updated(engine.on_tick(t(22))).is_empty());

        // A closed connection takes its session and subscriptions along.
        reply(&mut engine, 1, subscribe(5), t(23));
        assert_eq!(engine.front().subscription_count(), 1);
        engine.front().drop_client(1);
        assert_eq!(engine.front().subscription_count(), 0);
        assert!(updated(engine.on_tick(t(40))).is_empty());
        assert!(!sees_all(&mut engine, 1, t(40)), "the session is gone");

        // With observability off the monitoring namespace does not exist.
        let (mut dark, _) = make(false);
        let spec = SearchSpec::subtree(
            Dn::parse("Mds-Vo-name=monitoring").unwrap(),
            Filter::always(),
        );
        match reply(&mut dark, 1, GripRequest::Search { id: 6, spec }, t(1)) {
            GripReply::SearchResult { code, entries, .. } => {
                assert_eq!(code, ResultCode::NoSuchObject);
                assert!(entries.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(dark.front().stats().monitoring_queries, 0);
    }

    #[test]
    fn front_behaves_alike_under_gris() {
        front_behaves_alike(gris);
    }

    #[test]
    fn front_behaves_alike_under_giis() {
        front_behaves_alike(giis);
    }
}

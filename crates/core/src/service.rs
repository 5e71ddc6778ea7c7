//! One service abstraction over the two engines.
//!
//! GRIS and GIIS are two instances of one kind of service (§4–5): both
//! answer GRIP enquiries, speak GRRP and run soft-state timers. Both
//! runtimes drive either engine through [`Service`]: the simulator with
//! one [`crate::actors::ServiceActor`], the live runtime with one
//! generic driver. Every entry point yields the one effect list
//! ([`Action`]). The drivers are generic, not `dyn`, so each engine's
//! path stays monomorphised.

pub use gis_giis::GiisAction as Action;
use gis_giis::{Giis, GiisQueryPath};
use gis_gris::{Gris, GrisQueryPath};
use gis_gsi::{Requester, ServiceConfig};
use gis_ldap::LdapUrl;
use gis_netsim::SimTime;
use gis_proto::{
    GripReply, GripRequest, GrrpMessage, MetricsRegistry, RegistrationAgent, TraceContext,
    TraceSink,
};
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

    /// Run `client`'s later queries as `requester` (a completed §7
    /// handshake).
    fn authenticate_session(&self, client: u64, requester: Requester);
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

    /// Record spans of traced requests into `sink`.
    fn set_trace_sink(&mut self, sink: Arc<TraceSink>);

    /// Recover from and journal into `storage`.
    fn set_persistence(
        &mut self,
        storage: Arc<dyn Storage>,
        opts: JournalOptions,
        now: SimTime,
    ) -> RecoveryReport;

    /// The engine's metrics registry.
    fn metrics(&self) -> Arc<MetricsRegistry>;

    /// Forget `client`'s sessions and subscriptions (its connection
    /// closed).
    fn drop_client(&mut self, client: u64);
}

/// Replies to `client`, as the one effect list.
fn replies_to(client: u64, replies: Vec<GripReply>) -> Vec<Action> {
    replies
        .into_iter()
        .map(|reply| Action::Reply { client, reply })
        .collect()
}

/// The methods both engines implement alike: by the inherent methods
/// of the same name, and from the `config.service` and `agent` fields.
macro_rules! shared_service_methods {
    ($engine:ident) => {
        fn query_path(&self) -> Self::Query {
            $engine::query_path(self)
        }

        fn parts(&mut self) -> (&mut ServiceConfig, &mut RegistrationAgent) {
            (&mut self.config.service, &mut self.agent)
        }

        fn set_trace_sink(&mut self, sink: Arc<TraceSink>) {
            $engine::set_trace_sink(self, sink)
        }

        fn set_persistence(
            &mut self,
            storage: Arc<dyn Storage>,
            opts: JournalOptions,
            now: SimTime,
        ) -> RecoveryReport {
            $engine::set_persistence(self, storage, opts, now)
        }

        fn metrics(&self) -> Arc<MetricsRegistry> {
            $engine::metrics(self)
        }

        fn drop_client(&mut self, client: u64) {
            $engine::drop_client(self, client)
        }
    };
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
            .map(|replies| replies_to(client, replies))
    }

    fn authenticate_session(&self, client: u64, requester: Requester) {
        GrisQueryPath::authenticate_session(self, client, requester)
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

    fn authenticate_session(&self, client: u64, requester: Requester) {
        GiisQueryPath::authenticate_session(self, client, requester)
    }
}

impl Service for Gris {
    type Query = GrisQueryPath;

    fn on_request(
        &mut self,
        client: u64,
        req: GripRequest,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<Action> {
        replies_to(client, self.handle_request_traced(client, req, trace, now))
    }

    fn on_reply(&mut self, _from: &LdapUrl, _reply: GripReply, _now: SimTime) -> Vec<Action> {
        Vec::new()
    }

    fn on_grrp(&mut self, _origin: Option<u64>, msg: GrrpMessage, _now: SimTime) -> Vec<Action> {
        self.handle_grrp(&msg);
        Vec::new()
    }

    /// Registrations first, then subscription updates.
    fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        let out = self.tick(now);
        let registrations = out
            .registrations
            .into_iter()
            .map(|(to, message)| Action::SendGrrp { to, message });
        let updates = out
            .updates
            .into_iter()
            .map(|(client, reply)| Action::Reply { client, reply });
        registrations.chain(updates).collect()
    }

    shared_service_methods!(Gris);
}

impl Service for Giis {
    type Query = GiisQueryPath;

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

    shared_service_methods!(Giis);
}

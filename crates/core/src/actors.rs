//! Simulation-runtime actors: service engines (GRIS and GIIS, through
//! one [`ServiceActor`]) and clients bound to the deterministic network
//! simulator.
//!
//! The protocol engines in `gis-gris`/`gis-giis` are sans-IO; these
//! adapters move their messages over `gis-netsim` and drive their timers.
//! Service endpoints are addressed by LDAP URL; a shared [`NameService`]
//! (the deployment's bootstrap "DNS") maps URLs to simulator nodes.

use crate::service::{Action, Service};
use gis_ldap::LdapUrl;
use gis_netsim::{Actor, Ctx, NodeId, SimDuration, SimTime};
use gis_proto::{GripReply, GripRequest, ProtocolMessage, RequestId, SearchSpec};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Maps service URLs to simulator nodes (and back). Stands in for DNS +
/// the static bootstrap configuration of §9.
#[derive(Clone, Default)]
pub struct NameService {
    inner: Arc<RwLock<NameMaps>>,
}

#[derive(Default)]
struct NameMaps {
    by_url: HashMap<String, NodeId>,
    by_node: HashMap<NodeId, LdapUrl>,
}

impl NameService {
    /// Empty name service.
    pub fn new() -> NameService {
        NameService::default()
    }

    /// Register a service endpoint.
    pub fn register(&self, url: &LdapUrl, node: NodeId) {
        let mut maps = self.inner.write();
        maps.by_url.insert(url.to_string(), node);
        maps.by_node.insert(node, url.clone());
    }

    /// Resolve a URL to its node.
    pub fn resolve(&self, url: &LdapUrl) -> Option<NodeId> {
        self.inner.read().by_url.get(&url.to_string()).copied()
    }

    /// Reverse-resolve a node to its URL.
    pub fn url_of(&self, node: NodeId) -> Option<LdapUrl> {
        self.inner.read().by_node.get(&node).cloned()
    }
}

/// Timer token used by service actors for their periodic tick.
const TICK: u64 = 0;

/// A service engine (GRIS or GIIS) bound to a simulator node.
pub struct ServiceActor<S> {
    /// The protocol engine (public so experiments can inspect stats and
    /// inject provider failures via `Sim::actor_mut`).
    pub engine: S,
    names: NameService,
    tick_every: SimDuration,
}

impl<S: Service> ServiceActor<S> {
    /// Wrap an engine; `tick_every` bounds timer granularity
    /// (registration refresh, subscription delivery cadence, fan-out
    /// deadlines).
    pub fn new(engine: S, names: NameService, tick_every: SimDuration) -> ServiceActor<S> {
        ServiceActor {
            engine,
            names,
            tick_every,
        }
    }

    fn perform(&mut self, ctx: &mut Ctx<'_, ProtocolMessage>, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::SendRequest { to, request, trace } => {
                    if let Some(node) = self.names.resolve(&to) {
                        let msg = ProtocolMessage::Request(request);
                        let msg = match trace {
                            Some(tctx) => msg.traced(tctx),
                            None => msg,
                        };
                        ctx.send(node, msg);
                    }
                    // Unresolvable children simply never answer; the
                    // pending-query deadline converts that into partial
                    // results, exactly like a partitioned child.
                }
                Action::SendGrrp { to, message } => {
                    if let Some(node) = self.names.resolve(&to) {
                        ctx.send(node, ProtocolMessage::Grrp(message));
                    }
                }
                Action::Reply { client, reply } => {
                    ctx.send(NodeId(client as u32), ProtocolMessage::Reply(reply));
                }
            }
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, ProtocolMessage>) {
        let actions = self.engine.on_tick(ctx.now());
        self.perform(ctx, actions);
        ctx.set_timer(self.tick_every, TICK);
    }
}

impl<S: Service> Actor<ProtocolMessage> for ServiceActor<S> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ProtocolMessage>) {
        // Runs on boot *and* on simulator restart: re-announce
        // immediately rather than waiting out the refresh interval, so
        // directories re-learn a recovered service as fast as the
        // network allows.
        self.engine.parts().1.reannounce();
        self.tick(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMessage>,
        from: NodeId,
        msg: ProtocolMessage,
    ) {
        let now = ctx.now();
        let (trace, msg) = msg.untraced();
        let actions = match msg {
            ProtocolMessage::Request(req) => {
                self.engine.on_request(u64::from(from.0), req, trace, now)
            }
            ProtocolMessage::Reply(reply) => {
                let from_url = self
                    .names
                    .url_of(from)
                    .unwrap_or_else(|| LdapUrl::server("unknown"));
                self.engine.on_reply(&from_url, reply, now)
            }
            // The simulated fabric has no reply channel for GRRP.
            ProtocolMessage::Grrp(msg) => self.engine.on_grrp(None, msg, now),
            // Nested envelopes are rejected on decode.
            ProtocolMessage::Traced { .. } => Vec::new(),
            // The §7 handshake authenticates *connections*; the simulated
            // fabric is connectionless, so binds stay in-band
            // (GripRequest::Bind).
            ProtocolMessage::Handshake(_) => Vec::new(),
        };
        self.perform(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ProtocolMessage>, _token: u64) {
        self.tick(ctx);
    }
}

/// A scriptable client: experiments inject requests via `Sim::invoke` and
/// read the recorded replies afterwards.
pub struct ClientActor {
    names: NameService,
    next_id: RequestId,
    /// When each request was sent.
    pub sent_at: BTreeMap<RequestId, SimTime>,
    /// Replies received, in arrival order, per request id (subscriptions
    /// accumulate several).
    pub replies: BTreeMap<RequestId, Vec<(SimTime, GripReply)>>,
}

impl ClientActor {
    /// Create a client.
    pub fn new(names: NameService) -> ClientActor {
        ClientActor {
            names,
            next_id: 1,
            sent_at: BTreeMap::new(),
            replies: BTreeMap::new(),
        }
    }

    /// Send an arbitrary GRIP request to `target`; returns the request id.
    pub fn request(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMessage>,
        target: &LdapUrl,
        build: impl FnOnce(RequestId) -> GripRequest,
    ) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        self.sent_at.insert(id, ctx.now());
        if let Some(node) = self.names.resolve(target) {
            ctx.send(node, ProtocolMessage::Request(build(id)));
        }
        id
    }

    /// Issue a search.
    pub fn search(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMessage>,
        target: &LdapUrl,
        spec: SearchSpec,
    ) -> RequestId {
        self.request(ctx, target, |id| GripRequest::Search { id, spec })
    }

    /// The first terminal search result for a request, if it has arrived.
    pub fn search_result(&self, id: RequestId) -> Option<&GripReply> {
        self.replies.get(&id)?.iter().map(|(_, r)| r).find(|r| {
            matches!(
                r,
                GripReply::SearchResult { .. } | GripReply::BindResult { .. }
            )
        })
    }

    /// All updates received for a subscription.
    pub fn updates(&self, id: RequestId) -> Vec<&GripReply> {
        self.replies
            .get(&id)
            .map(|v| {
                v.iter()
                    .map(|(_, r)| r)
                    .filter(|r| matches!(r, GripReply::Update { .. }))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Round-trip latency of a completed request.
    pub fn latency(&self, id: RequestId) -> Option<SimDuration> {
        let sent = *self.sent_at.get(&id)?;
        let (arrived, _) = self.replies.get(&id)?.first()?;
        Some(arrived.since(sent))
    }
}

impl Actor<ProtocolMessage> for ClientActor {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMessage>,
        _from: NodeId,
        msg: ProtocolMessage,
    ) {
        let (_, msg) = msg.untraced();
        if let ProtocolMessage::Reply(reply) = msg {
            self.replies
                .entry(reply.id())
                .or_default()
                .push((ctx.now(), reply));
        }
    }
}

//! Deployment builder: assemble VOs of GRIS and GIIS instances over the
//! simulator and drive them from experiment code.

use crate::actors::{ClientActor, NameService, ServiceActor};
use gis_giis::Giis;
use gis_gris::{
    DynamicHostProvider, FilesystemProvider, Gris, GrisConfig, HostSpec, QueueProvider,
    StaticHostProvider,
};
use gis_ldap::{Dn, Entry, LdapUrl};
use gis_netsim::{ms, NodeId, Sim, SimDuration, SimTime};
use gis_proto::{GripReply, ProtocolMessage, RequestId, ResultCode, SearchSpec};

/// How often service actors run their periodic tick (registration
/// refresh checks, subscription evaluation, fan-out deadlines).
pub const DEFAULT_TICK: SimDuration = SimDuration(250_000); // 250 ms

/// A simulated MDS-2 deployment under construction and execution.
pub struct SimDeployment {
    /// The underlying simulator (public: experiments partition/crash/heal
    /// through it).
    pub sim: Sim<ProtocolMessage>,
    /// URL-to-node resolution shared by every actor.
    pub names: NameService,
    /// Tick granularity for services added subsequently.
    pub tick_every: SimDuration,
}

impl SimDeployment {
    /// Create a deployment with the given simulation seed.
    pub fn new(seed: u64) -> SimDeployment {
        SimDeployment {
            sim: Sim::new(seed),
            names: NameService::new(),
            tick_every: DEFAULT_TICK,
        }
    }

    /// Add a GRIS service; its URL becomes resolvable immediately.
    pub fn add_gris(&mut self, gris: Gris) -> NodeId {
        let url = gris.config.url.clone();
        let actor = ServiceActor::new(gris, self.names.clone(), self.tick_every);
        let node = self.sim.add_node(url.to_string(), Box::new(actor));
        self.names.register(&url, node);
        node
    }

    /// Add a GIIS service; its URL becomes resolvable immediately.
    pub fn add_giis(&mut self, giis: Giis) -> NodeId {
        let url = giis.config.url.clone();
        let actor = ServiceActor::new(giis, self.names.clone(), self.tick_every);
        let node = self.sim.add_node(url.to_string(), Box::new(actor));
        self.names.register(&url, node);
        node
    }

    /// Add a client.
    pub fn add_client(&mut self, name: &str) -> NodeId {
        let actor = ClientActor::new(self.names.clone());
        self.sim.add_node(name, Box::new(actor))
    }

    /// Build a standard host GRIS (static + dynamic + filesystem + queue
    /// providers) named `gris.<hostname>`, serving the host's namespace.
    pub fn standard_host_gris(host: &HostSpec, seed: u64) -> Gris {
        // The endpoint name embeds the full namespace: host names are
        // only *relatively* unique (§8 — `hn=R1` exists in several
        // organizations), but service URLs must be global.
        let dn = host.dn();
        let mut label_parts: Vec<&str> = dn.rdns().iter().map(|r| r.value()).collect();
        label_parts.reverse();
        let url = LdapUrl::server(format!("gris.{}", label_parts.join(".")));
        let config = GrisConfig::open(url, host.dn());
        let mut gris = Gris::new(
            config,
            SimDuration::from_secs(30),
            SimDuration::from_secs(90),
        );
        gris.add_provider(Box::new(StaticHostProvider::new(host.clone())));
        gris.add_provider(Box::new(DynamicHostProvider::new(
            host,
            seed,
            1.0 + (seed % 3) as f64,
            SimDuration::from_secs(10),
            SimDuration::from_secs(30),
        )));
        gris.add_provider(Box::new(FilesystemProvider::new(
            host,
            "scratch",
            "/disks/scratch1",
            20_000 + (seed % 5) * 10_000,
            seed ^ 0xf5,
            SimDuration::from_secs(60),
        )));
        gris.add_provider(Box::new(QueueProvider::new(
            host,
            "default",
            3.0,
            seed ^ 0x9e,
            SimDuration::from_secs(30),
        )));
        gris
    }

    /// Add a standard host GRIS and point its registration agent at the
    /// given directories. Returns the node and the GRIS URL.
    pub fn add_standard_host(
        &mut self,
        host: &HostSpec,
        seed: u64,
        register_with: &[LdapUrl],
    ) -> (NodeId, LdapUrl) {
        let mut gris = Self::standard_host_gris(host, seed);
        for dir in register_with {
            gris.agent.add_target(dir.clone());
        }
        let url = gris.config.url.clone();
        let node = self.add_gris(gris);
        (node, url)
    }

    /// Issue a search from `client` to `target`.
    pub fn search(&mut self, client: NodeId, target: &LdapUrl, spec: SearchSpec) -> RequestId {
        self.sim
            .invoke::<ClientActor, _>(client, |c, ctx| c.search(ctx, target, spec))
    }

    /// Issue a search and run the simulation until the reply arrives (or
    /// `max_wait` passes). Returns the result when available.
    pub fn search_and_wait(
        &mut self,
        client: NodeId,
        target: &LdapUrl,
        spec: SearchSpec,
        max_wait: SimDuration,
    ) -> Option<(ResultCode, Vec<Entry>, Vec<LdapUrl>)> {
        let id = self.search(client, target, spec);
        let deadline = self.sim.now() + max_wait;
        loop {
            if let Some(GripReply::SearchResult {
                code,
                entries,
                referrals,
                ..
            }) = self
                .sim
                .actor::<ClientActor>(client)
                .and_then(|c| c.search_result(id))
            {
                return Some((*code, entries.clone(), referrals.clone()));
            }
            if self.sim.now() >= deadline {
                return None;
            }
            self.sim.run_for(ms(50));
        }
    }

    /// Run the simulation for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Read-only access to a deployed GRIS engine.
    pub fn gris(&self, node: NodeId) -> &Gris {
        &self
            .sim
            .actor::<ServiceActor<Gris>>(node)
            .expect("node is not a GRIS")
            .engine
    }

    /// Mutable access to a deployed GRIS engine.
    pub fn gris_mut(&mut self, node: NodeId) -> &mut Gris {
        &mut self
            .sim
            .actor_mut::<ServiceActor<Gris>>(node)
            .expect("node is not a GRIS")
            .engine
    }

    /// Read-only access to a deployed GIIS engine.
    pub fn giis(&self, node: NodeId) -> &Giis {
        &self
            .sim
            .actor::<ServiceActor<Giis>>(node)
            .expect("node is not a GIIS")
            .engine
    }

    /// Mutable access to a deployed GIIS engine.
    pub fn giis_mut(&mut self, node: NodeId) -> &mut Giis {
        &mut self
            .sim
            .actor_mut::<ServiceActor<Giis>>(node)
            .expect("node is not a GIIS")
            .engine
    }

    /// Read-only access to a client actor.
    pub fn client(&self, node: NodeId) -> &ClientActor {
        self.sim
            .actor::<ClientActor>(node)
            .expect("node is not a client")
    }
}

/// Convenience: build a VO suffix DN like `o=O1`.
pub fn org(name: &str) -> Dn {
    Dn::parse(&format!("o={name}")).expect("valid org dn")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_giis::GiisConfig;
    use gis_ldap::Filter;
    use gis_netsim::secs;

    #[test]
    fn end_to_end_direct_gris_query() {
        let mut dep = SimDeployment::new(1);
        let host = HostSpec::linux("n1", 4);
        let (_, gris_url) = dep.add_standard_host(&host, 7, &[]);
        let client = dep.add_client("alice");
        dep.run_for(secs(1));

        let (code, entries, _) = dep
            .search_and_wait(
                client,
                &gris_url,
                SearchSpec::subtree(host.dn(), Filter::always()),
                secs(5),
            )
            .expect("reply arrives");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 4);
    }

    #[test]
    fn end_to_end_registration_and_chained_discovery() {
        let mut dep = SimDeployment::new(2);
        let giis_url = LdapUrl::server("giis.vo-a");
        let giis = Giis::new(
            GiisConfig::chaining(giis_url.clone(), Dn::root()),
            secs(30),
            secs(90),
        );
        dep.add_giis(giis);

        for (i, name) in ["n1", "n2", "n3"].iter().enumerate() {
            let host = HostSpec::linux(name, 2);
            dep.add_standard_host(&host, i as u64, std::slice::from_ref(&giis_url));
        }
        let client = dep.add_client("alice");

        // Let registrations flow.
        dep.run_for(secs(2));

        let (code, entries, _) = dep
            .search_and_wait(
                client,
                &giis_url,
                SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
                secs(10),
            )
            .expect("reply arrives");
        assert_eq!(code, ResultCode::Success);
        assert_eq!(entries.len(), 3, "all three hosts discovered");
    }

    #[test]
    fn client_latency_recorded() {
        let mut dep = SimDeployment::new(3);
        let host = HostSpec::linux("n1", 4);
        let (_, gris_url) = dep.add_standard_host(&host, 7, &[]);
        let client = dep.add_client("c");
        dep.run_for(secs(1));
        let id = dep.search(client, &gris_url, SearchSpec::lookup(host.dn()));
        dep.run_for(secs(2));
        let latency = dep.client(client).latency(id).expect("completed");
        assert!(latency > SimDuration::ZERO);
        assert!(latency < secs(1));
    }
}

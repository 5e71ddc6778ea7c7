//! MDS-2 assembly: deployments, runtimes and scenario topologies.
//!
//! This crate binds the sans-IO protocol engines (`gis-gris`,
//! `gis-giis`) to executable runtimes:
//!
//! * [`actors`] + [`deploy`] — the deterministic simulated runtime used
//!   by tests and experiments (Figures 1, 4, 5 become reproducible
//!   simulations);
//! * [`service`] — the one [`Service`] trait both runtimes drive GRIS
//!   and GIIS engines through;
//! * [`scenario`] — prebuilt topologies matching the paper's figures;
//! * [`live`] — a multi-threaded in-process runtime (crossbeam channels,
//!   one thread per service) demonstrating that the same engines run
//!   over real concurrency;
//! * [`transport`] — the TCP boundary under [`live`]: length-prefixed
//!   `ProtocolMessage` frames on real sockets, so a service spawned on
//!   a `tcp://` service URL serves GRIP/GRRP to other OS processes.

#![warn(missing_docs)]

pub mod actors;
pub mod bootstrap;
pub mod deploy;
pub mod live;
pub mod naming;
pub mod reactor;
pub mod scenario;
pub mod service;
pub mod transport;

pub use actors::{ClientActor, NameService, ServiceActor};
pub use bootstrap::{
    discover_directories, join_via_hierarchy, local_default_directory, manual_join,
};
pub use deploy::{org, SimDeployment, DEFAULT_TICK};
pub use live::{
    LiveClient, LiveNetMetrics, LiveRuntime, ReplicaBalancer, RetryPolicy, SearchRequest,
    SearchResponse, ServeOptions, ServiceFault,
};
pub use naming::{Guid, GuidGenerator, NamingAuthority};
pub use scenario::{figure5, two_vos, HierarchyScenario, TwoVoScenario};
pub use service::{QueryPath, Service};
pub use transport::TcpTuning;

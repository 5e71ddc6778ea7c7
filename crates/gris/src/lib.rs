//! GRIS — the Grid Resource Information Service (§10.3 of the paper).
//!
//! "The MDS-2 release includes a standard, configurable information
//! provider framework called a Grid Resource Information Service (GRIS)
//! ... that can be customized by plugging in specific information
//! sources."
//!
//! * [`provider`] — the provider API (the paper's "well-defined API" that
//!   information sources implement) and namespace-intersection pruning;
//! * [`providers`] — the standard source set: static host, dynamic host,
//!   filesystem, queue, and the NWS gateway over a non-enumerable link
//!   namespace;
//! * [`server`] — the sans-IO GRIS engine: per-provider TTL caching,
//!   result merging, mandatory final filtering and ACL redaction;
//! * [`front`] — the GRIP front the GRIS and the GIIS engine share
//!   (§10's one server front end over two back-ends): bind and
//!   sessions, subscriptions, the monitoring namespace and its
//!   instruments, and signed GRRP registration refresh.

#![warn(missing_docs)]

pub mod archive;
pub mod front;
pub mod provider;
pub mod providers;
pub mod server;

pub use archive::{extract_time_range, ArchiveProvider, TimeRange};
pub use front::{Backend, Front, FrontStats};
pub use provider::{namespace_intersects, InfoProvider, ProviderError};
pub use providers::{
    DynamicHostProvider, FilesystemProvider, HostSpec, NwsGatewayProvider, QueueProvider,
    StaticHostProvider,
};
pub use server::{ClientId, Gris, GrisConfig, GrisQueryPath, GrisStats};

//! GIIS — the Grid Index Information Service (§5 and §10.4 of the paper).
//!
//! "We define an aggregate directory as a service that uses GRRP and GRIP
//! to obtain information (from a set of information providers) about a
//! set of entities, and then replies to queries concerning those
//! entities."
//!
//! * [`server`] — the GIIS engine: soft-state GRRP handling with
//!   membership policy, invitation, referral and partial-result
//!   semantics, and five [`GiisMode`]s, each one pairing of an index
//!   builder with a search handler:
//!
//!   | mode         | index                                 | search                    |
//!   |--------------|---------------------------------------|---------------------------|
//!   | `Name`       | names (the soft-state registry)       | registry                  |
//!   | `Chain`      | names                                 | chain                     |
//!   | `Harvest`    | replica pulled by subtree search      | local                     |
//!   | `BloomChain` | replica pulled by search, + summaries | chain routed by summaries |
//!   | `Federated`  | replica pulled by `SyncPull`          | local                     |
//! * [`bloom`] — the lossy-aggregation Bloom filters (§5.1).

#![warn(missing_docs)]

pub mod bloom;
pub mod server;

pub use bloom::{attr_token, BloomFilter};
/// The effect list every engine entry point returns, under its GIIS name.
pub use gis_proto::Action as GiisAction;
pub use server::{
    AcceptPolicy, BreakerConfig, ClientId, Giis, GiisConfig, GiisMode, GiisQueryPath, GiisStats,
};

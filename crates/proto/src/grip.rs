//! GRIP — the GRid Information Protocol (§4.1).
//!
//! GRIP is the enquiry protocol: LDAP's data model, query language and
//! query/reply exchange. It supports three access modes:
//!
//! * **search** (discovery): scoped, filtered retrieval;
//! * **lookup** (enquiry): direct retrieval by name (a base-scope search);
//! * **subscription** (monitoring): a persistent search whose results are
//!   delivered asynchronously as updates ("push mode", §6).
//!
//! Messages are transport-agnostic values; `gis-gris`/`gis-giis` implement
//! the server sides, and the runtimes in `gis-core` move them over the
//! simulated or threaded network.

use gis_ldap::{Dn, Entry, Filter, LdapUrl, Scope};
use gis_netsim::{SimDuration, SimTime};

/// Correlates a reply with its request within one client connection.
pub type RequestId = u64;

/// Result status of a GRIP operation (a pragmatic subset of LDAP result
/// codes, plus `PartialResults` for the paper's partition semantics:
/// "users should have as much partial or even inconsistent information as
/// is available", §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResultCode {
    /// Operation completed.
    Success,
    /// The base object of the search does not exist.
    NoSuchObject,
    /// More entries matched than the size limit allowed.
    SizeLimitExceeded,
    /// The requester's credentials do not grant access.
    InsufficientAccess,
    /// The server cannot serve the request (e.g. provider down).
    Unavailable,
    /// Some information sources could not be reached; the entries
    /// returned are a partial view.
    PartialResults,
    /// A search against a non-enumerable namespace was too broad
    /// ("information providers that support queries on nonenumerable
    /// namespaces might signal an error ... for searches that use too wide
    /// a scope", §4.1).
    UnwillingToPerform,
    /// Every information source was consulted, but some entries were
    /// served from a last-known-good cache because their provider is
    /// currently unavailable (degraded serve-stale mode). Stale entries
    /// carry a `stale: TRUE` attribute. Weaker than `Success`, stronger
    /// than `PartialResults`: nothing is *missing*, but some of it is old.
    StaleResults,
    /// The peer's credentials failed verification: a handshake token or
    /// a GRRP registration signature did not chain to the receiver's
    /// trust store (§7: "ensure that registration messages are
    /// authentic"). Distinct from `InsufficientAccess` (authenticated
    /// but not authorized) and `UnwillingToPerform` (the receiver
    /// cannot authenticate at all).
    AuthRejected,
}

impl ResultCode {
    /// Short lowercase label for span outcomes, metrics labels and logs.
    pub fn label(self) -> &'static str {
        match self {
            ResultCode::Success => "success",
            ResultCode::NoSuchObject => "no-such-object",
            ResultCode::SizeLimitExceeded => "size-limit",
            ResultCode::InsufficientAccess => "insufficient-access",
            ResultCode::Unavailable => "unavailable",
            ResultCode::PartialResults => "partial",
            ResultCode::UnwillingToPerform => "unwilling",
            ResultCode::StaleResults => "stale",
            ResultCode::AuthRejected => "auth-rejected",
        }
    }
}

/// How subscription updates are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubscriptionMode {
    /// Deliver a fresh result every `period` ("push frequent updates").
    Periodic(SimDuration),
    /// Deliver only when the result set changes.
    OnChange,
}

/// The parameters shared by search, lookup and subscribe operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpec {
    /// Base DN the operation is rooted at.
    pub base: Dn,
    /// Search scope.
    pub scope: Scope,
    /// Filter each candidate must satisfy.
    pub filter: Filter,
    /// Attributes to return; empty means all ("reducing the amount of
    /// information that must be transmitted", §4.1).
    pub attrs: Vec<String>,
    /// Maximum entries to return; 0 means unlimited.
    pub size_limit: u32,
}

impl SearchSpec {
    /// A subtree search under `base` with the given filter.
    pub fn subtree(base: Dn, filter: Filter) -> SearchSpec {
        SearchSpec {
            base,
            scope: Scope::Sub,
            filter,
            attrs: Vec::new(),
            size_limit: 0,
        }
    }

    /// A direct lookup (base-scope, match-anything) of one entry.
    pub fn lookup(dn: Dn) -> SearchSpec {
        SearchSpec {
            base: dn,
            scope: Scope::Base,
            filter: Filter::always(),
            attrs: Vec::new(),
            size_limit: 0,
        }
    }

    /// Restrict the returned attributes (builder style).
    pub fn select(mut self, attrs: &[&str]) -> SearchSpec {
        self.attrs = attrs.iter().map(|a| a.to_ascii_lowercase()).collect();
        self
    }

    /// Set a size limit (builder style).
    pub fn limit(mut self, n: u32) -> SearchSpec {
        self.size_limit = n;
        self
    }
}

/// Client-to-server GRIP requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GripRequest {
    /// Authenticate the connection (GSI mutual authentication, §7). The
    /// token is produced and checked by `gis-gsi`.
    Bind {
        /// Request id.
        id: RequestId,
        /// Claimed subject name.
        subject: String,
        /// Opaque credential proof.
        token: Vec<u8>,
    },
    /// One-shot search/lookup.
    Search {
        /// Request id.
        id: RequestId,
        /// What to search.
        spec: SearchSpec,
    },
    /// Persistent search: deliver updates until unsubscribed.
    Subscribe {
        /// Request id (also names the subscription).
        id: RequestId,
        /// What to watch.
        spec: SearchSpec,
        /// Delivery mode.
        mode: SubscriptionMode,
    },
    /// Cancel a subscription.
    Unsubscribe {
        /// The subscription's request id.
        id: RequestId,
    },
    /// Federation bulk pull (directory-to-directory): ask a child GIIS
    /// for everything that changed since `cookie`, restricted to
    /// `subtrees` (empty = the child's whole index). A `None` cookie —
    /// or one from another epoch, or one the child no longer covers —
    /// is answered with a full sync. Answered by
    /// [`GripReply::SyncDelta`].
    SyncPull {
        /// Request id.
        id: RequestId,
        /// Where the puller already is in the child's lineage, if
        /// anywhere.
        cookie: Option<SyncCookie>,
        /// Shard scope: only entries under these DNs are wanted.
        subtrees: Vec<Dn>,
    },
}

/// Where a federation puller stands in one child's snapshot lineage.
/// Versions are only meaningful within an epoch (one incarnation of the
/// child's lineage); a restarted child mints a fresh epoch, and a
/// mismatched epoch always forces a full sync — without it, a version
/// from the previous incarnation could collide with a numerically equal
/// new one and the puller would silently keep divergent rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncCookie {
    /// The child lineage incarnation this cookie was minted in.
    pub epoch: u64,
    /// Last lineage version the puller has applied.
    pub version: u64,
}

impl GripRequest {
    /// The request id of any variant.
    pub fn id(&self) -> RequestId {
        match self {
            GripRequest::Bind { id, .. }
            | GripRequest::Search { id, .. }
            | GripRequest::Subscribe { id, .. }
            | GripRequest::Unsubscribe { id }
            | GripRequest::SyncPull { id, .. } => *id,
        }
    }

    /// Rewrite the request id in place. Multiplexed transports renumber
    /// requests into a per-connection correlation space before framing
    /// (and restore the original on the matching reply), so independent
    /// engines sharing one connection cannot collide.
    pub fn set_id(&mut self, new: RequestId) {
        match self {
            GripRequest::Bind { id, .. }
            | GripRequest::Search { id, .. }
            | GripRequest::Subscribe { id, .. }
            | GripRequest::Unsubscribe { id }
            | GripRequest::SyncPull { id, .. } => *id = new,
        }
    }
}

/// Server-to-client GRIP replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GripReply {
    /// Outcome of a bind.
    BindResult {
        /// Request id.
        id: RequestId,
        /// Whether authentication succeeded.
        ok: bool,
        /// The authenticated subject as seen by the server.
        subject: Option<String>,
    },
    /// Result of a one-shot search: matching entries plus any referrals
    /// ("we can return the name of the information provider directly to
    /// the client in the form of a LDAP URL", §10.4).
    SearchResult {
        /// Request id.
        id: RequestId,
        /// Result status.
        code: ResultCode,
        /// Matching entries.
        entries: Vec<Entry>,
        /// Referrals to consult directly.
        referrals: Vec<LdapUrl>,
    },
    /// An asynchronous subscription update.
    Update {
        /// The subscription's request id.
        id: RequestId,
        /// Current matching entries.
        entries: Vec<Entry>,
    },
    /// Subscription terminated (by unsubscribe or server shutdown).
    SubscriptionDone {
        /// The subscription's request id.
        id: RequestId,
        /// Final status.
        code: ResultCode,
    },
    /// Answer to a [`GripRequest::SyncPull`]: the child's changes since
    /// the presented cookie (`full = false`), or its entire sharded
    /// index (`full = true`, after which the puller must discard what it
    /// held for this child). Entries carry the lineage freshness stamps
    /// (`mds-fresh-at`, `mds-sync-version`); `epoch`/`version` form the
    /// cookie for the next pull and `at` is the child's "as of" clock.
    SyncDelta {
        /// Request id.
        id: RequestId,
        /// True when this is a full sync, not an increment.
        full: bool,
        /// The child lineage incarnation the versions belong to.
        epoch: u64,
        /// Lineage version this delta brings the puller up to.
        version: u64,
        /// The child's observation clock at serve time.
        at: SimTime,
        /// Created/modified entries (full sync: every entry).
        entries: Vec<Entry>,
        /// DNs deleted since the cookie (always empty on a full sync).
        deletes: Vec<Dn>,
    },
    /// Outcome of a GRRP registration the receiver chose to answer —
    /// today only the rejection path: a registration whose signature
    /// could not be verified is bounced back to its sender with
    /// [`ResultCode::AuthRejected`] so a mis-trusting provider learns it
    /// is being dropped instead of watching its soft state silently
    /// evaporate. (Accepted registrations stay unacknowledged; the
    /// soft-state model makes success observable by the entry's
    /// presence.)
    GrrpResult {
        /// Correlation id (0 when the registration carried none).
        id: RequestId,
        /// Why the registration was refused.
        code: ResultCode,
    },
}

impl GripReply {
    /// The request id of any variant.
    pub fn id(&self) -> RequestId {
        match self {
            GripReply::BindResult { id, .. }
            | GripReply::SearchResult { id, .. }
            | GripReply::Update { id, .. }
            | GripReply::SubscriptionDone { id, .. }
            | GripReply::SyncDelta { id, .. }
            | GripReply::GrrpResult { id, .. } => *id,
        }
    }

    /// Rewrite the reply id in place (the inverse of
    /// [`GripRequest::set_id`] on the reply path).
    pub fn set_id(&mut self, new: RequestId) {
        match self {
            GripReply::BindResult { id, .. }
            | GripReply::SearchResult { id, .. }
            | GripReply::Update { id, .. }
            | GripReply::SubscriptionDone { id, .. }
            | GripReply::SyncDelta { id, .. }
            | GripReply::GrrpResult { id, .. } => *id = new,
        }
    }
}

/// Order-independent digest of a result set, used to suppress unchanged
/// `OnChange` deliveries. FNV-1a over each entry's canonical LDIF line
/// set, combined commutatively.
pub fn result_digest(entries: &[Entry]) -> u64 {
    let mut acc: u64 = 0;
    for e in entries {
        let mut h: u64 = 0xcbf29ce484222325;
        let text = gis_ldap::entry_to_ldif(e);
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        acc = acc.wrapping_add(h);
    }
    acc ^ (entries.len() as u64).wrapping_mul(0x9e3779b97f4a7c15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ldap::Entry;

    #[test]
    fn spec_builders() {
        let s = SearchSpec::subtree(Dn::parse("o=O1").unwrap(), Filter::always())
            .select(&["System", "load5"])
            .limit(10);
        assert_eq!(s.scope, Scope::Sub);
        assert_eq!(s.attrs, vec!["system".to_string(), "load5".into()]);
        assert_eq!(s.size_limit, 10);

        let l = SearchSpec::lookup(Dn::parse("hn=hostX").unwrap());
        assert_eq!(l.scope, Scope::Base);
    }

    #[test]
    fn request_and_reply_ids() {
        let r = GripRequest::Search {
            id: 7,
            spec: SearchSpec::lookup(Dn::root()),
        };
        assert_eq!(r.id(), 7);
        let rep = GripReply::SearchResult {
            id: 7,
            code: ResultCode::Success,
            entries: vec![],
            referrals: vec![],
        };
        assert_eq!(rep.id(), 7);
    }

    #[test]
    fn digest_detects_change_and_ignores_order() {
        let a = Entry::at("hn=a").unwrap().with("x", "1");
        let b = Entry::at("hn=b").unwrap().with("x", "2");
        let d1 = result_digest(&[a.clone(), b.clone()]);
        let d2 = result_digest(&[b.clone(), a.clone()]);
        assert_eq!(d1, d2, "order-independent");
        let mut a2 = a.clone();
        a2.add("x", "3");
        let d3 = result_digest(&[a2, b]);
        assert_ne!(d1, d3, "content change detected");
        assert_ne!(result_digest(&[]), d1);
    }

    #[test]
    fn digest_distinguishes_multiplicity() {
        let a = Entry::at("hn=a").unwrap().with("x", "1");
        assert_ne!(
            result_digest(std::slice::from_ref(&a)),
            result_digest(&[a.clone(), a])
        );
    }
}

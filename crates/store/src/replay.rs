//! Deterministic state reconstruction: one `apply` function for
//! recovery (replaying the WAL tail over a loaded snapshot) and for
//! [`DurableDit`](crate::DurableDit), which journals and applies each
//! op through it.
//!
//! The live engines do not call it: the GRIS and the GIIS apply their
//! mutations through their own code and only journal the op. That their
//! path and this one agree is checked, not given: the GIIS
//! `persistence_*` unit tests (a recovered directory serves the replica,
//! registrations and expiry clocks the live one held) and
//! `tests/federation.rs::parent_recovery_full_syncs_from_every_kill_point`.

use std::collections::{BTreeMap, BTreeSet};

use gis_ldap::{Dit, Dn, Entry, LdapUrl};
use gis_netsim::SimTime;
use gis_proto::SoftStateRegistry;

use crate::snapshot::{GroupSnap, LoadedSnapshot, RegSnap};
use crate::wal::WalOp;

/// Per-source attribution state: what one child service (GIIS) or one
/// provider slot (GRIS) contributed, and when it last refreshed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupState {
    /// Last refresh (harvest / provider fetch) clock, if any.
    pub at: Option<SimTime>,
    /// DNs this source owns in the shared tree.
    pub dns: BTreeSet<Dn>,
    /// Rows cached outside the shared tree (GRIS slot caches).
    pub entries: Vec<Entry>,
}

/// The full durable state of a directory service, as reconstructed by
/// recovery (snapshot + WAL tail) or maintained shadow-style by
/// [`DurableDit`](crate::DurableDit).
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// Highest applied WAL sequence number.
    pub seq: u64,
    /// The directory information tree.
    pub dit: Dit,
    /// Soft-state registrations with their original expiry clocks.
    pub registry: SoftStateRegistry,
    /// Per-source attribution, keyed by source name.
    pub groups: BTreeMap<String, GroupState>,
    /// Registration-agent target directories.
    pub targets: Vec<LdapUrl>,
}

impl RecoveredState {
    /// Empty state (a service starting fresh).
    pub fn empty() -> RecoveredState {
        RecoveredState::default()
    }

    /// Rebuild state from a validated snapshot image.
    pub fn from_snapshot(snap: LoadedSnapshot) -> RecoveredState {
        // Bulk-build: snapshot entries are written in key order, so the
        // sorted-run index construction is near-linear — this dominates
        // restart time for large trees.
        let dit = Dit::bulk_load(snap.entries);
        let mut registry = SoftStateRegistry::new();
        registry.restore(snap.regs.into_iter().map(RegSnap::into_registration));
        let groups = snap
            .groups
            .into_iter()
            .map(|g| {
                (
                    g.name,
                    GroupState {
                        at: g.at,
                        dns: g.dns.into_iter().collect(),
                        entries: g.entries,
                    },
                )
            })
            .collect();
        RecoveredState {
            seq: snap.seq,
            dit,
            registry,
            groups,
            targets: snap.targets,
        }
    }

    /// Capture the group map back into snapshot form.
    pub fn group_snaps(&self) -> Vec<GroupSnap> {
        self.groups
            .iter()
            .map(|(name, g)| GroupSnap {
                name: name.clone(),
                at: g.at,
                dns: g.dns.iter().cloned().collect(),
                entries: g.entries.clone(),
            })
            .collect()
    }

    /// Apply one op to this state (replay path).
    pub fn apply(&mut self, op: &WalOp) {
        apply_op(
            &mut self.dit,
            &mut self.registry,
            &mut self.groups,
            &mut self.targets,
            op,
        );
    }
}

/// Apply one logged op to the state pieces: what recovery replays and
/// [`DurableDit`](crate::DurableDit) applies. It is meant to match what
/// the engines do at their journaling sites (see the module docs for
/// the tests that check it); the pieces are split out so a caller can
/// borrow the DIT from inside a `SharedDit::mutate` closure while the
/// rest lives elsewhere.
pub fn apply_op(
    dit: &mut Dit,
    registry: &mut SoftStateRegistry,
    groups: &mut BTreeMap<String, GroupState>,
    targets: &mut Vec<LdapUrl>,
    op: &WalOp,
) {
    match op {
        WalOp::Upsert(e) => {
            dit.upsert(e.clone());
        }
        WalOp::Delete(dn) => {
            dit.delete(dn);
        }
        WalOp::DeleteSubtree(dn) => {
            dit.delete_subtree(dn);
        }
        WalOp::Observe { msg, now } => {
            let key = msg.service_url.to_string();
            if registry.observe(msg.clone(), *now) {
                groups.entry(key).or_default();
            }
        }
        WalOp::Sweep { now } => {
            for url in registry.sweep(*now) {
                if let Some(g) = groups.remove(&url.to_string()) {
                    for dn in &g.dns {
                        dit.delete(dn);
                    }
                }
            }
        }
        WalOp::Harvest {
            child,
            entries,
            now,
        } => {
            let g = groups.entry(child.to_string()).or_default();
            let fresh: BTreeSet<Dn> = entries.iter().map(|e| e.dn().clone()).collect();
            for dn in g.dns.difference(&fresh) {
                dit.delete(dn);
            }
            g.dns = fresh;
            g.at = Some(*now);
            for e in entries {
                dit.upsert(e.clone());
            }
        }
        WalOp::Target { directory } => {
            if !targets.contains(directory) {
                targets.push(directory.clone());
            }
        }
        WalOp::Forget { url } => {
            registry.forget(url);
            if let Some(g) = groups.remove(&url.to_string()) {
                for dn in &g.dns {
                    dit.delete(dn);
                }
            }
        }
        WalOp::Delta {
            child,
            upserts,
            deletes,
            now,
        } => {
            let g = groups.entry(child.to_string()).or_default();
            for dn in deletes {
                dit.delete(dn);
                g.dns.remove(dn);
            }
            for e in upserts {
                g.dns.insert(e.dn().clone());
                dit.upsert(e.clone());
            }
            g.at = Some(*now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_netsim::secs;
    use gis_proto::GrrpMessage;

    fn reg(host: &str, from_s: u64, ttl_s: u64) -> GrrpMessage {
        GrrpMessage::register(
            LdapUrl::server(host),
            Dn::parse(&format!("hn={host}")).unwrap(),
            SimTime::ZERO + secs(from_s),
            secs(ttl_s),
        )
    }

    #[test]
    fn observe_harvest_sweep_lifecycle() {
        let mut st = RecoveredState::empty();
        st.apply(&WalOp::Observe {
            msg: reg("h1", 1, 30),
            now: SimTime::ZERO + secs(1),
        });
        assert_eq!(st.registry.len(), 1);
        assert!(st.groups.contains_key("ldap://h1:389"));

        let e = Entry::at("hn=h1").unwrap().with_class("computer");
        st.apply(&WalOp::Harvest {
            child: LdapUrl::server("h1"),
            entries: vec![e],
            now: SimTime::ZERO + secs(2),
        });
        assert_eq!(st.dit.len(), 1);
        assert_eq!(st.groups["ldap://h1:389"].at, Some(SimTime::ZERO + secs(2)));

        // Sweep past expiry purges the registration and its rows.
        st.apply(&WalOp::Sweep {
            now: SimTime::ZERO + secs(60),
        });
        assert_eq!(st.registry.len(), 0);
        assert!(st.groups.is_empty());
        assert_eq!(st.dit.len(), 0);
    }

    #[test]
    fn harvest_drops_stale_rows() {
        let mut st = RecoveredState::empty();
        let child = LdapUrl::server("h1");
        let old = Entry::at("hn=old").unwrap().with_class("c");
        let new = Entry::at("hn=new").unwrap().with_class("c");
        st.apply(&WalOp::Harvest {
            child: child.clone(),
            entries: vec![old],
            now: SimTime::ZERO + secs(1),
        });
        st.apply(&WalOp::Harvest {
            child,
            entries: vec![new],
            now: SimTime::ZERO + secs(2),
        });
        assert_eq!(st.dit.len(), 1);
        assert!(st.dit.get(&Dn::parse("hn=new").unwrap()).is_some());
        assert!(st.dit.get(&Dn::parse("hn=old").unwrap()).is_none());
    }

    #[test]
    fn delta_applies_incremental_changes() {
        let mut st = RecoveredState::empty();
        let child = LdapUrl::server("giis.child");
        st.apply(&WalOp::Harvest {
            child: child.clone(),
            entries: vec![
                Entry::at("hn=a").unwrap().with_class("c"),
                Entry::at("hn=b").unwrap().with_class("c"),
            ],
            now: SimTime::ZERO + secs(1),
        });
        st.apply(&WalOp::Delta {
            child: child.clone(),
            upserts: vec![Entry::at("hn=c").unwrap().with_class("c")],
            deletes: vec![Dn::parse("hn=a").unwrap()],
            now: SimTime::ZERO + secs(2),
        });
        assert_eq!(st.dit.len(), 2);
        assert!(st.dit.get(&Dn::parse("hn=a").unwrap()).is_none());
        assert!(st.dit.get(&Dn::parse("hn=c").unwrap()).is_some());
        let g = &st.groups[&child.to_string()];
        assert_eq!(g.at, Some(SimTime::ZERO + secs(2)));
        assert_eq!(g.dns.len(), 2);
        // A later sweep that expires the child purges delta-applied rows.
        st.apply(&WalOp::Forget { url: child });
        assert_eq!(st.dit.len(), 0);
    }

    #[test]
    fn targets_dedup() {
        let mut st = RecoveredState::empty();
        let dir = LdapUrl::server("giis.vo");
        st.apply(&WalOp::Target {
            directory: dir.clone(),
        });
        st.apply(&WalOp::Target { directory: dir });
        assert_eq!(st.targets.len(), 1);
    }
}

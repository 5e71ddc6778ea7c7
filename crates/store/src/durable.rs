//! [`DurableDit`]: a [`SharedDit`] whose mutations are journaled.
//!
//! This is the self-contained write-ahead pairing used by the crash
//! oracle and by embedders that don't need a full directory engine:
//! every [`DurableDit::apply`] logs the op, mirrors it through the
//! *same* [`apply_op`] recovery uses (inside the `SharedDit` single-
//! writer path, so readers always see a published prefix of the op
//! sequence), and snapshots on cadence. The live GRIS/GIIS engines use
//! [`Journal`] directly — their apply sites are their own code — but
//! their recovery goes through the identical `Journal::open` path.

use std::collections::BTreeMap;
use std::sync::Arc;

use gis_ldap::{LdapUrl, SharedDit};
use gis_netsim::SimTime;
use gis_proto::SoftStateRegistry;

use crate::journal::{Journal, JournalOptions, RecoveryReport};
use crate::replay::{apply_op, GroupState, RecoveredState};
use crate::snapshot::{RegSnap, SnapshotContent};
use crate::storage::{Storage, StoreResult};
use crate::wal::WalOp;

/// A journaled directory state: shared tree + registry + attribution,
/// every mutation WAL-logged before it is applied.
pub struct DurableDit {
    shared: Arc<SharedDit>,
    registry: SoftStateRegistry,
    groups: BTreeMap<String, GroupState>,
    targets: Vec<LdapUrl>,
    journal: Journal,
}

impl DurableDit {
    /// Recover from `storage` and open for writing.
    pub fn open(
        storage: Arc<dyn Storage>,
        opts: JournalOptions,
        now: SimTime,
    ) -> (DurableDit, RecoveryReport) {
        let (journal, state, report) = Journal::open(storage, opts, now);
        let RecoveredState {
            dit,
            registry,
            groups,
            targets,
            ..
        } = state;
        (
            DurableDit {
                shared: Arc::new(SharedDit::from_dit(dit)),
                registry,
                groups,
                targets,
                journal,
            },
            report,
        )
    }

    /// Log `op`, apply it, and snapshot if the cadence says so. On an
    /// injected crash the error's `durable` flag reports whether the
    /// record survived — the oracle's ground truth.
    pub fn apply(&mut self, op: &WalOp) -> StoreResult<()> {
        self.journal.log(op)?;
        self.shared.mutate(|dit| {
            apply_op(
                dit,
                &mut self.registry,
                &mut self.groups,
                &mut self.targets,
                op,
            )
        });
        self.journal.applied()?;
        if self.journal.wants_snapshot() {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Force a snapshot of the current state.
    pub fn snapshot_now(&mut self) -> StoreResult<u64> {
        let published = self.shared.snapshot();
        let regs: Vec<RegSnap> = self.registry.registrations().map(RegSnap::of).collect();
        let groups: Vec<_> = self
            .groups
            .iter()
            .map(|(name, g)| crate::snapshot::GroupSnap {
                name: name.clone(),
                at: g.at,
                dns: g.dns.iter().cloned().collect(),
                entries: g.entries.clone(),
            })
            .collect();
        let mut it = published.iter();
        self.journal.snapshot(SnapshotContent {
            regs,
            groups,
            targets: self.targets.clone(),
            entries: &mut it,
        })
    }

    /// The shared tree (readers hold this).
    pub fn shared(&self) -> &Arc<SharedDit> {
        &self.shared
    }

    /// The soft-state registry.
    pub fn registry(&self) -> &SoftStateRegistry {
        &self.registry
    }

    /// Per-source attribution.
    pub fn groups(&self) -> &BTreeMap<String, GroupState> {
        &self.groups
    }

    /// Agent targets.
    pub fn targets(&self) -> &[LdapUrl] {
        &self.targets
    }

    /// The journal (cadence queries, explicit sequencing).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use gis_ldap::{Dn, Entry};
    use gis_netsim::secs;
    use gis_proto::GrrpMessage;

    fn opts(snapshot_every: u64) -> JournalOptions {
        JournalOptions {
            snapshot_every,
            ..JournalOptions::default()
        }
    }

    #[test]
    fn apply_recover_roundtrip() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let (mut d, _) = DurableDit::open(storage.clone(), opts(0), SimTime::ZERO);
        d.apply(&WalOp::Upsert(
            Entry::at("hn=h1").unwrap().with_class("computer"),
        ))
        .unwrap();
        d.apply(&WalOp::Observe {
            msg: GrrpMessage::register(
                LdapUrl::server("h1"),
                Dn::parse("hn=h1").unwrap(),
                SimTime::ZERO,
                secs(30),
            ),
            now: SimTime::ZERO,
        })
        .unwrap();
        drop(d);
        let (d2, report) = DurableDit::open(storage, opts(0), SimTime::ZERO + secs(1));
        assert_eq!(report.wal_records, 2);
        assert_eq!(d2.shared().len(), 1);
        assert_eq!(d2.registry().len(), 1);
        assert!(d2.groups().contains_key("ldap://h1:389"));
    }

    #[test]
    fn auto_snapshot_on_cadence() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let (mut d, _) = DurableDit::open(storage.clone(), opts(4), SimTime::ZERO);
        for i in 0..6 {
            d.apply(&WalOp::Upsert(
                Entry::at(&format!("hn=h{i}")).unwrap().with_class("c"),
            ))
            .unwrap();
        }
        assert_eq!(d.journal().wal_backlog(), 2); // 4 compacted, 2 since
        drop(d);
        let (d2, report) = DurableDit::open(storage, opts(4), SimTime::ZERO);
        assert_eq!(report.snapshot_seq, 4);
        assert_eq!(report.wal_records, 2);
        assert_eq!(d2.shared().len(), 6);
    }
}

//! Snapshot-published DIT for concurrent readers (the live runtime's
//! query worker pools).
//!
//! The read-mostly directory workload of §5/§10 is the textbook case for
//! epoch/COW publication: mutators build the next tree version off to
//! the side and *swap* it in, so searches run against a cheap
//! point-in-time snapshot and never take an exclusive lock.
//!
//! # Concurrency model
//!
//! * **Single logical writer.** All mutation goes through [`SharedDit::mutate`],
//!   which serializes writers on the `master` mutex. The engines that own
//!   a `SharedDit` (the GIIS harvest cache) only mutate from their owning
//!   thread, so this mutex is uncontended in practice.
//! * **Build-and-swap publication.** `mutate` applies the whole batch to
//!   the private master tree, then publishes an [`Arc`] clone of it. The
//!   clone is shallow — entries are reference-counted — so publication is
//!   `O(n)` pointer copies, amortized over the batch.
//! * **Wait-free-ish readers.** [`SharedDit::snapshot`] takes the
//!   `published` read lock only long enough to clone the `Arc`; the swap
//!   in `mutate` holds the write lock only for the pointer store. Queries
//!   in flight keep reading the pre-swap snapshot until they drop it.
//! * **No torn reads.** A snapshot is a single `Arc<Dit>` published after
//!   the batch completed: it reflects every mutation batch up to some
//!   serialized prefix and nothing of any later batch.
//!
//! Memory ordering: the `RwLock` acquire/release on `published` is the
//! synchronizing edge — everything the writer did to the master tree
//! before the swap happens-before any reader that observes the new
//! snapshot.

use crate::dit::Dit;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// A [`Dit`] whose readers see immutable point-in-time snapshots while a
/// single logical writer publishes new versions by build-and-swap.
#[derive(Debug)]
pub struct SharedDit {
    /// The writer's private build tree. Only `mutate` touches it.
    master: Mutex<Dit>,
    /// The currently-published snapshot readers clone.
    published: RwLock<Arc<Dit>>,
}

impl Default for SharedDit {
    fn default() -> SharedDit {
        SharedDit::new()
    }
}

impl SharedDit {
    /// An empty shared tree.
    pub fn new() -> SharedDit {
        SharedDit::from_dit(Dit::new())
    }

    /// Wrap an existing tree; it becomes the first published snapshot.
    pub fn from_dit(dit: Dit) -> SharedDit {
        SharedDit {
            published: RwLock::new(Arc::new(dit.clone())),
            master: Mutex::new(dit),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone under a read lock);
    /// the returned tree never changes, however long the caller holds it.
    pub fn snapshot(&self) -> Arc<Dit> {
        Arc::clone(&self.published.read())
    }

    /// Apply a mutation batch and publish the result as the new snapshot.
    ///
    /// The closure runs with the master tree exclusively borrowed;
    /// readers are *not* blocked while it runs — they keep serving the
    /// previous snapshot and observe the whole batch atomically once the
    /// swap lands.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Dit) -> R) -> R {
        let mut master = self.master.lock();
        let out = f(&mut master);
        let next = Arc::new(master.clone());
        // Publish while still holding `master`: batches can never land
        // out of order.
        *self.published.write() = next;
        out
    }

    /// Entry count of the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when the current snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dit::Scope;
    use crate::dn::Dn;
    use crate::entry::Entry;
    use crate::filter::Filter;

    #[test]
    fn snapshot_is_immutable_across_mutation() {
        let shared = SharedDit::new();
        shared.mutate(|d| d.upsert(Entry::at("hn=a").unwrap().with_class("computer")));
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 1);
        shared.mutate(|d| {
            d.upsert(Entry::at("hn=b").unwrap().with_class("computer"));
            d.delete(&Dn::parse("hn=a").unwrap());
        });
        // The old snapshot still sees the pre-batch world.
        assert_eq!(snap.len(), 1);
        assert!(snap.get(&Dn::parse("hn=a").unwrap()).is_some());
        // A fresh snapshot sees the whole batch, atomically.
        let snap2 = shared.snapshot();
        assert_eq!(snap2.len(), 1);
        assert!(snap2.get(&Dn::parse("hn=b").unwrap()).is_some());
    }

    #[test]
    fn from_dit_publishes_initial_state() {
        let mut dit = Dit::new();
        dit.upsert(Entry::at("hn=x").unwrap().with_class("computer"));
        let shared = SharedDit::from_dit(dit);
        assert_eq!(shared.len(), 1);
        assert!(!shared.is_empty());
        let hits = shared.snapshot().search(
            &Dn::root(),
            Scope::Sub,
            &Filter::parse("(objectclass=computer)").unwrap(),
            &[],
            0,
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn concurrent_readers_never_see_partial_batches() {
        // Writers apply multi-entry batches where all entries of batch i
        // carry gen=i; a torn read would surface a snapshot mixing
        // generations.
        let shared = Arc::new(SharedDit::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let w = Arc::clone(&shared);
            let wstop = Arc::clone(&stop);
            s.spawn(move || {
                for gen in 0..200i64 {
                    w.mutate(|d| {
                        for k in 0..4 {
                            d.upsert(
                                Entry::at(&format!("hn=h{k}"))
                                    .unwrap()
                                    .with_class("computer")
                                    .with("gen", gen),
                            );
                        }
                    });
                }
                wstop.store(true, std::sync::atomic::Ordering::Release);
            });
            for _ in 0..3 {
                let r = Arc::clone(&shared);
                let rstop = Arc::clone(&stop);
                s.spawn(move || {
                    while !rstop.load(std::sync::atomic::Ordering::Acquire) {
                        let snap = r.snapshot();
                        let gens: std::collections::BTreeSet<Option<String>> = snap
                            .iter()
                            .map(|e| e.get_str("gen").map(str::to_owned))
                            .collect();
                        assert!(gens.len() <= 1, "torn snapshot mixed generations: {gens:?}");
                    }
                });
            }
        });
    }
}

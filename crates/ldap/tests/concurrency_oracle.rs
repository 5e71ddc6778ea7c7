//! Linearizability oracle for the snapshot-published DIT.
//!
//! M writer threads upsert and expire entries through [`SharedDit::mutate`]
//! while K reader threads search snapshots. Each mutation batch is
//! appended to a shared serialization log *inside* the mutate closure —
//! i.e. under the master lock — so the log order is exactly the order in
//! which batches took effect. Every batch also stamps a sentinel entry
//! with the count of batches applied so far.
//!
//! A reader then checks two invariants against every snapshot it takes:
//!
//! 1. **Oracle equality**: replaying the first `gen` logged batches on a
//!    fresh single-threaded [`Dit`] reproduces the snapshot's search
//!    output exactly — every concurrent result set equals the output of
//!    some single-threaded execution (a serialization prefix).
//! 2. **No torn reads**: the snapshot equals a whole-batch prefix; it can
//!    never mix pre- and post-swap entries of any batch (this falls out
//!    of 1 — a mixed state matches no prefix).

use gis_ldap::{Dit, Dn, Entry, Filter, Scope, SharedDit};
use parking_lot::Mutex;
use std::sync::Arc;

const SLOTS: usize = 6;

#[derive(Clone, Copy, Debug)]
enum Op {
    Upsert {
        slot: usize,
        val: u64,
    },
    /// Soft-state expiry: the entry vanishes.
    Expire {
        slot: usize,
    },
}

fn slot_dn(slot: usize) -> Dn {
    Dn::parse(&format!("rn=r{slot}")).expect("slot dn")
}

fn sentinel_dn() -> Dn {
    Dn::parse("meta=oracle").expect("sentinel dn")
}

fn apply(dit: &mut Dit, op: Op) {
    match op {
        Op::Upsert { slot, val } => {
            dit.upsert(
                Entry::new(slot_dn(slot))
                    .with_class("record")
                    .with("val", val as i64),
            );
        }
        Op::Expire { slot } => {
            dit.delete(&slot_dn(slot));
        }
    }
}

fn stamp(dit: &mut Dit, gen: usize) {
    dit.upsert(
        Entry::new(sentinel_dn())
            .with_class("sentinel")
            .with("gen", gen as i64),
    );
}

/// The observable state a search yields: (dn, val) pairs of the records.
fn observe(dit: &Dit) -> Vec<(String, Option<String>)> {
    let mut out: Vec<(String, Option<String>)> = dit
        .search_shared(
            &Dn::root(),
            Scope::Sub,
            &Filter::parse("(objectclass=record)").expect("filter"),
            &[],
            0,
        )
        .iter()
        .map(|e| (e.dn().to_string(), e.get_str("val").map(str::to_owned)))
        .collect();
    out.sort();
    out
}

/// Tiny deterministic generator so writers need no shared RNG.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[test]
fn concurrent_searches_match_a_serialized_execution() {
    // Tuned so the full run stays fast while still crossing 1k
    // writer-vs-reader iterations.
    const ITERS: usize = 1_000;
    const WRITERS: usize = 2;
    const BATCHES_PER_WRITER: usize = 5;
    const OPS_PER_BATCH: usize = 3;
    const READERS: usize = 2;
    const SNAPSHOTS_PER_READER: usize = 6;

    for iter in 0..ITERS {
        let shared = Arc::new(SharedDit::new());
        // The serialization log: batch i here is the i-th batch that took
        // effect, because pushes happen under the master lock.
        let log: Arc<Mutex<Vec<Vec<Op>>>> = Arc::new(Mutex::new(Vec::new()));
        shared.mutate(|d| stamp(d, 0));

        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let shared = Arc::clone(&shared);
                let log = Arc::clone(&log);
                let mut seed = (iter as u64) << 8 | w as u64;
                s.spawn(move || {
                    for _ in 0..BATCHES_PER_WRITER {
                        let batch: Vec<Op> = (0..OPS_PER_BATCH)
                            .map(|_| {
                                let slot = (next_rand(&mut seed) as usize) % SLOTS;
                                if next_rand(&mut seed).is_multiple_of(4) {
                                    Op::Expire { slot }
                                } else {
                                    Op::Upsert {
                                        slot,
                                        val: next_rand(&mut seed) % 1_000,
                                    }
                                }
                            })
                            .collect();
                        shared.mutate(|d| {
                            let mut log = log.lock();
                            log.push(batch.clone());
                            for op in &batch {
                                apply(d, *op);
                            }
                            stamp(d, log.len());
                        });
                    }
                });
            }
            for _ in 0..READERS {
                let shared = Arc::clone(&shared);
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for _ in 0..SNAPSHOTS_PER_READER {
                        let snap = shared.snapshot();
                        let gen = snap
                            .get(&sentinel_dn())
                            .and_then(|e| e.get_str("gen").map(str::to_owned))
                            .and_then(|g| g.parse::<usize>().ok())
                            .expect("sentinel present in every snapshot");
                        // The logged prefix the sentinel claims is fully
                        // present (pushes precede the stamp, both under
                        // the master lock).
                        let prefix: Vec<Vec<Op>> = log.lock().iter().take(gen).cloned().collect();
                        assert_eq!(
                            prefix.len(),
                            gen,
                            "snapshot generation beyond the serialization log"
                        );
                        let mut oracle = Dit::new();
                        for batch in &prefix {
                            for op in batch {
                                apply(&mut oracle, *op);
                            }
                        }
                        assert_eq!(
                            observe(&snap),
                            observe(&oracle),
                            "snapshot at gen {gen} diverges from the serialized replay"
                        );
                    }
                });
            }
        });

        // After all threads join, the final snapshot must equal the full
        // serialized execution.
        let full: Vec<Vec<Op>> = log.lock().clone();
        let mut oracle = Dit::new();
        for batch in &full {
            for op in batch {
                apply(&mut oracle, *op);
            }
        }
        assert_eq!(observe(&shared.snapshot()), observe(&oracle));
    }
}

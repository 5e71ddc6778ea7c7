//! Exhaustive interleaving model of the [`SharedDit`] snapshot-swap
//! protocol (the offline stand-in for a loom pass; see EXPERIMENTS.md,
//! "Thread sanitizer / model checking").
//!
//! The protocol under test, as implemented by `SharedDit::mutate` /
//! `snapshot`, reduced to its atomic micro-steps:
//!
//! writer:  lock(master) → apply batch → wlock(published) → swap
//!          → unlock(published) → unlock(master)
//! reader:  rlock(published) → observe → unlock(published)
//!
//! The model enumerates **every** interleaving of 2 writers and 1
//! reader (two observations) over those micro-steps, with real
//! lock-blocking semantics, and checks the invariants the runtime code
//! relies on:
//!
//! 1. every observation is a prefix of the serialization log (batch
//!    order = master-lock acquisition order) — no torn/mixed state;
//! 2. a reader's successive observations are monotonically extending
//!    prefixes — the published snapshot never goes backwards;
//! 3. after quiescence the published snapshot equals the full log.
//!
//! To show the checker has teeth, the same search runs against the
//! classic broken variant — copy the master, *release the master lock*,
//! then publish — and must find the interleaving where a stale copy
//! overwrites a newer publication.

use std::collections::BTreeSet;

const WRITERS: usize = 2;
const READER_OBSERVATIONS: usize = 2;
const WRITER_STEPS: usize = 6;

/// Which protocol the writers follow.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// Publish while still holding the master lock (the real code).
    PublishUnderMasterLock,
    /// Copy, release the master lock, then publish — racy by design.
    PublishAfterUnlock,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    /// Program counter per writer, then the reader's pc.
    writer_pc: [usize; WRITERS],
    reader_pc: usize,
    observations_done: usize,
    /// `Some(w)` while writer `w` holds the master mutex.
    master_held: Option<usize>,
    /// `Some(w)` while writer `w` holds the published write lock; the
    /// reader's read lock is modelled by `reader_holds_publish`.
    publish_wheld: Option<usize>,
    reader_holds_publish: bool,
    /// Batches applied to the master Dit, in order.
    master: Vec<usize>,
    /// The published snapshot's contents.
    published: Vec<usize>,
    /// Serialization log: master-lock acquisition order.
    log: Vec<usize>,
    /// Buggy variant only: each writer's private copy taken under the
    /// master lock, published later.
    local_copy: [Option<Vec<usize>>; WRITERS],
    /// What the reader saw, in order.
    observed: Vec<Vec<usize>>,
}

impl State {
    fn initial() -> State {
        State {
            writer_pc: [0; WRITERS],
            reader_pc: 0,
            observations_done: 0,
            master_held: None,
            publish_wheld: None,
            reader_holds_publish: false,
            master: Vec::new(),
            published: Vec::new(),
            log: Vec::new(),
            local_copy: [None, None],
            observed: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        self.writer_pc.iter().all(|&pc| pc == WRITER_STEPS)
            && self.observations_done == READER_OBSERVATIONS
    }

    /// Advance writer `w` one micro-step if unblocked.
    fn step_writer(&self, w: usize, variant: Variant) -> Option<State> {
        if self.writer_pc[w] >= WRITER_STEPS {
            return None;
        }
        let mut next = self.clone();
        match (variant, self.writer_pc[w]) {
            // Both variants: acquire master, apply the batch.
            (_, 0) => {
                if self.master_held.is_some() {
                    return None;
                }
                next.master_held = Some(w);
                next.log.push(w);
            }
            (_, 1) => next.master.push(w),
            (Variant::PublishUnderMasterLock, 2) => {
                if self.publish_wheld.is_some() || self.reader_holds_publish {
                    return None;
                }
                next.publish_wheld = Some(w);
            }
            (Variant::PublishUnderMasterLock, 3) => next.published = self.master.clone(),
            (Variant::PublishUnderMasterLock, 4) => next.publish_wheld = None,
            (Variant::PublishUnderMasterLock, 5) => next.master_held = None,
            // Buggy variant: copy, drop the master lock, then publish.
            (Variant::PublishAfterUnlock, 2) => next.local_copy[w] = Some(self.master.clone()),
            (Variant::PublishAfterUnlock, 3) => next.master_held = None,
            (Variant::PublishAfterUnlock, 4) => {
                if self.publish_wheld.is_some() || self.reader_holds_publish {
                    return None;
                }
                next.publish_wheld = Some(w);
                next.published = self.local_copy[w].clone().expect("copied before publish");
            }
            (Variant::PublishAfterUnlock, 5) => next.publish_wheld = None,
            _ => unreachable!("writer pc out of range"),
        }
        next.writer_pc[w] += 1;
        Some(next)
    }

    /// Advance the reader one micro-step if unblocked.
    fn step_reader(&self) -> Option<State> {
        if self.observations_done >= READER_OBSERVATIONS {
            return None;
        }
        let mut next = self.clone();
        match self.reader_pc {
            0 => {
                if self.publish_wheld.is_some() {
                    return None;
                }
                next.reader_holds_publish = true;
            }
            1 => next.observed.push(self.published.clone()),
            2 => {
                next.reader_holds_publish = false;
                next.observations_done += 1;
                next.reader_pc = 0;
                return Some(next);
            }
            _ => unreachable!("reader pc out of range"),
        }
        next.reader_pc += 1;
        Some(next)
    }
}

/// Explore every reachable interleaving; returns the number of invariant
/// violations found (0 for a correct protocol).
fn explore(variant: Variant) -> (usize, usize) {
    let mut seen: BTreeSet<State> = BTreeSet::new();
    let mut stack = vec![State::initial()];
    let mut violations = 0;
    let mut terminal_states = 0;
    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        // Invariant 1 + 2: every observation is a log prefix, and the
        // sequence of observations never shrinks.
        for (i, obs) in state.observed.iter().enumerate() {
            if obs.len() > state.log.len() || obs[..] != state.log[..obs.len()] {
                violations += 1;
            }
            if i > 0 && obs.len() < state.observed[i - 1].len() {
                violations += 1;
            }
        }
        if state.done() {
            terminal_states += 1;
            // Invariant 3: quiescent published state = full log.
            if state.published != state.log {
                violations += 1;
            }
            continue;
        }
        for w in 0..WRITERS {
            if let Some(next) = state.step_writer(w, variant) {
                stack.push(next);
            }
        }
        if let Some(next) = state.step_reader() {
            stack.push(next);
        }
    }
    (violations, terminal_states)
}

#[test]
fn snapshot_swap_protocol_has_no_bad_interleaving() {
    let (violations, terminals) = explore(Variant::PublishUnderMasterLock);
    assert!(terminals > 0, "search never reached quiescence");
    assert_eq!(
        violations, 0,
        "publish-under-master-lock admitted a torn or regressing snapshot"
    );
}

#[test]
fn model_catches_publish_after_unlock_race() {
    // The checker must have teeth: releasing the master lock before
    // publishing admits the stale-overwrite interleaving.
    let (violations, terminals) = explore(Variant::PublishAfterUnlock);
    assert!(terminals > 0, "search never reached quiescence");
    assert!(
        violations > 0,
        "model failed to detect the known-racy publish-after-unlock variant"
    );
}

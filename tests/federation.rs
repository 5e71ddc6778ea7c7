//! PR 9 federation test suite: convergence, staleness and failover
//! proofs for the replicated + sharded federated GIIS.
//!
//! Engine-level tests drive sans-IO `Giis` state machines directly so
//! every sync boundary is observable:
//!
//! * a proptest oracle runs random upsert/delete/expiry scripts against
//!   three harvesting children (one with an armed WAL kill-point) and
//!   asserts the federated parent's DIT equals each child's own
//!   ground-truth sync payload at every sync boundary — including
//!   across child crash/recovery, where the lineage epoch forces a
//!   full resync instead of a silently-diverged incremental one;
//! * a deterministic kill-point matrix crashes the *parent* at every
//!   point of the durability pipeline and proves recovery resets sync
//!   cookies so the next round full-syncs back to convergence;
//! * a sharded parent proves only configured subtrees are pulled;
//! * a staleness clock proves every served entry is at most
//!   `interval + deadline` behind the child's truth.
//!
//! Live-runtime tests cover the replica group: reads fail over when a
//! replica dies, a respawned replica rejoins, and the balancer refuses
//! regressed (older-stamped) answers instead of serving them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use grid_info_services::core::{LiveRuntime, ReplicaBalancer, ServeOptions};
use grid_info_services::giis::{Giis, GiisAction, GiisConfig, GiisMode};
use grid_info_services::gris::{DynamicHostProvider, Gris, GrisConfig, HostSpec};
use grid_info_services::ldap::{
    fresh_at, Dn, Entry, Filter, LdapUrl, FRESH_AT_ATTR, SYNC_VERSION_ATTR,
};
use grid_info_services::netsim::{secs, SimDuration, SimTime};
use grid_info_services::proto::{GripReply, GripRequest, GrrpMessage, ResultCode, SearchSpec};
use grid_info_services::store::{
    CrashPlan, FsyncPolicy, JournalOptions, MemStorage, Storage, ALL_KILL_POINTS,
};
use proptest::prelude::*;

fn t(s: u64) -> SimTime {
    SimTime::ZERO + secs(s)
}

fn child_url(i: usize) -> LdapUrl {
    LdapUrl::server(format!("giis.vo{i}"))
}

fn child_ns(i: usize) -> Dn {
    Dn::parse(&format!("o=vo{i}")).unwrap()
}

fn truth_entry(i: usize, key: u8, val: u8) -> Entry {
    Entry::at(&format!("hn=k{key},o=vo{i}"))
        .unwrap()
        .with_class("computer")
        .with("v", u64::from(val))
}

/// One harvesting child GIIS plus the ground truth its single GRIS
/// serves. The child's durable journal can carry an armed kill-point;
/// `crash_and_recover` models the process dying and restarting from
/// whatever prefix reached disk.
struct Child {
    idx: usize,
    url: LdapUrl,
    ns: Dn,
    gris: LdapUrl,
    storage: Arc<MemStorage>,
    giis: Giis,
    truth: BTreeMap<u8, Entry>,
    /// Rounds strictly below this skip the GRIS refresh, so its
    /// soft-state registration (TTL 12s < 2 rounds) expires and the
    /// child's harvested slice is swept — an expiry-driven delta.
    lapsed_until: usize,
}

impl Child {
    fn engine(
        idx: usize,
        storage: Arc<MemStorage>,
        crash: Option<CrashPlan>,
        now: SimTime,
    ) -> Giis {
        let mut config = GiisConfig::chaining(child_url(idx), child_ns(idx));
        config.mode = GiisMode::Harvest { refresh: secs(1) };
        config.observability = false;
        let mut giis = Giis::new(config, secs(500), secs(1500));
        let _ = giis.set_persistence(
            storage as Arc<dyn Storage>,
            JournalOptions {
                fsync: FsyncPolicy::Always,
                snapshot_every: 4,
                crash,
                ..JournalOptions::default()
            },
            now,
        );
        giis
    }

    fn new(idx: usize, crash: Option<CrashPlan>, now: SimTime) -> Child {
        let storage = Arc::new(MemStorage::new());
        let giis = Child::engine(idx, Arc::clone(&storage), crash, now);
        Child {
            idx,
            url: child_url(idx),
            ns: child_ns(idx),
            gris: LdapUrl::server(format!("gris.vo{idx}")),
            storage,
            giis,
            truth: BTreeMap::new(),
            lapsed_until: 0,
        }
    }

    /// One child round: refresh the GRIS registration (unless lapsed),
    /// tick, and answer any harvest with the entire current truth.
    fn pump(&mut self, now: SimTime, lapsed: bool) {
        let mut actions = Vec::new();
        if !lapsed {
            actions.extend(self.giis.handle_grrp(
                GrrpMessage::register(self.gris.clone(), self.ns.clone(), now, secs(12)),
                now,
            ));
        }
        actions.extend(self.giis.tick(now));
        for a in actions {
            if let GiisAction::SendRequest { to, request, .. } = a {
                if to != self.gris || lapsed {
                    continue; // a lapsed provider leaves harvests unanswered
                }
                let id = request.id();
                self.giis.handle_reply(
                    &self.gris,
                    GripReply::SearchResult {
                        id,
                        code: ResultCode::Success,
                        entries: self.truth.values().cloned().collect(),
                        referrals: Vec::new(),
                    },
                    now,
                );
            }
        }
    }

    /// The oracle: what a cookie-less (full) sync pull of this child
    /// yields right now — stamped exactly as the parent's pulls are.
    fn ground_truth(&mut self, now: SimTime) -> BTreeMap<String, Entry> {
        let actions = self.giis.handle_request(
            9,
            GripRequest::SyncPull {
                id: 999_999,
                cookie: None,
                subtrees: Vec::new(),
            },
            now,
        );
        match &actions[..] {
            [GiisAction::Reply {
                reply:
                    GripReply::SyncDelta {
                        full: true,
                        entries,
                        ..
                    },
                ..
            }] => entries
                .iter()
                .map(|e| (e.dn().to_string(), e.clone()))
                .collect(),
            other => panic!("child must answer a cookie-less pull with a full delta: {other:?}"),
        }
    }

    /// The process dies: volatile tails vanish, and a fresh engine
    /// recovers from the durable prefix. The rebuilt snapshot lineage
    /// starts a new epoch, so the parent's old cookie cannot alias into
    /// an incremental delta against the recovered tree.
    fn crash_and_recover(&mut self, now: SimTime) {
        self.storage.crash();
        self.giis = Child::engine(self.idx, Arc::clone(&self.storage), None, now);
    }
}

fn parent_engine(shards: Vec<Dn>, storage: Option<Arc<MemStorage>>, now: SimTime) -> Giis {
    let mut config =
        GiisConfig::federated(LdapUrl::server("giis.root"), Dn::root(), secs(10), secs(2));
    config.shards = shards;
    let mut giis = Giis::new(config, secs(500), secs(1500));
    if let Some(storage) = storage {
        let _ = giis.set_persistence(
            storage as Arc<dyn Storage>,
            JournalOptions {
                fsync: FsyncPolicy::Always,
                snapshot_every: 3,
                ..JournalOptions::default()
            },
            now,
        );
    }
    giis
}

/// One federation round: refresh every child's registration with the
/// parent, tick it, and route its sync pulls to the children (skipping
/// `drop_pull`, which models a lost request scored by the deadline
/// scan). Returns the children that completed a sync this round.
fn drive_round(
    parent: &mut Giis,
    children: &mut [Child],
    now: SimTime,
    drop_pull: Option<usize>,
) -> BTreeSet<usize> {
    let mut actions = Vec::new();
    for c in children.iter() {
        actions.extend(parent.handle_grrp(
            GrrpMessage::register(c.url.clone(), c.ns.clone(), now, secs(1_000_000)),
            now,
        ));
    }
    actions.extend(parent.tick(now));
    let mut synced = BTreeSet::new();
    for a in actions {
        if let GiisAction::SendRequest { to, request, .. } = a {
            let Some(ci) = children.iter().position(|c| c.url == to) else {
                continue;
            };
            if drop_pull == Some(ci) {
                continue;
            }
            let replies = children[ci].giis.handle_request(7, request, now);
            let reply = match replies.into_iter().next() {
                Some(GiisAction::Reply { reply, .. }) => reply,
                other => panic!("child answers sync pulls synchronously: {other:?}"),
            };
            let back = parent.handle_reply(&to, reply, now);
            assert!(back.is_empty(), "sync integration must be self-contained");
            synced.insert(ci);
        }
    }
    synced
}

/// The parent's replica of one child's subtree, keyed by DN.
fn parent_slice(parent: &Giis, ns: &Dn) -> BTreeMap<String, Entry> {
    parent
        .cache_snapshot()
        .iter()
        .filter(|e| e.dn().is_under(ns))
        .map(|e| (e.dn().to_string(), e.clone()))
        .collect()
}

#[derive(Debug, Clone)]
enum FedOp {
    Upsert { child: usize, key: u8, val: u8 },
    Delete { child: usize, key: u8 },
    Lapse { child: usize },
    Crash { child: usize },
    DropPull { child: usize },
}

fn op_strategy() -> impl Strategy<Value = FedOp> {
    // The vendored proptest's `prop_oneof!` is unweighted; mutations are
    // listed multiple times to bias the mix toward them.
    prop_oneof![
        (0..3usize, 0u8..8, any::<u8>()).prop_map(|(child, key, val)| FedOp::Upsert {
            child,
            key,
            val
        }),
        (0..3usize, 0u8..8, any::<u8>()).prop_map(|(child, key, val)| FedOp::Upsert {
            child,
            key,
            val
        }),
        (0..3usize, 0u8..8, any::<u8>()).prop_map(|(child, key, val)| FedOp::Upsert {
            child,
            key,
            val
        }),
        (0..3usize, 0u8..8).prop_map(|(child, key)| FedOp::Delete { child, key }),
        (0..3usize, 0u8..8).prop_map(|(child, key)| FedOp::Delete { child, key }),
        (0..3usize).prop_map(|child| FedOp::Lapse { child }),
        (0..3usize).prop_map(|child| FedOp::Crash { child }),
        (0..3usize).prop_map(|child| FedOp::DropPull { child }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The convergence oracle: whatever the script does — upserts,
    /// deletes, soft-state expiry, child crash/recovery from an armed
    /// kill-point, dropped pulls — after every completed sync the
    /// parent's replica of a child equals the child's own full sync
    /// payload, byte for byte including freshness stamps.
    #[test]
    fn federated_parent_converges_to_child_ground_truth(
        script in prop::collection::vec(op_strategy(), 1..28),
        crash_at in 1u64..24,
        point_idx in 0usize..ALL_KILL_POINTS.len(),
    ) {
        let start = t(0);
        let mut children: Vec<Child> = (0..3)
            .map(|i| {
                let crash = (i == 0)
                    .then(|| CrashPlan::at(crash_at, ALL_KILL_POINTS[point_idx]).keeping(9));
                Child::new(i, crash, start)
            })
            .collect();
        let mut parent = parent_engine(Vec::new(), Some(Arc::new(MemStorage::new())), start);

        for (r, op) in script.iter().enumerate() {
            let now = t(10 * (r as u64 + 1));
            let mut drop_pull = None;
            match op {
                FedOp::Upsert { child, key, val } => {
                    children[*child].truth.insert(*key, truth_entry(*child, *key, *val));
                }
                FedOp::Delete { child, key } => {
                    children[*child].truth.remove(key);
                }
                FedOp::Lapse { child } => {
                    children[*child].lapsed_until = r + 2;
                }
                FedOp::Crash { child } => {
                    children[*child].crash_and_recover(now);
                }
                FedOp::DropPull { child } => {
                    drop_pull = Some(*child);
                }
            }
            for child in &mut children {
                let lapsed = r < child.lapsed_until;
                child.pump(now, lapsed);
            }
            let synced = drive_round(&mut parent, &mut children, now, drop_pull);
            for ci in synced {
                let want = children[ci].ground_truth(now);
                let got = parent_slice(&parent, &children[ci].ns);
                prop_assert_eq!(got, want);
            }
        }

        // Two clean rounds after the script: every child must be back in
        // sync (dropped pulls recovered by the deadline scan, crashed
        // children full-resynced through the new lineage epoch).
        let base = script.len();
        let mut last_synced = BTreeSet::new();
        for extra in 1..=2usize {
            let now = t(10 * (base + extra) as u64);
            for child in &mut children {
                let lapsed = (base + extra - 1) < child.lapsed_until;
                child.pump(now, lapsed);
            }
            last_synced = drive_round(&mut parent, &mut children, now, None);
        }
        prop_assert_eq!(last_synced.len(), children.len());
        let end = t(10 * (base + 2) as u64);
        for child in &mut children {
            let want = child.ground_truth(end);
            let got = parent_slice(&parent, &child.ns);
            prop_assert_eq!(got, want);
        }
    }
}

/// Crash the *parent* at every kill-point of the durability pipeline:
/// recovery must come back with cleared sync cookies (an incremental
/// delta against a half-recovered replica would be unsound), and the
/// next round's full syncs restore exact convergence.
#[test]
fn parent_recovery_full_syncs_from_every_kill_point() {
    for point in ALL_KILL_POINTS {
        for at_op in [2u64, 5] {
            let start = t(0);
            let mut children: Vec<Child> = (0..2).map(|i| Child::new(i, None, start)).collect();
            let storage = Arc::new(MemStorage::new());
            let mut parent = {
                let mut config = GiisConfig::federated(
                    LdapUrl::server("giis.root"),
                    Dn::root(),
                    secs(10),
                    secs(2),
                );
                config.shards = Vec::new();
                let mut giis = Giis::new(config, secs(500), secs(1500));
                let _ = giis.set_persistence(
                    Arc::clone(&storage) as Arc<dyn Storage>,
                    JournalOptions {
                        fsync: FsyncPolicy::Always,
                        snapshot_every: 3,
                        crash: Some(CrashPlan::at(at_op, point).keeping(7)),
                        ..JournalOptions::default()
                    },
                    start,
                );
                giis
            };

            for r in 1..=3u64 {
                let now = t(10 * r);
                for (i, c) in children.iter_mut().enumerate() {
                    c.truth.insert(r as u8, truth_entry(i, r as u8, r as u8));
                }
                for c in children.iter_mut() {
                    c.pump(now, false);
                }
                drive_round(&mut parent, &mut children, now, None);
            }

            // The process dies; only the durable prefix survives.
            storage.crash();
            let mut parent = parent_engine(Vec::new(), None, t(40));
            let _ = parent.set_persistence(
                Arc::clone(&storage) as Arc<dyn Storage>,
                JournalOptions {
                    fsync: FsyncPolicy::Always,
                    snapshot_every: 3,
                    ..JournalOptions::default()
                },
                t(40),
            );
            for c in &children {
                assert!(
                    parent.sync_cookie_of(&c.url).is_none(),
                    "{point:?}@{at_op}: recovery must not resurrect sync cookies"
                );
            }

            // One post-recovery round reconverges through full syncs.
            let now = t(40);
            for (i, c) in children.iter_mut().enumerate() {
                c.truth.insert(9, truth_entry(i, 9, 99));
                c.pump(now, false);
            }
            let synced = drive_round(&mut parent, &mut children, now, None);
            assert_eq!(synced.len(), 2, "{point:?}@{at_op}: both children resync");
            assert_eq!(
                parent.stats().full_syncs,
                2,
                "{point:?}@{at_op}: cookie-less resyncs are full"
            );
            for c in &mut children {
                let want = c.ground_truth(now);
                let got = parent_slice(&parent, &c.ns);
                assert_eq!(got, want, "{point:?}@{at_op}: diverged after recovery");
            }
        }
    }
}

/// A sharded parent subscribes to a subset of the namespace: children
/// outside the configured shards are never pulled and never appear in
/// the replica.
#[test]
fn sharded_parent_pulls_only_configured_subtrees() {
    let start = t(0);
    let mut children: Vec<Child> = (0..2).map(|i| Child::new(i, None, start)).collect();
    let mut parent = parent_engine(vec![child_ns(0)], None, start);

    for r in 1..=3u64 {
        let now = t(10 * r);
        for (i, c) in children.iter_mut().enumerate() {
            c.truth.insert(r as u8, truth_entry(i, r as u8, r as u8));
            c.pump(now, false);
        }
        let synced = drive_round(&mut parent, &mut children, now, None);
        assert!(
            !synced.contains(&1),
            "out-of-shard child must not be pulled"
        );
    }

    let end = t(30);
    let want = children[0].ground_truth(end);
    let got = parent_slice(&parent, &child_ns(0));
    assert_eq!(got, want, "in-shard subtree replicates exactly");
    assert!(
        parent_slice(&parent, &child_ns(1)).is_empty(),
        "out-of-shard subtree must not leak into the replica"
    );
}

/// One round for replica roots of any mode: pump the children, then
/// for each root refresh every child's registration (except `lapsed`'s;
/// registrations live 25 s), tick, and answer each pull it sends —
/// harvest searches and sync pulls alike — from the child engines.
fn feed_roots(roots: &mut [Giis], children: &mut [Child], now: SimTime, lapsed: Option<usize>) {
    for c in children.iter_mut() {
        c.pump(now, false);
    }
    for root in roots.iter_mut() {
        let mut actions = Vec::new();
        for (i, c) in children.iter().enumerate() {
            if lapsed != Some(i) {
                let msg = GrrpMessage::register(c.url.clone(), c.ns.clone(), now, secs(25));
                actions.extend(root.handle_grrp(msg, now));
            }
        }
        actions.extend(root.tick(now));
        for a in actions {
            let GiisAction::SendRequest { to, request, .. } = a else {
                continue;
            };
            let ci = children.iter().position(|c| c.url == to).expect("a child");
            let reply = match children[ci].giis.handle_request(7, request, now).pop() {
                Some(GiisAction::Reply { reply, .. }) => reply,
                other => panic!("children answer pulls synchronously: {other:?}"),
            };
            assert!(root.handle_reply(&to, reply, now).is_empty());
        }
    }
}

/// A root's replica keyed by DN, without the lineage stamps only sync
/// replies carry.
fn unstamped(root: &Giis) -> BTreeMap<String, Entry> {
    root.cache_snapshot()
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.remove(SYNC_VERSION_ATTR);
            e.remove(FRESH_AT_ATTR);
            (e.dn().to_string(), e)
        })
        .collect()
}

/// A Harvest root is a replica fed by full pulls; a Federated root is
/// the same replica fed by sync pulls. Fed the same three children, the
/// two hold the same tree: at the start, after one child changes, and
/// after another expires.
#[test]
fn harvest_and_federated_roots_hold_the_same_replica() {
    let start = t(0);
    let mut children: Vec<Child> = (0..3).map(|i| Child::new(i, None, start)).collect();
    for (i, c) in children.iter_mut().enumerate() {
        for key in 0..3u8 {
            c.truth.insert(key, truth_entry(i, key, key));
        }
    }
    let mut harvest = GiisConfig::chaining(LdapUrl::server("giis.harvest"), Dn::root());
    harvest.mode = GiisMode::Harvest { refresh: secs(10) };
    let federated =
        GiisConfig::federated(LdapUrl::server("giis.fed"), Dn::root(), secs(10), secs(2));
    let mut roots = [
        Giis::new(harvest, secs(500), secs(1500)),
        Giis::new(federated, secs(500), secs(1500)),
    ];

    feed_roots(&mut roots, &mut children, t(0), None);
    let first = unstamped(&roots[0]);
    assert_eq!(first.len(), 9);
    assert_eq!(first, unstamped(&roots[1]), "same children, same replica");

    // Child 0 changes a value, gains an entry and loses one.
    children[0].truth.insert(1, truth_entry(0, 1, 42));
    children[0].truth.insert(7, truth_entry(0, 7, 7));
    children[0].truth.remove(&2);
    feed_roots(&mut roots, &mut children, t(10), None);
    let changed = unstamped(&roots[0]);
    assert_ne!(changed, first, "the change reached the roots");
    assert_eq!(changed, unstamped(&roots[1]), "after a change");
    assert!(roots[1].stats().delta_syncs >= 1, "it rode a delta");

    // Child 2 stops refreshing its registration with the roots.
    for s in [20, 30, 40] {
        feed_roots(&mut roots, &mut children, t(s), Some(2));
    }
    let expired = unstamped(&roots[0]);
    assert_eq!(expired.len(), 6, "child 2's slice is gone");
    assert!(expired.keys().all(|dn| !dn.contains("o=vo2")));
    assert_eq!(expired, unstamped(&roots[1]), "after an expiry");
}

/// The staleness bound: with pull interval T and fetch deadline D,
/// every entry the parent serves is at most T + D behind the child's
/// truth, and the per-child sync-age gauge respects the same bound.
#[test]
fn served_staleness_is_bounded_by_interval_plus_deadline() {
    let bound = secs(10) + secs(2); // interval + deadline of parent_engine
    let start = t(0);
    let mut parent = parent_engine(Vec::new(), None, start);
    let mut kids = vec![Child::new(0, None, start)];
    for s in 1..=60u64 {
        let now = t(s);
        // The truth mutates every second: entry value = current second.
        kids[0].truth.insert(0, truth_entry(0, 0, s as u8));
        kids[0].pump(now, false);
        drive_round(&mut parent, &mut kids, now, None);

        // Serve locally and check the bound on the continuously-mutated
        // entry: its value says when it was produced.
        let actions = parent.handle_request(
            1,
            GripRequest::Search {
                id: 10_000 + s,
                spec: SearchSpec::subtree(Dn::root(), Filter::always()),
            },
            now,
        );
        let entries = match &actions[..] {
            [GiisAction::Reply {
                reply: GripReply::SearchResult { code, entries, .. },
                ..
            }] => {
                assert_eq!(*code, ResultCode::Success);
                entries.clone()
            }
            other => panic!("federated search answers locally: {other:?}"),
        };
        if let Some(e) = entries
            .iter()
            .find(|e| e.dn().to_string().contains("hn=k0"))
        {
            let produced_s = e.get_i64("v").expect("value present") as u64;
            assert!(
                now.since(t(produced_s)) <= bound,
                "second {s}: served value from second {produced_s} exceeds T+D"
            );
            let stamp = fresh_at(e).expect("synced entries carry freshness stamps");
            assert!(
                now.since(stamp) <= bound,
                "second {s}: freshness stamp exceeds T+D"
            );
        }
        if let Some(asof) = parent.sync_asof_of(&kids[0].url) {
            assert!(
                now.since(asof) <= bound,
                "second {s}: sync-age gauge exceeds T+D"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Live replica-group tests.
// ---------------------------------------------------------------------

/// A GRIS whose one provider changes value every 100ms, so per-DN sync
/// versions advance continuously at every directory above it.
fn dynamic_gris(name: &str, target: &LdapUrl) -> Gris {
    let host = HostSpec::linux(name, 2);
    let url = LdapUrl::server(format!("gris.{name}"));
    let mut gris = Gris::new(
        GrisConfig::open(url, host.dn()),
        SimDuration::from_millis(100),
        SimDuration::from_secs(30),
    );
    gris.add_provider(Box::new(DynamicHostProvider::new(
        &host,
        5,
        2.0,
        SimDuration::from_millis(100),
        SimDuration::from_millis(80),
    )));
    gris.agent.add_target(target.clone());
    gris
}

/// A mid-tier harvesting GIIS announcing itself to every replica root.
fn live_site_giis(url: &LdapUrl, roots: &[LdapUrl]) -> Giis {
    let mut config = GiisConfig::chaining(url.clone(), Dn::root());
    config.mode = GiisMode::Harvest {
        refresh: SimDuration::from_millis(80),
    };
    let mut giis = Giis::new(
        config,
        SimDuration::from_millis(100),
        SimDuration::from_secs(30),
    );
    for r in roots {
        giis.agent.add_target(r.clone());
    }
    giis
}

fn live_root_giis(url: &LdapUrl) -> Giis {
    let config = GiisConfig::federated(
        url.clone(),
        Dn::root(),
        SimDuration::from_millis(120),
        SimDuration::from_millis(80),
    );
    Giis::new(
        config,
        SimDuration::from_millis(100),
        SimDuration::from_secs(30),
    )
}

fn everything() -> SearchSpec {
    SearchSpec::subtree(Dn::root(), Filter::always())
}

/// Soak: kill and restart the federated root's child mid-sync under
/// seeded drop faults. Nothing panics, the breaker opens on the dead
/// child and re-admits the respawned one, and the federation gauges
/// (sync-lag, delta-bytes, last-sync-age) recover after the heal.
#[test]
fn federation_soak_recovers_breaker_and_gauges() {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let root = LdapUrl::server("giis.root");
    let mut root_giis = live_root_giis(&root);
    root_giis.config.breaker = Some(grid_info_services::giis::BreakerConfig {
        failure_threshold: 2,
        cooldown: SimDuration::from_millis(300),
        retry: true,
    });
    root_giis.config.monitoring_refresh = SimDuration::from_millis(50);
    // The shared query path stays readable after shutdown.
    let path = root_giis.query_path();
    rt.spawn_giis(root_giis, ServeOptions::default().with_workers(2))
        .unwrap();
    let site = LdapUrl::server("giis.site");
    rt.spawn_giis(
        live_site_giis(&site, std::slice::from_ref(&root)),
        ServeOptions::default(),
    )
    .unwrap();
    rt.spawn_gris(dynamic_gris("dyn0", &site), ServeOptions::default())
        .unwrap();
    std::thread::sleep(Duration::from_millis(600));

    let healthy = path.stats();
    assert!(healthy.sync_pulls > 0, "the root pulls its child");
    assert!(healthy.full_syncs >= 1, "the first pull is a full sync");

    // Seeded drops chew on the sync channel, then the child dies.
    rt.set_fault_seed(13);
    rt.set_fault(
        &site,
        grid_info_services::core::ServiceFault {
            drop: 0.5,
            latency: Duration::ZERO,
            paused: false,
        },
    );
    std::thread::sleep(Duration::from_millis(400));
    rt.kill_service(&site);
    std::thread::sleep(Duration::from_millis(500));
    let sick = path.stats();
    assert!(
        sick.sync_failures > 0,
        "dropped and dead pulls are scored as sync failures"
    );

    // Respawn the child under the same URL and heal the links: the GRIS
    // re-announces within its refresh, the child re-harvests, and the
    // root full-syncs against the new lineage epoch.
    rt.heal_all();
    rt.spawn_giis(
        live_site_giis(&site, std::slice::from_ref(&root)),
        ServeOptions::default(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(1000));

    let recovered = path.stats();
    assert!(
        recovered.full_syncs > healthy.full_syncs,
        "the respawned child's new lineage epoch forces a fresh full sync"
    );

    // The replica serves again and the monitoring namespace shows a
    // closed breaker and recovered federation gauges.
    let mut client = rt.client();
    let (code, entries, _) = client
        .request(&root, everything())
        .timeout(Duration::from_millis(500))
        .send()
        .into_outcome()
        .expect("recovered root serves locally");
    assert_eq!(code, ResultCode::Success);
    assert!(!entries.is_empty(), "the replica re-converged");

    let (code, mon, _) = client
        .request(
            &root,
            SearchSpec::subtree(
                grid_info_services::proto::metrics::monitoring_base(),
                Filter::always(),
            ),
        )
        .timeout(Duration::from_millis(500))
        .send()
        .into_outcome()
        .expect("monitoring search completes");
    assert_eq!(code, ResultCode::Success);
    let child_cell = mon
        .iter()
        .find(|e| e.has_class("mds-child"))
        .expect("the root exports per-child state");
    assert_eq!(
        child_cell.get_str("circuit"),
        Some("closed"),
        "the breaker re-admits the respawned child"
    );
    let gauge = |key: &str| -> u64 {
        mon.iter()
            .find(|e| e.dn().to_string().contains(key))
            .and_then(|e| e.get_str("value"))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("gauge {key} exported"))
    };
    assert!(
        gauge("last-sync-age-us") < 2_000_000,
        "the sync-age gauge recovers once pulls succeed again"
    );
    assert!(
        gauge("sync-lag-us") < 5_000_000,
        "the fleet staleness gauge recovers"
    );
    // Delta-bytes was set by the last integrated payload; its presence
    // proves the gauge pipeline survived the kill/restart cycle.
    let _ = gauge("sync-delta-bytes");
    rt.shutdown();
}

/// Kill one replica of a two-member group: every read still succeeds
/// (failed over to the survivor), and a respawned replica with the same
/// URL resyncs and rejoins the group.
#[test]
fn replica_failover_and_respawn_keep_serving() {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let a = LdapUrl::server("replica.a");
    let b = LdapUrl::server("replica.b");
    rt.spawn_giis(live_root_giis(&a), ServeOptions::default())
        .unwrap();
    rt.spawn_giis(live_root_giis(&b), ServeOptions::default())
        .unwrap();
    let site = LdapUrl::server("giis.site");
    rt.spawn_giis(
        live_site_giis(&site, &[a.clone(), b.clone()]),
        ServeOptions::default(),
    )
    .unwrap();
    rt.spawn_gris(dynamic_gris("dyn0", &site), ServeOptions::default())
        .unwrap();
    std::thread::sleep(Duration::from_millis(700));

    let mut client = rt.client();
    let mut bal = ReplicaBalancer::new(vec![a.clone(), b.clone()]);
    let timeout = Duration::from_millis(400);
    for i in 0..2 {
        let (code, entries, _) = bal
            .search(&mut client, &everything(), timeout)
            .unwrap_or_else(|| panic!("warm read {i} must be served"));
        assert_eq!(code, ResultCode::Success);
        assert!(!entries.is_empty(), "warm read {i} sees the host data");
    }

    rt.kill_service(&a);
    std::thread::sleep(Duration::from_millis(300));
    for i in 0..6 {
        let (code, entries, _) = bal
            .search(&mut client, &everything(), timeout)
            .unwrap_or_else(|| panic!("read {i} must fail over, not fail"));
        assert_eq!(code, ResultCode::Success);
        assert!(!entries.is_empty(), "failover read {i} sees the host data");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        bal.failovers >= 2,
        "half the reads start at the dead replica: {}",
        bal.failovers
    );

    // Same-URL respawn: the site re-announces, the new lineage epoch
    // forces a full sync, and the group is whole again.
    rt.spawn_giis(live_root_giis(&a), ServeOptions::default())
        .unwrap();
    std::thread::sleep(Duration::from_millis(800));
    for i in 0..4 {
        let (code, entries, _) = bal
            .search(&mut client, &everything(), timeout)
            .unwrap_or_else(|| panic!("post-respawn read {i} must be served"));
        assert_eq!(code, ResultCode::Success);
        assert!(!entries.is_empty(), "post-respawn read {i} sees the data");
        std::thread::sleep(Duration::from_millis(100));
    }
    rt.shutdown();
}

/// Monotone reads across failover: freeze one replica while the data
/// keeps changing, then make the lag permanent by killing the child.
/// The balancer must refuse the frozen replica's regressed answer and
/// serve the fresh one instead.
#[test]
fn failover_never_serves_regressed_entries() {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let a = LdapUrl::server("replica.a");
    let b = LdapUrl::server("replica.b");
    rt.spawn_giis(live_root_giis(&a), ServeOptions::default())
        .unwrap();
    rt.spawn_giis(live_root_giis(&b), ServeOptions::default())
        .unwrap();
    let site = LdapUrl::server("giis.site");
    rt.spawn_giis(
        live_site_giis(&site, &[a.clone(), b.clone()]),
        ServeOptions::default(),
    )
    .unwrap();
    rt.spawn_gris(dynamic_gris("dyn0", &site), ServeOptions::default())
        .unwrap();
    std::thread::sleep(Duration::from_millis(700));

    let mut client = rt.client();
    let mut bal = ReplicaBalancer::new(vec![a.clone(), b.clone()]);
    let timeout = Duration::from_millis(400);
    for i in 0..2 {
        assert!(
            bal.search(&mut client, &everything(), timeout).is_some(),
            "warm read {i} must be served"
        );
    }

    // Freeze b while the dynamic value keeps changing: a pulls ahead.
    rt.pause_service(&b);
    std::thread::sleep(Duration::from_millis(500));
    // Kill the child so b can never catch up, then let b answer again.
    rt.kill_service(&site);
    rt.resume_service(&b);
    std::thread::sleep(Duration::from_millis(100));

    // Cursor parity: the next read starts at a (absorbing its fresh
    // stamps), the one after starts at stale b and MUST be refused.
    let (code, entries, _) = bal
        .search(&mut client, &everything(), timeout)
        .expect("fresh replica keeps serving");
    assert_eq!(code, ResultCode::Success);
    assert!(!entries.is_empty());
    let refused_before = bal.regressions_refused;
    for i in 0..3 {
        let (code, entries, _) = bal
            .search(&mut client, &everything(), timeout)
            .unwrap_or_else(|| panic!("read {i} must fail over past the stale replica"));
        assert_eq!(code, ResultCode::Success);
        assert!(!entries.is_empty());
    }
    assert!(
        bal.regressions_refused > refused_before,
        "the stale replica's answer must be refused, not served \
         (refused {} -> {})",
        refused_before,
        bal.regressions_refused
    );
    rt.shutdown();
}

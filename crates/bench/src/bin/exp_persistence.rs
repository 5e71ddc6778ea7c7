//! Persistence — crash, recover, serve.
//!
//! PR 7's durability claim: a GRIS/GIIS killed at *any* instant comes
//! back serving exactly the state its journal made durable, with every
//! soft-state clock intact — and recovering from a snapshot is orders
//! of magnitude cheaper than the alternative the paper's architecture
//! would otherwise fall back on (wait out a re-registration storm and
//! re-harvest every child). Four sections:
//!
//! 1. **kill matrix** — a fixed mutation sequence is crashed at every
//!    seeded kill point at every position (via the in-memory storage
//!    model, which drops unsynced bytes on crash exactly like a kernel
//!    would); each recovery must equal a replay of the durable prefix.
//! 2. **live crash → recover → serve** — a harvesting GIIS over real
//!    threads, journaling to a real directory; both it and its child
//!    are killed, the GIIS respawns alone from the journal and must
//!    serve the pre-crash rows (the child stays dead, so the journal is
//!    the only possible source).
//! 3. **recovery vs re-registration storm** — the same directory state
//!    rebuilt two ways: replayed from the journal vs re-observed one
//!    registration + harvest at a time (the cold-start path, *without*
//!    charging the storm its network round-trips or registration
//!    interval waits, so the baseline is flattered).
//! 4. **restart budget** — snapshot-load and WAL-replay wall times at
//!    size ([`FULL_ENTRIES`] entries full, [`SMOKE_ENTRIES`] smoke).
//!    The paper-scale target is a million-entry DIT back in service in
//!    under [`FULL_TARGET_S`] second(s) — reachable via the parallel
//!    chunk decode + bulk index build on a multi-core host, and
//!    reported honestly either way; the hard assert is a looser
//!    regression ceiling so a loaded single-core CI box does not flake.
//!
//! `--json PATH` dumps timings for `scripts/bench_snapshot.sh`;
//! `--smoke` shrinks the sizes for CI.

use gis_bench::{banner, f2, section, warm, Args, Json, Table};
use gis_core::{LiveRuntime, ServeOptions};
use gis_giis::{Giis, GiisConfig, GiisMode};
use gis_gris::HostSpec;
use gis_ldap::{Dn, Entry, Filter, LdapUrl, SharedDit};
use gis_netsim::{secs, SimTime};
use gis_proto::{GrrpMessage, SearchSpec};
use gis_store::{
    encode_snapshot, snap_name, CrashPlan, DurableDit, FsyncPolicy, Journal, JournalOptions,
    MemStorage, RecoveredState, SnapshotContent, Storage, StoreError, WalOp, ALL_KILL_POINTS,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FULL_ENTRIES: usize = 1_000_000;
const SMOKE_ENTRIES: usize = 50_000;
const FULL_WAL: usize = 20_000;
const SMOKE_WAL: usize = 2_000;
/// Paper-scale restart target (seconds): a million-entry DIT back in
/// service from its snapshot. Reported against the measured time; on a
/// multi-core host the parallel chunk decode and index builds are what
/// make it reachable.
const FULL_TARGET_S: f64 = 1.0;
/// Hard assert ceilings (seconds). These are regression guards, not the
/// claim: they carry enough headroom that a loaded single-core CI host
/// does not flake, while an accidental return to per-entry index
/// maintenance (an order of magnitude slower) still trips them.
const FULL_LOAD_CEILING_S: f64 = 30.0;
const SMOKE_LOAD_CEILING_S: f64 = 2.0;
/// Children in the storm comparison (each contributes 4 entries).
const STORM_CHILDREN: usize = 200;
const SMOKE_STORM_CHILDREN: usize = 40;

fn entry(i: usize) -> Entry {
    Entry::at(&format!("hn=host{i}"))
        .expect("dn")
        .with_class("computer")
        .with("system", "linux")
        .with("slot", i as f64)
}

/// A small mutation script exercising every WalOp the engines emit.
fn script() -> Vec<WalOp> {
    let mut ops = Vec::new();
    for i in 0..4usize {
        let url = LdapUrl::server(format!("gris{i}"));
        let ns = Dn::parse(&format!("hn=host{i}")).expect("dn");
        let now = SimTime::ZERO + secs(i as u64);
        ops.push(WalOp::Observe {
            msg: GrrpMessage::register(url.clone(), ns, now, secs(30)),
            now,
        });
        ops.push(WalOp::Harvest {
            child: url,
            entries: vec![entry(i)],
            now,
        });
    }
    ops.push(WalOp::Delete(Dn::parse("hn=host0").expect("dn")));
    ops.push(WalOp::Sweep {
        now: SimTime::ZERO + secs(40),
    });
    ops
}

/// What survives in a recovered store, reduced to comparable numbers.
fn shape(dit_len: usize, regs: usize, groups: usize) -> (usize, usize, usize) {
    (dit_len, regs, groups)
}

fn durable_shape(d: &DurableDit) -> (usize, usize, usize) {
    shape(d.shared().len(), d.registry().len(), d.groups().len())
}

/// Replay the durable prefix through the pure recovery code: the
/// oracle's expected answer.
fn expected_shape(ops: &[WalOp]) -> (usize, usize, usize) {
    let mut state = RecoveredState::empty();
    for op in ops {
        state.apply(op);
    }
    shape(state.dit.len(), state.registry.len(), state.groups.len())
}

/// Crash a scripted run at (`point`, `at_op`), recover, compare against
/// the durable prefix. Returns the verified case count (1) or panics.
fn kill_case(ops: &[WalOp], plan: CrashPlan) -> usize {
    let storage = Arc::new(MemStorage::new());
    let opts = JournalOptions {
        snapshot_every: 3,
        crash: Some(plan),
        ..JournalOptions::default()
    };
    let (mut d, _) = DurableDit::open(storage.clone(), opts, SimTime::ZERO);
    let mut durable = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match d.apply(op) {
            Ok(()) => durable = i + 1,
            Err(StoreError::Crashed { durable: kept }) => {
                if kept {
                    durable = i + 1;
                }
                break;
            }
            Err(e) => panic!("unexpected storage error: {e:?}"),
        }
    }
    drop(d);
    storage.crash();
    let (recovered, _) = DurableDit::open(storage, JournalOptions::default(), SimTime::ZERO);
    assert_eq!(
        durable_shape(&recovered),
        expected_shape(&ops[..durable]),
        "recovery diverged from durable prefix at {plan:?}"
    );
    1
}

fn run_kill_matrix(table: &mut Table) -> usize {
    let ops = script();
    let mut cases = 0;
    for point in ALL_KILL_POINTS {
        for at in 1..=ops.len() as u64 {
            for torn in [0usize, 5] {
                cases += kill_case(&ops, CrashPlan::at(at, point).keeping(torn));
            }
        }
    }
    table.row(vec![
        "kill matrix".into(),
        format!(
            "{} kill points x {} positions x 2 tears",
            ALL_KILL_POINTS.len(),
            ops.len()
        ),
        format!("{cases} recoveries == durable prefix"),
    ]);
    cases
}

/// Live section: harvesting GIIS journaling to `dir`; returns
/// (rows served pre-crash, recovery-to-first-answer wall time).
fn run_live_crash(dir: &std::path::Path) -> (usize, Duration) {
    let _ = std::fs::remove_dir_all(dir);
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let giis_url = LdapUrl::server("giis.persist");
    let harvest_giis = || {
        let mut giis = Giis::new(
            GiisConfig::chaining(giis_url.clone(), Dn::root()),
            gis_netsim::SimDuration::from_millis(100),
            secs(120),
        );
        giis.config.mode = GiisMode::Harvest { refresh: secs(120) };
        giis
    };
    rt.spawn_giis(harvest_giis(), ServeOptions::default().persist(dir))
        .expect("spawn giis");
    let host = HostSpec::linux("phost", 2);
    let mut gris = gis_core::SimDeployment::standard_host_gris(&host, 7);
    gris.agent.interval = gis_netsim::SimDuration::from_millis(100);
    gris.agent.ttl = secs(120);
    gris.agent.add_target(giis_url.clone());
    let gris_url = gris.config.url.clone();
    rt.spawn_gris(gris, ServeOptions::default())
        .expect("spawn gris");

    let mut client = rt.client();
    let spec = SearchSpec::subtree(Dn::root(), Filter::always());
    // Wait for registration + harvest to land.
    let before = warm(&mut client, &giis_url, &spec, 1);

    // Kill child and directory; respawn the directory alone.
    rt.kill_service(&gris_url);
    rt.kill_service(&giis_url);
    std::thread::sleep(Duration::from_millis(200));
    let t0 = Instant::now();
    rt.spawn_giis(harvest_giis(), ServeOptions::default().persist(dir))
        .expect("respawn giis");
    let (_, after, _) = client
        .request(&giis_url, spec)
        .timeout(Duration::from_secs(5))
        .send()
        .outcome
        .expect("recovered directory answers");
    let recover = t0.elapsed();
    assert_eq!(after.len(), before, "recovered rows != pre-crash rows");
    rt.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    (before, recover)
}

/// Register every child with `giis` and answer its harvest query (the
/// engine mints an outbound request id per harvest; the reply must
/// carry it back).
fn feed(giis: &mut Giis, msgs: &[(LdapUrl, GrrpMessage, Vec<Entry>)]) {
    for (url, msg, rows) in msgs {
        let actions = giis.handle_grrp(msg.clone(), SimTime::ZERO);
        for action in actions {
            let gis_giis::GiisAction::SendRequest { request, .. } = action else {
                continue;
            };
            giis.handle_reply(
                url,
                gis_proto::GripReply::SearchResult {
                    id: request.id(),
                    code: gis_proto::ResultCode::Success,
                    entries: rows.clone(),
                    referrals: vec![],
                },
                SimTime::ZERO,
            );
        }
    }
}

/// Storm section: rebuild `children` registrations + harvests through a
/// fresh engine (cold-start work, zero network charged) vs recover the
/// same state from a journal.
fn run_storm(children: usize) -> (Duration, Duration) {
    let msgs: Vec<(LdapUrl, GrrpMessage, Vec<Entry>)> = (0..children)
        .map(|i| {
            let url = LdapUrl::server(format!("gris{i}"));
            let ns = Dn::parse(&format!("hn=host{i}")).expect("dn");
            let rows = vec![
                entry(i),
                Entry::at(&format!("perf=load, hn=host{i}"))
                    .expect("dn")
                    .with_class("perf")
                    .with("load5", 0.5f64),
                Entry::at(&format!("fs=scratch, hn=host{i}"))
                    .expect("dn")
                    .with_class("fs")
                    .with("free", 1000.0 + i as f64),
                Entry::at(&format!("queue=default, hn=host{i}"))
                    .expect("dn")
                    .with_class("queue")
                    .with("depth", i as f64),
            ];
            (
                url.clone(),
                GrrpMessage::register(url, ns, SimTime::ZERO, secs(300)),
                rows,
            )
        })
        .collect();

    // Baseline: every child re-registers and is re-harvested.
    let mut cold = Giis::new(
        GiisConfig::chaining(LdapUrl::server("giis.cold"), Dn::root()),
        secs(30),
        secs(300),
    );
    cold.config.mode = GiisMode::Harvest { refresh: secs(300) };
    let t0 = Instant::now();
    feed(&mut cold, &msgs);
    let storm = t0.elapsed();
    assert_eq!(cold.cached_entries(), children * 4);

    // Journal path: the same state recovered from disk.
    let dir = std::env::temp_dir().join(format!("gis-exp-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let storage: Arc<dyn Storage> =
            Arc::new(gis_store::FileStorage::open(&dir).expect("open store"));
        let mut warm = Giis::new(
            GiisConfig::chaining(LdapUrl::server("giis.warm"), Dn::root()),
            secs(30),
            secs(300),
        );
        warm.config.mode = GiisMode::Harvest { refresh: secs(300) };
        warm.set_persistence(storage, JournalOptions::default(), SimTime::ZERO);
        feed(&mut warm, &msgs);
        assert_eq!(warm.cached_entries(), children * 4);
    }
    let storage: Arc<dyn Storage> =
        Arc::new(gis_store::FileStorage::open(&dir).expect("reopen store"));
    let mut recovered = Giis::new(
        GiisConfig::chaining(LdapUrl::server("giis.warm"), Dn::root()),
        secs(30),
        secs(300),
    );
    recovered.config.mode = GiisMode::Harvest { refresh: secs(300) };
    let t0 = Instant::now();
    recovered.set_persistence(storage, JournalOptions::default(), SimTime::ZERO + secs(1));
    let recover = t0.elapsed();
    assert_eq!(recovered.cached_entries(), children * 4);
    let _ = std::fs::remove_dir_all(&dir);
    (storm, recover)
}

/// Restart-budget section: build a snapshot of `n` entries plus a
/// `wal_n`-record tail on real files, then time a cold open.
fn run_restart(n: usize, wal_n: usize) -> (f64, f64, f64) {
    let dir = std::env::temp_dir().join(format!("gis-exp-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage: Arc<dyn Storage> =
        Arc::new(gis_store::FileStorage::open(&dir).expect("open store"));

    // Snapshot written directly through the codec (building it through
    // one WAL append per entry would measure the builder, not restart).
    let entries: Vec<Entry> = (0..n).map(entry).collect();
    let t0 = Instant::now();
    let mut it = entries.iter();
    let image = encode_snapshot(
        1,
        SnapshotContent {
            regs: Vec::new(),
            groups: Vec::new(),
            targets: Vec::new(),
            entries: &mut it,
        },
    );
    storage
        .write_atomic(&snap_name(1), &image)
        .expect("write snapshot");
    let write_s = t0.elapsed().as_secs_f64();
    // Release the builder's copies before timing: a restarting process
    // holds neither, and keeping them alive distorts allocator behaviour
    // during the measured load.
    drop(image);
    drop(entries);

    // Timed cold load of the snapshot alone.
    let t0 = Instant::now();
    let (_, state, report) = Journal::open(
        Arc::clone(&storage),
        JournalOptions::default(),
        SimTime::ZERO,
    );
    let load_s = t0.elapsed().as_secs_f64();
    assert_eq!(state.dit.len(), n, "snapshot load lost entries");
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    // Prove the loaded tree is servable, not just counted.
    let shared = SharedDit::from_dit(state.dit);
    assert!(shared.len() == n);

    // WAL tail: `wal_n` upserts appended without fsync (building), then
    // a timed replay-from-scratch on a fresh directory.
    let wal_dir = std::env::temp_dir().join(format!("gis-exp-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    {
        let ws: Arc<dyn Storage> =
            Arc::new(gis_store::FileStorage::open(&wal_dir).expect("open wal store"));
        let opts = JournalOptions {
            fsync: FsyncPolicy::Never,
            ..JournalOptions::default()
        };
        let (mut j, _, _) = Journal::open(ws, opts, SimTime::ZERO);
        for i in 0..wal_n {
            j.log(&WalOp::Upsert(entry(i))).expect("append");
        }
    }
    let ws: Arc<dyn Storage> =
        Arc::new(gis_store::FileStorage::open(&wal_dir).expect("reopen wal store"));
    let t0 = Instant::now();
    let (_, state, _) = Journal::open(ws, JournalOptions::default(), SimTime::ZERO);
    let replay_s = t0.elapsed().as_secs_f64();
    assert_eq!(state.dit.len(), wal_n, "wal replay lost entries");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    (write_s, load_s, replay_s)
}

fn main() {
    let args = Args::parse();
    let smoke = args.smoke;
    let (n, wal_n, storm_n, ceiling) = if smoke {
        (
            SMOKE_ENTRIES,
            SMOKE_WAL,
            SMOKE_STORM_CHILDREN,
            SMOKE_LOAD_CEILING_S,
        )
    } else {
        (FULL_ENTRIES, FULL_WAL, STORM_CHILDREN, FULL_LOAD_CEILING_S)
    };

    banner(
        "PERSIST",
        "durable DIT: crash, recover, serve",
        "soft state survives restarts with its clocks intact (PR 7)",
    );

    let mut table = Table::new(&["section", "setup", "result"]);

    section("1. kill matrix (in-memory storage model, every kill point)");
    let kill_cases = run_kill_matrix(&mut table);

    section("2. live crash -> recover -> serve (real threads, real files)");
    let dir = std::env::temp_dir().join(format!("gis-exp-live-{}", std::process::id()));
    let (rows, live_recover) = run_live_crash(&dir);
    table.row(vec![
        "live recovery".into(),
        format!("{rows} harvested rows, child left dead"),
        format!(
            "served in {} ms after respawn",
            f2(live_recover.as_secs_f64() * 1e3)
        ),
    ]);

    section("3. journal recovery vs re-registration storm");
    let (storm, recover) = run_storm(storm_n);
    table.row(vec![
        "storm baseline".into(),
        format!("{storm_n} children x 4 rows, zero network charged"),
        format!("{} ms", f2(storm.as_secs_f64() * 1e3)),
    ]);
    table.row(vec![
        "journal recovery".into(),
        format!("same state from snapshot+WAL"),
        format!("{} ms", f2(recover.as_secs_f64() * 1e3)),
    ]);

    section("4. restart budget (snapshot load + WAL replay)");
    let (write_s, load_s, replay_s) = run_restart(n, wal_n);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    table.row(vec![
        "snapshot write".into(),
        format!("{n} entries"),
        format!("{} s", f2(write_s)),
    ]);
    table.row(vec![
        "snapshot load".into(),
        format!("{n} entries, {cores} core(s), ceiling {} s", f2(ceiling)),
        format!("{} s", f2(load_s)),
    ]);
    if !smoke {
        let met = if load_s < FULL_TARGET_S {
            "met"
        } else {
            "missed"
        };
        table.row(vec![
            "paper-scale target".into(),
            format!("< {} s for {n} entries", f2(FULL_TARGET_S)),
            format!("{met} ({} s on {cores} core(s))", f2(load_s)),
        ]);
    }
    table.row(vec![
        "wal replay".into(),
        format!("{wal_n} records"),
        format!("{} s", f2(replay_s)),
    ]);
    assert!(
        load_s < ceiling,
        "snapshot load {load_s:.3}s blew the {ceiling}s regression ceiling"
    );

    section("results");
    table.print();
    println!(
        "\nexpected shape: every kill-matrix recovery equals its durable\n\
         prefix; the recovered directory serves without any live child;\n\
         journal recovery beats even a zero-network re-registration storm,\n\
         and a {n}-entry snapshot loads within the {ceiling}s regression\n\
         ceiling (paper-scale target: {} s on a multi-core host).",
        f2(FULL_TARGET_S)
    );

    if let Some(path) = &args.json {
        let ms = |d: Duration| f2(d.as_secs_f64() * 1e3);
        let s4 = |v: f64| format!("{v:.4}");
        Json::new()
            .num("entries", n)
            .num("snapshot_write_s", s4(write_s))
            .num("snapshot_load_s", s4(load_s))
            .num("wal_records", wal_n)
            .num("wal_replay_s", s4(replay_s))
            .num("storm_rebuild_ms", ms(storm))
            .num("journal_recover_ms", ms(recover))
            .num("live_recover_to_serve_ms", ms(live_recover))
            .num("kill_matrix_cases", kill_cases)
            .write(path);
    }
}

//! Integration tests: higher-level services over full deployments, the
//! live threaded runtime, and whole-deployment determinism.

use grid_info_services::core::scenario::{figure5, two_vos};
use grid_info_services::core::{LiveRuntime, ServeOptions, SimDeployment};
use grid_info_services::giis::{Giis, GiisConfig, GiisMode};
use grid_info_services::gris::HostSpec;
use grid_info_services::ldap::{Dn, Filter, LdapUrl};
use grid_info_services::netsim::{secs, SimDuration};
use grid_info_services::proto::SearchSpec;
use grid_info_services::services::{AdaptationAgent, Broker, Requirements, Troubleshooter};
use std::time::Duration;

#[test]
fn whole_deployment_is_deterministic() {
    let run = |seed: u64| {
        let mut sc = figure5(seed);
        sc.dep.run_for(secs(3));
        let (_, entries, _) = sc
            .dep
            .search_and_wait(
                sc.client,
                &sc.vo_url,
                SearchSpec::subtree(Dn::root(), Filter::always()),
                secs(20),
            )
            .unwrap();
        let dns: Vec<String> = entries.iter().map(|e| e.dn().to_string()).collect();
        let m = sc.dep.sim.metrics();
        (dns, m)
    };
    let (dns1, m1) = run(77);
    let (dns2, m2) = run(77);
    assert_eq!(dns1, dns2, "same seed, same result set");
    assert_eq!(m1, m2, "same seed, same network trace");
    // (Different seeds change latencies and jitter but not necessarily
    // message *counts* in a loss-free run, so only same-seed equality is
    // asserted here; per-seed divergence is covered in gis-netsim.)
}

#[test]
fn broker_and_adaptation_agent_cooperate() {
    let mut sc = figure5(55);
    sc.dep.run_for(secs(3));
    let broker = Broker::new(sc.vo_url.clone());

    // Place an application on whichever host the broker picks.
    let initial = broker
        .select(&mut sc.dep, sc.client, &Requirements::linux(1, 100.0))
        .expect("initial placement");
    let mut agent = AdaptationAgent::new(initial.host.clone(), 1.0, 2);
    agent.improvement_factor = 0.9;

    // Monitor loop: observe the current host's load and the broker's
    // current best alternative; migrate when the agent says so.
    let mut observed_migration = false;
    for _ in 0..12 {
        sc.dep.run_for(secs(30));
        let current = sc
            .dep
            .search_and_wait(
                sc.client,
                &sc.vo_url,
                SearchSpec::subtree(
                    agent.current_host.clone(),
                    Filter::parse("(load5=*)").unwrap(),
                ),
                secs(10),
            )
            .and_then(|(_, es, _)| es.iter().find_map(|e| e.get_f64("load5")));
        let Some(load) = current else { continue };
        let alt = broker
            .select(&mut sc.dep, sc.client, &Requirements::linux(1, 100.0))
            .map(|s| (s.host, s.load5));
        if agent.observe(sc.dep.now(), load, alt).is_some() {
            observed_migration = true;
            break;
        }
    }
    // Whether or not a migration happened (loads are seeded), the agent's
    // record must be internally consistent.
    if observed_migration {
        assert_eq!(agent.migrations.len(), 1);
        assert_eq!(agent.migrations[0].to, agent.current_host);
        assert_ne!(agent.migrations[0].from, agent.current_host);
    } else {
        assert!(agent.migrations.is_empty());
    }
}

#[test]
fn troubleshooter_detects_partition_loss_and_recovery() {
    let mut sc = two_vos(61, 2);
    sc.dep.run_for(secs(5));
    let mut ts = Troubleshooter::new(1e9); // only track presence
    let q = || SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap());

    let sweep = |sc: &mut grid_info_services::core::TwoVoScenario, ts: &mut Troubleshooter| {
        let url = sc.vo_b[0].1.clone();
        let (_, computers, _) = sc
            .dep
            .search_and_wait(sc.clients[1], &url, q(), secs(15))
            .unwrap();
        let now = sc.dep.now();
        ts.sweep(&computers, &[], now)
    };

    assert!(sweep(&mut sc, &mut ts).is_empty());
    assert_eq!(ts.present_count(), 6);

    // Partition VO-B's halves.
    let side0: Vec<_> = sc.hosts_b[0]
        .iter()
        .map(|(n, _)| *n)
        .chain([sc.vo_b[0].0, sc.clients[1]])
        .collect();
    let side1: Vec<_> = sc.hosts_b[1].iter().map(|(n, _)| *n).collect();
    sc.dep.sim.partition_between(&side0, &side1);
    sc.dep.run_for(secs(45));

    let alerts = sweep(&mut sc, &mut ts);
    let lost = alerts
        .iter()
        .filter(|a| matches!(a, grid_info_services::services::Alert::ServiceLost { .. }))
        .count();
    assert_eq!(lost, 2, "the two partitioned hosts are reported lost");

    sc.dep.sim.heal_all();
    sc.dep.run_for(secs(30));
    let alerts = sweep(&mut sc, &mut ts);
    let recovered = alerts
        .iter()
        .filter(|a| {
            matches!(
                a,
                grid_info_services::services::Alert::ServiceRecovered { .. }
            )
        })
        .count();
    assert_eq!(recovered, 2, "both hosts recover after healing");
}

#[test]
fn live_runtime_matches_simulated_semantics() {
    // The same logical deployment in both runtimes returns the same
    // result set (modulo timing).
    let host_names = ["x1", "x2", "x3"];

    // Simulated.
    let mut dep = SimDeployment::new(9);
    let vo_sim = LdapUrl::server("giis.vo");
    dep.add_giis(Giis::new(
        GiisConfig::chaining(vo_sim.clone(), Dn::root()),
        secs(10),
        secs(30),
    ));
    for (i, n) in host_names.iter().enumerate() {
        let host = HostSpec::linux(n, 2);
        dep.add_standard_host(&host, i as u64, std::slice::from_ref(&vo_sim));
    }
    let client = dep.add_client("u");
    dep.run_for(secs(2));
    let (_, sim_entries, _) = dep
        .search_and_wait(
            client,
            &vo_sim,
            SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
            secs(10),
        )
        .unwrap();
    let mut sim_dns: Vec<String> = sim_entries.iter().map(|e| e.dn().to_string()).collect();
    sim_dns.sort();

    // Live.
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo_live = LdapUrl::server("giis.vo");
    let mut giis = Giis::new(
        GiisConfig::chaining(vo_live.clone(), Dn::root()),
        SimDuration::from_millis(100),
        SimDuration::from_millis(400),
    );
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(500),
    };
    rt.spawn_giis(giis, ServeOptions::default()).unwrap();
    for (i, n) in host_names.iter().enumerate() {
        let host = HostSpec::linux(n, 2);
        let mut gris = SimDeployment::standard_host_gris(&host, i as u64);
        gris.agent.interval = SimDuration::from_millis(100);
        gris.agent.ttl = SimDuration::from_millis(400);
        gris.agent.add_target(vo_live.clone());
        rt.spawn_gris(gris, ServeOptions::default()).unwrap();
    }
    std::thread::sleep(Duration::from_millis(400));
    let mut live_client = rt.client();
    let (_, live_entries, _) = live_client
        .request(
            &vo_live,
            SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
        )
        .timeout(Duration::from_secs(5))
        .send()
        .outcome
        .expect("live search completes");
    let mut live_dns: Vec<String> = live_entries.iter().map(|e| e.dn().to_string()).collect();
    live_dns.sort();
    rt.shutdown();

    assert_eq!(sim_dns, live_dns, "both runtimes expose the same view");
}

#[test]
fn matchmaker_over_directory_contents() {
    // §5.3: the Condor matchmaking evaluation layered over GRIP-obtained
    // machine ads. Machine ads come from the VO directory; job ads carry
    // VO membership; a picky machine rejects non-physics jobs.
    use grid_info_services::services::{matchmake, JobAd, MachineAd, Rank};

    let mut sc = figure5(91);
    sc.dep.run_for(secs(3));
    let (_, computers, _) = sc
        .dep
        .search_and_wait(
            sc.client,
            &sc.vo_url,
            SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap()),
            secs(20),
        )
        .unwrap();
    assert_eq!(computers.len(), 6);

    // Machines in O2 only accept physics jobs; others are open.
    let machines: Vec<MachineAd> = computers
        .into_iter()
        .map(|e| {
            if e.dn().is_under(&grid_info_services::core::org("O2")) {
                MachineAd::demanding(e, Filter::parse("(vo=physics)").unwrap())
            } else {
                MachineAd::open(e)
            }
        })
        .collect();

    let physics = JobAd::new(
        "phys-sim",
        Filter::parse("(objectclass=computer)").unwrap(),
        Rank::Maximize("cpucount"),
        &[("vo", "physics")],
    );
    let biology = JobAd::new(
        "bio-seq",
        Filter::parse("(objectclass=computer)").unwrap(),
        Rank::Maximize("cpucount"),
        &[("vo", "biology")],
    );
    let matches = matchmake(&[physics, biology], &machines);
    assert_eq!(matches.len(), 2, "both jobs place somewhere");
    // The biology job can never land in O2.
    let bio = matches.iter().find(|m| m.job == "bio-seq").unwrap();
    assert!(
        !bio.machine.is_under(&grid_info_services::core::org("O2")),
        "biology excluded from O2 by machine-side requirements"
    );
}

/// A GRIS with a query-worker pool answers the three kinds of
/// `SearchRequest`: plain, traced (spans recorded in the runtime's sink)
/// and retried.
#[test]
fn pooled_gris_answers_plain_traced_and_retried_searches() {
    use grid_info_services::core::RetryPolicy;
    use grid_info_services::gris::HostSpec as Hs;

    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let host = Hs::linux("pooled", 2);
    let gris = SimDeployment::standard_host_gris(&host, 1);
    let url = gris.config.url.clone();
    rt.spawn_gris(gris, ServeOptions::channel().with_workers(2))
        .unwrap();

    let mut client = rt.client();
    let spec = || SearchSpec::subtree(host.dn(), Filter::always());
    let (code, entries, _) = client
        .request(&url, spec())
        .timeout(Duration::from_secs(5))
        .send()
        .outcome
        .expect("pooled search answers");
    assert!(!entries.is_empty(), "{code:?}");

    let response = client
        .request(&url, spec())
        .traced()
        .timeout(Duration::from_secs(5))
        .send();
    assert!(response.outcome.is_some());
    let trace = response.trace.expect("traced request mints a trace id");
    assert!(!rt.trace_sink().spans(trace).is_empty(), "trace recorded");

    let outcome = client
        .request(&url, spec())
        .retry(RetryPolicy::default())
        .send()
        .outcome;
    assert!(outcome.is_some());
    rt.shutdown();
}

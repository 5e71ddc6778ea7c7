//! End-to-end tests for the TCP transport: GRIP/GRRP over real
//! sockets, including a client in a separate OS process.
//!
//! The cross-process test re-executes this test binary with
//! `GIS_TCP_E2E_PORT` set; the child run skips every test except
//! [`tcp_e2e_child_entry`], which acts as the remote client and prints
//! machine-parsable `E2E-*` lines the parent asserts on.

use grid_info_services::core::{LiveClient, LiveRuntime, ServeOptions, TcpTuning};
use grid_info_services::giis::{BreakerConfig, Giis, GiisConfig, GiisMode};
use grid_info_services::gris::{Gris, GrisConfig, HostSpec, StaticHostProvider};
use grid_info_services::gsi::{CertAuthority, SecurityPolicy, TrustStore};
use grid_info_services::ldap::{Dn, Filter, LdapUrl, Wire};
use grid_info_services::netsim::SimDuration;
use grid_info_services::proto::{
    GripReply, GripRequest, ResultCode, SearchSpec, SubscriptionMode, TraceId,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// An ephemeral loopback URL: the runtime binds port 0 and returns the
/// URL it serves.
fn loopback() -> LdapUrl {
    LdapUrl::tcp("127.0.0.1", 0)
}

fn computers() -> SearchSpec {
    SearchSpec::subtree(Dn::root(), Filter::parse("(objectclass=computer)").unwrap())
}

/// A GRIS whose entries are fully static (no dynamic providers), so the
/// same host spec yields byte-identical entries in any topology.
fn static_gris(name: &str, url: LdapUrl, register_with: &LdapUrl) -> Gris {
    let host = HostSpec::linux(name, 2);
    let config = GrisConfig::open(url, host.dn());
    let mut gris = Gris::new(
        config,
        SimDuration::from_millis(100),
        SimDuration::from_secs(10),
    );
    gris.add_provider(Box::new(StaticHostProvider::new(host)));
    gris.agent.add_target(register_with.clone());
    gris
}

fn chaining_giis(url: LdapUrl) -> Giis {
    let mut giis = Giis::new(
        GiisConfig::chaining(url, Dn::root()),
        SimDuration::from_millis(100),
        SimDuration::from_secs(10),
    );
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(800),
    };
    giis
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Poll `client` until the VO search returns `want` entries with
/// `Success` (registrations and harvests are asynchronous), then return
/// the sorted wire encodings.
fn await_entries(client: &mut LiveClient, target: &LdapUrl, want: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let outcome = client
            .request(target, computers())
            .timeout(Duration::from_secs(2))
            .send()
            .outcome;
        if let Some((ResultCode::Success, entries, _)) = &outcome {
            if entries.len() == want {
                let mut encs: Vec<String> = entries.iter().map(|e| hex(&e.to_wire())).collect();
                encs.sort();
                return encs;
            }
        }
        assert!(
            Instant::now() < deadline,
            "topology never converged to {want} entries; last outcome: {outcome:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// GIIS and two GRIS all fronted by TCP listeners on loopback,
/// chained/registered through `tcp://` service URLs.
fn tcp_topology(n_gris: usize) -> (LiveRuntime, LdapUrl) {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo = rt
        .spawn_giis(chaining_giis(loopback()), ServeOptions::tcp())
        .expect("giis listener binds");
    for i in 0..n_gris {
        let gris = static_gris(&format!("x{}", i + 1), loopback(), &vo);
        rt.spawn_gris(gris, ServeOptions::tcp())
            .expect("gris listener binds");
    }
    (rt, vo)
}

/// The same logical topology over in-process channels only.
fn channel_topology(n_gris: usize) -> (LiveRuntime, LdapUrl) {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo = LdapUrl::server("giis.vo");
    rt.spawn_giis(chaining_giis(vo.clone()), ServeOptions::channel())
        .expect("channel giis");
    for i in 0..n_gris {
        let name = format!("x{}", i + 1);
        let gris = static_gris(&name, LdapUrl::server(format!("gris.{name}")), &vo);
        rt.spawn_gris(gris, ServeOptions::channel())
            .expect("channel gris");
    }
    (rt, vo)
}

/// Child half of the cross-process test. A no-op unless the parent set
/// `GIS_TCP_E2E_PORT`; then it connects to the parent's GIIS over TCP,
/// runs one traced search, and prints the outcome for the parent.
#[test]
fn tcp_e2e_child_entry() {
    let Ok(port) = std::env::var("GIS_TCP_E2E_PORT") else {
        return;
    };
    let url = LdapUrl::tcp("127.0.0.1", port.parse::<u16>().expect("port"));
    let mut client = LiveClient::builder(&url)
        .connect()
        .expect("child connects to parent GIIS");
    // Poll for convergence like any client would; the parent already
    // waited, so the first answer is normally complete.
    let encs = await_entries(&mut client, &url, 2);
    let response = client
        .request(&url, computers())
        .timeout(Duration::from_secs(5))
        .traced()
        .send();
    let trace = response.trace.expect("traced request mints a trace id");
    let (code, entries, _) = response.outcome.expect("child search answered");
    println!("E2E-CODE: {code:?}");
    println!("E2E-TRACE: {trace}");
    let mut traced_encs: Vec<String> = entries.iter().map(|e| hex(&e.to_wire())).collect();
    traced_encs.sort();
    assert_eq!(traced_encs, encs, "traced rerun sees the same entries");
    for e in &traced_encs {
        println!("E2E-ENTRY: {e}");
    }
}

/// The PR's headline acceptance: a GIIS chained to two GRIS over
/// `tcp://127.0.0.1`, queried by a `LiveClient` in a *separate OS
/// process*, returns an entry set byte-identical to the pure in-process
/// topology, and the parent's trace sink shows the full GIIS→GRIS tree
/// for the child's trace id.
#[test]
fn cross_process_client_matches_in_process_topology() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return; // we *are* the child; only tcp_e2e_child_entry runs
    }
    let (rt, vo) = tcp_topology(2);

    // Expected result set from the identical channel-only topology.
    let (chan_rt, chan_vo) = channel_topology(2);
    let mut chan_client = chan_rt.client();
    let expected = await_entries(&mut chan_client, &chan_vo, 2);
    chan_rt.shutdown();

    // Warm the TCP topology from this process first so the child's view
    // is already converged.
    let mut probe = LiveClient::builder(&vo)
        .connect()
        .expect("parent probe connects");
    let local = await_entries(&mut probe, &vo, 2);
    assert_eq!(
        local, expected,
        "tcp and channel topologies agree in-process"
    );

    let out = std::process::Command::new(std::env::current_exe().expect("current_exe"))
        .args([
            "tcp_e2e_child_entry",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("GIS_TCP_E2E_PORT", vo.port.to_string())
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child process failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // libtest prints `test name ... ` without a newline, so the child's
    // first marker can share a line with it: match by substring.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        line.find(key).map(|i| line[i + key.len()..].trim())
    }
    let mut code = None;
    let mut trace = None;
    let mut entries = Vec::new();
    for line in stdout.lines() {
        if let Some(v) = field(line, "E2E-CODE: ") {
            code = Some(v.to_owned());
        } else if let Some(v) = field(line, "E2E-TRACE: ") {
            trace = Some(u64::from_str_radix(v, 16).expect("trace id hex"));
        } else if let Some(v) = field(line, "E2E-ENTRY: ") {
            entries.push(v.to_owned());
        }
    }
    assert_eq!(code.as_deref(), Some("Success"), "child outcome\n{stdout}");
    assert_eq!(
        entries, expected,
        "child's entry set is byte-identical to the in-process topology"
    );

    // The request was traced in the child's span-id space (pid << 32);
    // the server-side spans all landed in this process's sink.
    let trace = TraceId(trace.expect("child printed its trace id"));
    let spans = rt.trace_sink().spans(trace);
    assert!(
        spans.iter().any(|s| s.name == "giis.search"),
        "GIIS recorded its span for the child's trace: {spans:?}"
    );
    let gris_spans = spans.iter().filter(|s| s.name == "gris.search").count();
    assert!(
        gris_spans >= 2,
        "both chained GRIS recorded spans for the child's trace: {spans:?}"
    );
    rt.shutdown();
}

/// Direct TCP loopback query against a single GRIS, plus the runtime's
/// remote-send counter observing GRRP registrations leaving over TCP.
#[test]
fn tcp_loopback_direct_query() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let (rt, vo) = tcp_topology(2);
    let mut client = LiveClient::builder(&vo).connect().expect("connect");
    let encs = await_entries(&mut client, &vo, 2);
    assert_eq!(encs.len(), 2);
    assert!(
        rt.net_metrics().remote > 0,
        "GRRP registrations travelled over real sockets"
    );
    rt.shutdown();
}

/// A frame whose header announces a body above the ceiling is rejected
/// before buffering: the connection drops cleanly (no panic, no giant
/// allocation) and the service keeps serving other clients.
#[test]
fn oversized_frame_drops_connection_not_service() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let gris = static_gris("solo", loopback(), &LdapUrl::server("giis.nowhere"));
    let url = rt.spawn_gris(gris, ServeOptions::tcp()).unwrap();

    let mut rogue = TcpStream::connect(("127.0.0.1", url.port)).expect("rogue connects");
    rogue
        .write_all(&(64u32 << 20).to_be_bytes()) // 64 MiB >> MAX_FRAME
        .expect("header write");
    rogue
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(
        rogue.read(&mut buf).expect("server closes, not hangs"),
        0,
        "oversized frame must end the connection"
    );

    let mut client = LiveClient::builder(&url)
        .connect()
        .expect("healthy client connects");
    let outcome = client
        .request(&url, SearchSpec::subtree(Dn::root(), Filter::always()))
        .timeout(Duration::from_secs(5))
        .send()
        .outcome;
    let (code, entries, _) = outcome.expect("service still answers");
    assert_eq!(code, ResultCode::Success);
    assert!(!entries.is_empty());
    rt.shutdown();
}

/// A peer that stalls mid-frame trips the read deadline: the connection
/// is dropped and — with `max_conns: 1` — its slot is freed for the
/// next client.
#[test]
fn half_frame_stall_trips_read_deadline_and_frees_slot() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let gris = static_gris("solo", loopback(), &LdapUrl::server("giis.nowhere"));
    let tuning = TcpTuning {
        read_deadline: Duration::from_millis(200),
        max_conns: 1,
        ..TcpTuning::default()
    };
    let url = rt
        .spawn_gris(gris, ServeOptions::tcp().with_tuning(tuning))
        .unwrap();

    // Occupy the only slot with half a header, then stall.
    let mut staller = TcpStream::connect(("127.0.0.1", url.port)).expect("staller connects");
    staller.write_all(&[0x00, 0x00]).expect("half a header");
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(
        staller.read(&mut buf).expect("deadline closes the conn"),
        0,
        "mid-frame stall past the read deadline drops the connection"
    );

    // The slot is free again: a real client connects and is answered.
    let mut client = LiveClient::builder(&url).connect().expect("slot was freed");
    let outcome = client
        .request(&url, SearchSpec::subtree(Dn::root(), Filter::always()))
        .timeout(Duration::from_secs(5))
        .send()
        .outcome;
    assert!(
        matches!(outcome, Some((ResultCode::Success, _, _))),
        "post-stall client is served: {outcome:?}"
    );
    rt.shutdown();
}

/// A connection dropped mid-reply surfaces as a definite
/// `Unavailable` answer (transport failure), not an indefinite timeout.
#[test]
fn connection_drop_mid_reply_surfaces_unavailable() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 64];
        let _ = conn.read(&mut buf); // consume (some of) the request
                                     // Promise a 64-byte reply body, deliver 8 bytes, hang up.
        let mut partial = Vec::from(64u32.to_be_bytes());
        partial.extend_from_slice(&[0u8; 8]);
        conn.write_all(&partial).expect("partial reply");
        // Drop: the client sees EOF mid-frame.
    });

    let url = LdapUrl::tcp("127.0.0.1", port);
    let tuning = TcpTuning {
        read_deadline: Duration::from_millis(500),
        ..TcpTuning::default()
    };
    let mut client = LiveClient::builder(&url)
        .tuning(tuning)
        .connect()
        .expect("connect");
    let outcome = client
        .request(&url, SearchSpec::subtree(Dn::root(), Filter::always()))
        .timeout(Duration::from_secs(3))
        .send()
        .outcome;
    assert_eq!(
        outcome,
        Some((ResultCode::Unavailable, Vec::new(), Vec::new())),
        "mid-reply drop is a definite transport failure"
    );
    server.join().unwrap();
}

/// A GRIS spawned on `tcp://127.0.0.1:0` binds an ephemeral port, and
/// the *real* port — not the zero it was configured with — is what its
/// registration agent advertises: a channel GIIS chains to it over TCP
/// and gets its entry, and a direct client can dial the URL that
/// `spawn_gris` returned.
#[test]
fn ephemeral_port_zero_registers_the_bound_port() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo = LdapUrl::server("giis.vo");
    rt.spawn_giis(chaining_giis(vo.clone()), ServeOptions::channel())
        .unwrap();

    let gris = static_gris("eph", LdapUrl::tcp("127.0.0.1", 0), &vo);
    let served = rt
        .spawn_gris(gris, ServeOptions::tcp())
        .expect("port 0 binds an ephemeral listener");
    assert_ne!(served.port, 0, "served URL carries the bound port");

    // The registration advertised the rebound URL: the GIIS can chain
    // to the GRIS over TCP and return its entry.
    let mut client = rt.client();
    let encs = await_entries(&mut client, &vo, 1);
    assert_eq!(encs.len(), 1);

    // And the returned URL is directly dialable.
    let mut direct = LiveClient::builder(&served)
        .connect()
        .expect("dial the served URL");
    let direct_encs = await_entries(&mut direct, &served, 1);
    assert_eq!(direct_encs, encs, "direct and chained views agree");
    rt.shutdown();
}

/// The §7 trust model end to end over real sockets: a GIIS demanding
/// mutual authentication and signed registrations, a well-behaved GRIS
/// that signs and authenticates, and a rogue GRIS that completes the
/// wire handshake but never signs its registrations. The authenticated
/// client sees exactly the signed host; the rogue's soft state is
/// refused admission; an anonymous client's enquiry is dropped before
/// it reaches the service.
#[test]
fn secured_topology_admits_signed_and_rejects_unsigned() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let ca = CertAuthority::new("/O=Grid/CN=E2E-CA", 11);
    let mut trust = TrustStore::new();
    trust.add_ca(&ca);

    // Secured GIIS: handshake required, registrations verified.
    let mut rt_srv = LiveRuntime::new(Duration::from_millis(10));
    let giis = chaining_giis(loopback());
    let stats = giis.query_path();
    let vo = rt_srv
        .spawn_giis(
            giis,
            ServeOptions::tcp().security(SecurityPolicy::authenticated(
                ca.issue("/O=Grid/CN=vo"),
                trust.clone(),
            )),
        )
        .expect("secured giis binds");

    // Good GRIS in its own runtime: signs registrations with its
    // credential and authenticates the outbound connection to the VO.
    let good_cred = ca.issue("/O=Grid/CN=good");
    let mut rt_good = LiveRuntime::new(Duration::from_millis(10));
    rt_good.set_outbound_security(&SecurityPolicy::authenticated(
        good_cred.clone(),
        trust.clone(),
    ));
    let mut good = static_gris("good", loopback(), &vo);
    good.config.security = SecurityPolicy::anonymous().with_credential(good_cred);
    rt_good.spawn_gris(good, ServeOptions::tcp()).unwrap();

    // Rogue GRIS: holds a perfectly valid wire credential (the
    // handshake succeeds) but registers without signatures.
    let mut rt_rogue = LiveRuntime::new(Duration::from_millis(10));
    rt_rogue.set_outbound_security(&SecurityPolicy::authenticated(
        ca.issue("/O=Grid/CN=rogue"),
        trust.clone(),
    ));
    let rogue = static_gris("rogue", loopback(), &vo);
    rt_rogue.spawn_gris(rogue, ServeOptions::tcp()).unwrap();

    // The rogue's unsigned registrations are refused at the door.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.stats().grrp_rejected == 0 {
        assert!(
            Instant::now() < deadline,
            "rogue registration never reached the GIIS: {:?}",
            stats.stats()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // An authenticated client converges on exactly the signed host.
    let mut client = LiveClient::builder(&vo)
        .security(SecurityPolicy::authenticated(
            ca.issue("/O=Grid/CN=client"),
            trust.clone(),
        ))
        .connect()
        .expect("authenticated client connects");
    assert!(
        client.handshake_rtt().is_some(),
        "mutual-auth handshake was measured"
    );
    let encs = await_entries(&mut client, &vo, 1);
    assert!(
        encs[0].contains(&hex(b"good")),
        "the admitted entry is the signed GRIS"
    );
    assert!(
        !encs.iter().any(|e| e.contains(&hex(b"rogue"))),
        "the unsigned GRIS never entered the directory"
    );

    // An anonymous client's TCP connect succeeds, but its enquiry is
    // dropped before dispatch: no Success, ever.
    let mut anon = LiveClient::builder(&vo).connect().expect("tcp connects");
    assert!(anon.handshake_rtt().is_none(), "no handshake attempted");
    let outcome = anon
        .request(&vo, computers())
        .timeout(Duration::from_secs(2))
        .send()
        .outcome;
    assert!(
        !matches!(&outcome, Some((ResultCode::Success, _, _))),
        "anonymous enquiry must not be served: {outcome:?}"
    );

    rt_rogue.shutdown();
    rt_good.shutdown();
    rt_srv.shutdown();
}

/// A TCP client's `recv` and request deadlines hold even when they are
/// shorter than any socket-level polling interval.
#[test]
fn tcp_client_timeouts_honour_short_deadlines() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    // A listener that accepts (by backlog) but never answers.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let url = LdapUrl::tcp("127.0.0.1", silent.local_addr().unwrap().port());
    let mut client = LiveClient::builder(&url).connect().unwrap();

    let started = Instant::now();
    assert!(client.recv(Duration::from_millis(5)).is_none());
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(60),
        "recv(5 ms) took {waited:?}"
    );

    let started = Instant::now();
    let outcome = client
        .request(&url, computers())
        .timeout(Duration::from_millis(20))
        .send()
        .outcome;
    let waited = started.elapsed();
    assert!(outcome.is_none(), "nobody answers");
    assert!(
        waited < Duration::from_millis(60),
        "timeout(20 ms) took {waited:?}"
    );
}

/// Every accepted connection interns one reply address; closing the
/// connection forgets it, so the interner does not grow with the number
/// of connections a service has ever seen.
#[test]
fn closed_tcp_connections_leave_the_interner() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let url = LdapUrl::tcp("127.0.0.1", 0);
    let gris = static_gris("x1", url, &LdapUrl::server("giis.none"));
    let interned = gris.metrics().gauge("interned-clients");
    let url = rt.spawn_gris(gris, ServeOptions::tcp()).unwrap();
    let baseline = interned.get();

    const CONNS: u64 = 20;
    let mut clients: Vec<LiveClient> = (0..CONNS)
        .map(|_| LiveClient::builder(&url).connect().unwrap())
        .collect();
    for client in &mut clients {
        let outcome = client
            .request(&url, computers())
            .timeout(Duration::from_secs(5))
            .send()
            .outcome;
        assert!(outcome.is_some(), "served over TCP");
    }
    assert_eq!(interned.get(), baseline + CONNS, "one id per connection");

    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(5);
    while interned.get() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(interned.get(), baseline, "closed connections forgotten");
    rt.shutdown();
}

/// A client that disconnects takes its subscriptions with it: the GRIS
/// stops evaluating and pushing them, instead of serving a dead socket
/// every period for as long as it runs.
#[test]
fn closed_tcp_connection_drops_its_subscriptions() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let mut rt = LiveRuntime::new(Duration::from_millis(5));
    let gris = static_gris("s1", loopback(), &LdapUrl::server("giis.none"));
    let stats = gris.query_path();
    let subscriptions = gris.metrics().gauge("subscriptions");
    let interned = gris.metrics().gauge("interned-clients");
    let url = rt.spawn_gris(gris, ServeOptions::tcp()).unwrap();
    let baseline = interned.get();

    let mut client = LiveClient::builder(&url).connect().unwrap();
    client.send(&url, |id| GripRequest::Subscribe {
        id,
        spec: computers(),
        mode: SubscriptionMode::Periodic(SimDuration::from_millis(20)),
    });
    for _ in 0..3 {
        let update = client.recv(Duration::from_secs(5));
        assert!(
            matches!(update, Some(GripReply::Update { .. })),
            "periodic update over TCP, got {update:?}"
        );
    }
    let while_subscribed = subscriptions.get();

    drop(client);
    // The close reaches the owner thread asynchronously.
    let deadline = Instant::now() + Duration::from_secs(5);
    while (interned.get() != baseline || subscriptions.get() != 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(interned.get(), baseline, "closed connection forgotten");
    // Ten periods go by.
    let sent = stats.stats().updates_sent;
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        stats.stats().updates_sent,
        sent,
        "updates kept flowing to a closed connection"
    );
    assert_eq!(while_subscribed, 1, "one subscription while connected");
    assert_eq!(
        subscriptions.get(),
        0,
        "subscription dropped with its connection"
    );
    rt.shutdown();
}

/// A registered-but-dead TCP child looks to the GIIS exactly like the
/// failures the PR 2 circuit breaker was built for: chained requests go
/// unanswered, consecutive fan-out timeouts accumulate, the circuit
/// opens.
#[test]
fn dead_tcp_child_trips_giis_breaker() {
    if std::env::var("GIS_TCP_E2E_PORT").is_ok() {
        return;
    }
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo = LdapUrl::server("giis.vo");
    let mut giis = chaining_giis(vo.clone());
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(300),
    };
    giis.config.breaker = Some(BreakerConfig {
        failure_threshold: 2,
        cooldown: SimDuration::from_secs(60),
        retry: false,
    });
    let stats = giis.query_path();
    rt.spawn_giis(giis, ServeOptions::channel()).unwrap();

    let gris = static_gris("victim", loopback(), &vo);
    let gris_url = rt.spawn_gris(gris, ServeOptions::tcp()).unwrap();

    // Healthy first: the child registers (soft state, 10 s TTL) and
    // answers a chained search over TCP.
    let mut client = rt.client();
    await_entries(&mut client, &vo, 1);

    // Kill the child. Its registration outlives it, so the GIIS keeps
    // chaining to a dead tcp:// endpoint: connect refused, no reply,
    // fan-out deadline, breaker strike.
    rt.kill_service(&gris_url);
    for _ in 0..3 {
        let _ = client
            .request(&vo, computers())
            .timeout(Duration::from_secs(2))
            .send()
            .outcome;
    }
    let s = stats.stats();
    assert!(
        s.breaker_opens >= 1,
        "dead TCP child opens its circuit: {s:?}"
    );
    rt.shutdown();
}

//! TRUST — the §7 trust matrix over real sockets.
//!
//! §7 names the postures an information service can take towards its
//! peers: fully open access ("authenticated queries are not required"),
//! GSI mutual authentication, and policies "based on identity
//! credentials presented by the requesting entity". PR 10 threads those
//! postures through the live TCP transport; this experiment runs one
//! topology per §7 row — real listeners on 127.0.0.1, real handshake
//! frames, real signed registrations — and measures what each tier
//! costs:
//!
//! * **anonymous** — open GIIS + GRIS, anonymous client. The baseline.
//! * **authenticated** — every hop (client→GIIS, GRIS→GIIS
//!   registration, GIIS→GRIS chaining) completes the mutual-auth
//!   handshake before any GRIP/GRRP traffic; registrations are signed
//!   and verified. Reports the handshake RTT paid once per connection.
//! * **identity** — as authenticated, plus a per-subtree ACL map on the
//!   GIIS: an admin subject reads full entries, any other authenticated
//!   subject sees existence only. The `acl_filter_tax` column is the
//!   steady-state query cost of redaction, gated under 10% in CI.
//! * **rejected** — the failure row: a credential from an untrusted CA
//!   is refused at the handshake (wire code `AuthRejected`), and a
//!   secured GRIS that an open GIIS cannot authenticate to looks like
//!   any other dead child — chained fan-outs time out and the PR 2
//!   circuit breaker opens.
//!
//! `--json PATH` dumps the rows for `scripts/bench_snapshot.sh`;
//! `--smoke` shrinks the run for CI.

use gis_bench::{banner, computers, drive, f2, section, warm, Args, Json, Run, Table};
use gis_core::{LiveClient, LiveRuntime, ServeOptions};
use gis_giis::{BreakerConfig, Giis, GiisConfig, GiisMode};
use gis_gris::{Gris, GrisConfig, HostSpec, StaticHostProvider};
use gis_gsi::{Acl, CertAuthority, Grant, PolicyMap, Principal, SecurityPolicy, TrustStore};
use gis_ldap::{Dn, Filter, LdapUrl};
use gis_netsim::SimDuration;
use gis_proto::{ResultCode, SearchSpec};
use std::time::{Duration, Instant};

const QUERIES: usize = 400;
const SMOKE_QUERIES: usize = 80;
const GRIS_COUNT: usize = 2;
/// The relative ACL-redaction overhead the CI gate tolerates.
const ACL_TAX_CEILING: f64 = 0.10;
/// Absolute-noise floor: loopback p50s this close together are within
/// scheduler jitter, whatever the ratio says.
const ACL_TAX_FLOOR_US: f64 = 150.0;

/// A GRIS with fully static entries, carrying `security` as both its
/// endpoint posture and its registration-signing credential.
fn matrix_gris(name: &str, url: LdapUrl, vo: &LdapUrl, security: SecurityPolicy) -> Gris {
    let host = HostSpec::linux(name, 2);
    let mut config = GrisConfig::open(url, host.dn());
    config.security = security;
    let mut gris = Gris::new(
        config,
        SimDuration::from_millis(100),
        SimDuration::from_secs(10),
    );
    gris.add_provider(Box::new(StaticHostProvider::new(host)));
    gris.agent.add_target(vo.clone());
    gris
}

fn matrix_giis(vo: LdapUrl) -> Giis {
    let mut giis = Giis::new(
        GiisConfig::chaining(vo, Dn::root()),
        SimDuration::from_millis(100),
        SimDuration::from_secs(10),
    );
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(800),
    };
    giis
}

/// An ephemeral loopback URL; the runtime binds it and returns the
/// served one.
fn loopback() -> LdapUrl {
    LdapUrl::tcp("127.0.0.1", 0)
}

/// Converge, then time `queries` sequential queries on `client` — the
/// steady-state per-request view, with the handshake already paid.
fn warm_and_drive(mut client: LiveClient, vo: &LdapUrl, queries: usize) -> Run {
    warm(&mut client, vo, &computers(), GRIS_COUNT);
    drive(vec![client], vo, &[computers()], queries, 1)
}

/// §7 row 1: no handshake anywhere, everyone anonymous.
fn row_anonymous(queries: usize) -> Run {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo = rt
        .spawn_giis(matrix_giis(loopback()), ServeOptions::tcp())
        .expect("open giis binds");
    for i in 0..GRIS_COUNT {
        let gris = matrix_gris(
            &format!("open{i}"),
            loopback(),
            &vo,
            SecurityPolicy::anonymous(),
        );
        rt.spawn_gris(gris, ServeOptions::tcp()).expect("open gris");
    }
    let client = LiveClient::builder(&vo)
        .connect()
        .expect("anonymous connect");
    assert!(
        client.handshake_rtt().is_none(),
        "anonymous connect performs no handshake"
    );
    let run = warm_and_drive(client, &vo, queries);
    rt.shutdown();
    run
}

/// §7 rows 2 and 3 share a topology: every hop mutually authenticated,
/// registrations signed and verified. `policy_map` is `None` for the
/// authenticated tier and `Some` for the identity tier.
fn secured_topology(
    ca: &CertAuthority,
    trust: &TrustStore,
    policy_map: Option<PolicyMap>,
) -> (LiveRuntime, LdapUrl) {
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    // One mesh identity for the runtime's own outbound hops: GRRP
    // registrations to the GIIS and GIIS→GRIS chaining legs.
    rt.set_outbound_security(&SecurityPolicy::authenticated(
        ca.issue("/O=Grid/CN=mesh"),
        trust.clone(),
    ));
    let identity = policy_map.is_some();
    let giis_cred = ca.issue("/O=Grid/CN=giis");
    let giis_policy = match policy_map {
        Some(map) => SecurityPolicy::identity(giis_cred, trust.clone()).with_policy_map(map),
        None => SecurityPolicy::authenticated(giis_cred, trust.clone()),
    };
    let vo = rt
        .spawn_giis(
            matrix_giis(loopback()),
            ServeOptions::tcp().security(giis_policy),
        )
        .expect("secured giis binds");
    for i in 0..GRIS_COUNT {
        let name = format!("{}{i}", if identity { "idn" } else { "sec" });
        let gris = matrix_gris(
            &name,
            loopback(),
            &vo,
            SecurityPolicy::authenticated(ca.issue(format!("/O=Grid/CN={name}")), trust.clone()),
        );
        rt.spawn_gris(gris, ServeOptions::tcp())
            .expect("secured gris");
    }
    (rt, vo)
}

/// §7 row 2: mutual auth on every hop, open ACLs for whoever passes.
fn row_authenticated(ca: &CertAuthority, trust: &TrustStore, queries: usize) -> (Run, f64) {
    let (rt, vo) = secured_topology(ca, trust, None);
    let client = LiveClient::builder(&vo)
        .security(SecurityPolicy::authenticated(
            ca.issue("/O=Grid/CN=client"),
            trust.clone(),
        ))
        .connect()
        .expect("authenticated client connects");
    let rtt_us = client
        .handshake_rtt()
        .expect("handshake measured")
        .as_secs_f64()
        * 1e6;
    let run = warm_and_drive(client, &vo, queries);
    assert_eq!(run.ok, run.total, "authenticated tier serves every query");
    rt.shutdown();
    (run, rtt_us)
}

/// §7 row 3: mutual auth plus identity ACLs on the GIIS — the admin
/// subject reads everything, any other authenticated subject sees only
/// that entries exist. Returns the admin's run plus the attribute count
/// the restricted subject was shown (must be 0).
fn row_identity(ca: &CertAuthority, trust: &TrustStore, queries: usize) -> (Run, usize, usize) {
    let acl = Acl::default()
        .with_rule(Principal::Authenticated, Grant::ExistenceOnly)
        .with_rule(Principal::Subject("/O=Grid/CN=admin".into()), Grant::All);
    let (rt, vo) = secured_topology(ca, trust, Some(PolicyMap::with_default(acl)));

    let admin = LiveClient::builder(&vo)
        .security(SecurityPolicy::authenticated(
            ca.issue("/O=Grid/CN=admin"),
            trust.clone(),
        ))
        .connect()
        .expect("admin connects");
    let run = warm_and_drive(admin, &vo, queries);
    assert_eq!(run.ok, run.total, "admin is served every query");

    // A different authenticated subject: same handshake, same wire,
    // existence-only view. `(&)` is the absolute-true filter — the
    // attribute filter `(objectclass=computer)` can no longer match
    // what redaction leaves behind.
    let mut guest = LiveClient::builder(&vo)
        .security(SecurityPolicy::authenticated(
            ca.issue("/O=Grid/CN=guest"),
            trust.clone(),
        ))
        .connect()
        .expect("guest connects");
    let enumerate = SearchSpec::subtree(Dn::root(), Filter::And(Vec::new()));
    let outcome = guest
        .request(&vo, enumerate)
        .timeout(Duration::from_secs(5))
        .send()
        .outcome;
    let Some((ResultCode::Success, entries, _)) = outcome else {
        panic!("guest enumeration failed: {outcome:?}");
    };
    let guest_entries = entries.len();
    // Existence-only keeps the DN's naming attribute and objectclass so
    // `(objectclass=*)` enumeration still works; everything descriptive
    // must be gone.
    let guest_attrs: usize = entries.iter().map(|e| e.attr_count()).sum();
    for e in &entries {
        assert!(
            !e.has("cpucount") && e.attr_count() <= 2,
            "existence-only view leaked descriptive attributes: {e:?}"
        );
    }
    rt.shutdown();
    (run, guest_entries, guest_attrs)
}

/// §7 failure row: untrusted credentials are refused at the handshake,
/// and a peer that *requires* auth from a peer that cannot give it
/// strikes the circuit breaker like any other dead child.
fn row_rejected(ca: &CertAuthority, trust: &TrustStore) -> (String, u64) {
    // (a) A credential from a CA outside the trust store: the secured
    // GIIS answers the Hello with wire code AuthRejected and the
    // connect fails — no GRIP frame is ever accepted.
    let (rt, vo) = secured_topology(ca, trust, None);
    let rogue_ca = CertAuthority::new("/O=Rogue/CN=CA", 99);
    let mut rogue_trust = TrustStore::new();
    rogue_trust.add_ca(ca);
    let err = match LiveClient::builder(&vo)
        .security(SecurityPolicy::authenticated(
            rogue_ca.issue("/O=Rogue/CN=intruder"),
            rogue_trust,
        ))
        .connect()
    {
        Ok(_) => panic!("untrusted credential must be refused at the handshake"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    let reject = err.to_string();
    rt.shutdown();

    // (b) An open GIIS chaining to a GRIS that demands authentication:
    // every chained enquiry is dropped at the GRIS door, fan-outs time
    // out, and the breaker opens — auth rejection feeds the same
    // failure machinery as a crashed child.
    let mut rt = LiveRuntime::new(Duration::from_millis(10));
    let vo = LdapUrl::server("giis.open");
    let mut giis = matrix_giis(vo.clone());
    giis.config.mode = GiisMode::Chain {
        timeout: SimDuration::from_millis(300),
    };
    giis.config.breaker = Some(BreakerConfig {
        failure_threshold: 2,
        cooldown: SimDuration::from_secs(60),
        retry: false,
    });
    let stats = giis.query_path();
    rt.spawn_giis(giis, ServeOptions::channel())
        .expect("open giis");
    let gris = matrix_gris(
        "fortress",
        loopback(),
        &vo,
        SecurityPolicy::authenticated(ca.issue("/O=Grid/CN=fortress"), trust.clone()),
    );
    rt.spawn_gris(gris, ServeOptions::tcp())
        .expect("secured gris");

    // Wait for the (channel-delivered, signed) registration to land,
    // then chain into the wall.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.stats().grrp_received == 0 {
        assert!(Instant::now() < deadline, "registration never arrived");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut client = rt.client();
    for _ in 0..3 {
        let _ = client
            .request(&vo, computers())
            .timeout(Duration::from_secs(2))
            .send()
            .outcome;
    }
    let opens = stats.stats().breaker_opens;
    assert!(
        opens >= 1,
        "auth-gated child must trip the breaker: {:?}",
        stats.stats()
    );
    rt.shutdown();
    (reject, opens)
}

fn main() {
    let args = Args::parse();
    let queries = if args.smoke { SMOKE_QUERIES } else { QUERIES };

    banner(
        "TRUST",
        "the §7 trust matrix over real sockets",
        "§7: anonymous access, GSI mutual authentication, identity-based policy",
    );
    println!(
        "{GRIS_COUNT} GRIS + 1 chaining GIIS per row, all hops on 127.0.0.1;\n\
         {queries} steady-state queries per measured tier.\n"
    );

    let ca = CertAuthority::new("/O=Grid/CN=MatrixCA", 17);
    let mut trust = TrustStore::new();
    trust.add_ca(&ca);

    let anon = row_anonymous(queries);
    let (auth, handshake_rtt_us) = row_authenticated(&ca, &trust, queries);
    let (ident, guest_entries, guest_attrs) = row_identity(&ca, &trust, queries);
    let (reject, breaker_opens) = row_rejected(&ca, &trust);

    let acl_overhead_us = ident.p50_us - auth.p50_us;
    let acl_filter_tax = (acl_overhead_us / auth.p50_us).max(0.0);

    let mut table = Table::new(&[
        "tier",
        "throughput (q/s)",
        "p50 (us)",
        "p99 (us)",
        "ok",
        "notes",
    ]);
    for (tier, run, notes) in [
        ("anonymous", &anon, "no handshake, full entries".to_string()),
        (
            "authenticated",
            &auth,
            format!("handshake rtt {handshake_rtt_us:.0}us, signed GRRP"),
        ),
        (
            "identity",
            &ident,
            format!("guest saw {guest_entries} entries, {guest_attrs} attrs"),
        ),
    ] {
        table.row(vec![
            tier.into(),
            f2(run.qps),
            f2(run.p50_us),
            f2(run.p99_us),
            format!("{}/{}", run.ok, run.total),
            notes,
        ]);
    }
    table.row(vec![
        "rejected".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "0/-".into(),
        format!("\"{reject}\"; breaker opens: {breaker_opens}"),
    ]);

    section("results: what each §7 posture costs on this machine");
    table.print();
    println!(
        "\nacl filter tax: identity p50 is {acl_overhead_us:+.0}us vs authenticated\n\
         ({:.1}% — CI gate: <{:.0}% or within the {ACL_TAX_FLOOR_US:.0}us noise floor).\n\
         The handshake is paid once per connection, not per query; the\n\
         rejected row shows AuthRejected surfacing before any GRIP frame\n\
         and auth-gated children feeding the ordinary breaker path.",
        acl_filter_tax * 100.0,
        ACL_TAX_CEILING * 100.0,
    );

    assert!(guest_entries > 0, "existence-only view still enumerates");
    assert!(
        acl_filter_tax < ACL_TAX_CEILING || acl_overhead_us < ACL_TAX_FLOOR_US,
        "ACL filtering cost {:.1}% ({acl_overhead_us:.0}us) exceeds the gate",
        acl_filter_tax * 100.0,
    );

    if let Some(path) = &args.json {
        let rows: Vec<Json> = [
            ("anonymous", &anon),
            ("authenticated", &auth),
            ("identity", &ident),
        ]
        .iter()
        .map(|(tier, run)| Json::new().str("tier", tier).run(run))
        .collect();
        Json::new()
            .num("queries", queries)
            .num("gris_count", GRIS_COUNT)
            .num("handshake_rtt_us", f2(handshake_rtt_us))
            .num("acl_filter_tax", format!("{acl_filter_tax:.4}"))
            .num("breaker_opens", breaker_opens)
            .rows("rows", &rows)
            .write(path);
    }
}

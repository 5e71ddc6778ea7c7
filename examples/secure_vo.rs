//! Security example (§7): GSI mutual authentication, per-attribute
//! access control, and the two-phase restricted query pattern.
//!
//! The provider publishes its OS type to everyone but restricts load
//! averages to VO members; an anonymous query sees the redacted view, a
//! bound VO member sees everything.
//!
//! ```text
//! cargo run --example secure_vo
//! ```

use grid_info_services::core::{ClientActor, SimDeployment};
use grid_info_services::gris::{
    DynamicHostProvider, Gris, GrisConfig, HostSpec, StaticHostProvider,
};
use grid_info_services::gsi::{
    Acl, BindToken, CertAuthority, Grant, Principal, SecurityPolicy, TrustStore,
};
use grid_info_services::ldap::{to_ldif, Filter, LdapUrl};
use grid_info_services::netsim::secs;
use grid_info_services::proto::{GripRequest, SearchSpec};

fn main() {
    // --- Community PKI. --------------------------------------------------
    let ca = CertAuthority::new("/O=Grid/CN=Community CA", 2001);
    let mut trust = TrustStore::new();
    trust.add_ca(&ca);
    let alice = ca.issue("/O=Grid/O=ANL/CN=alice");
    println!("issued credential for {}", alice.subject());

    // --- A GRIS with per-attribute policy. --------------------------------
    let host = HostSpec::irix("hostX", 8);
    let url = LdapUrl::server("gris.hostX");
    let mut config = GrisConfig::open(url.clone(), host.dn());
    config.security = SecurityPolicy::authenticated(ca.issue(url.to_string()), trust);
    config.security.policy_map.set(
        host.dn(),
        Acl::default()
            // Everyone may see what kind of machine this is...
            .with_rule(
                Principal::Anonymous,
                Grant::Attrs(vec![
                    "objectclass".into(),
                    "system".into(),
                    "arch".into(),
                    "hn".into(),
                    "perf".into(),
                ]),
            )
            // ...but load averages are for named identities only.
            .with_rule(
                Principal::Subject("/O=Grid/O=ANL/CN=alice".into()),
                Grant::All,
            ),
    );
    let mut gris = Gris::new(config, secs(30), secs(90));
    gris.add_provider(Box::new(StaticHostProvider::new(host.clone())));
    gris.add_provider(Box::new(DynamicHostProvider::new(
        &host,
        5,
        1.5,
        secs(10),
        secs(30),
    )));

    let mut dep = SimDeployment::new(5);
    dep.add_gris(gris);
    let anon = dep.add_client("anonymous");
    let member = dep.add_client("alice");
    dep.run_for(secs(1));

    // --- Anonymous view: load5 is invisible; filters cannot probe it. ----
    let spec = SearchSpec::subtree(host.dn(), Filter::always());
    let (_, entries, _) = dep
        .search_and_wait(anon, &url, spec.clone(), secs(10))
        .unwrap();
    println!("\n== anonymous view (load averages redacted) ==");
    println!("{}", to_ldif(&entries));
    let (_, probed, _) = dep
        .search_and_wait(
            anon,
            &url,
            SearchSpec::subtree(host.dn(), Filter::parse("(load5=*)").unwrap()),
            secs(10),
        )
        .unwrap();
    println!(
        "anonymous '(load5=*)' probe matches {} entries (good: 0)",
        probed.len()
    );

    // --- Alice binds with her credential, then sees everything. ----------
    let token = BindToken::create(&alice, &url.to_string()).to_bytes();
    let subject = alice.subject().to_owned();
    dep.sim.invoke::<ClientActor, _>(member, |c, ctx| {
        c.request(ctx, &url, |id| GripRequest::Bind {
            id,
            subject: subject.clone(),
            token,
        })
    });
    dep.run_for(secs(1));
    let (_, entries, _) = dep.search_and_wait(member, &url, spec, secs(10)).unwrap();
    println!("\n== authenticated view for {} ==", alice.subject());
    println!("{}", to_ldif(&entries));

    // --- Delegation: a proxy credential authenticates as alice. ----------
    let proxy = alice.delegate(404);
    println!(
        "proxy chain of {} certificates authenticates as {:?}",
        proxy.chain.len(),
        proxy.subject()
    );
}

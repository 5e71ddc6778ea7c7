//! Cross-crate integration tests: full MDS-2 deployments exercised
//! end-to-end over the simulated runtime.

use grid_info_services::core::{ClientActor, SimDeployment};
use grid_info_services::giis::{AcceptPolicy, Giis, GiisConfig, GiisMode};
use grid_info_services::gris::{Gris, GrisConfig, HostSpec, NwsGatewayProvider};
use grid_info_services::gsi::{
    Acl, BindToken, CertAuthority, Grant, Principal, SecurityPolicy, TrustStore,
};
use grid_info_services::ldap::{Dn, Filter, LdapUrl, Schema, Strictness};
use grid_info_services::netsim::secs;
use grid_info_services::nws::Nws;
use grid_info_services::proto::{GripRequest, ResultCode, SearchSpec};

fn computers() -> Filter {
    Filter::parse("(objectclass=computer)").unwrap()
}

#[test]
fn full_vo_discovery_and_enquiry_flow() {
    let mut dep = SimDeployment::new(101);
    let vo_url = LdapUrl::server("giis.vo");
    dep.add_giis(Giis::new(
        GiisConfig::chaining(vo_url.clone(), Dn::root()),
        secs(30),
        secs(90),
    ));
    let mut gris_urls = Vec::new();
    for i in 0..5 {
        let host = HostSpec::linux(&format!("w{i}"), 2 + i as u32);
        let (_, url) = dep.add_standard_host(&host, i as u64, std::slice::from_ref(&vo_url));
        gris_urls.push((host, url));
    }
    let client = dep.add_client("u");
    dep.run_for(secs(2));

    // Discovery via the directory.
    let (code, entries, _) = dep
        .search_and_wait(
            client,
            &vo_url,
            SearchSpec::subtree(Dn::root(), computers()),
            secs(10),
        )
        .unwrap();
    assert_eq!(code, ResultCode::Success);
    assert_eq!(entries.len(), 5);

    // Qualitative refinement: at least 4 CPUs.
    let (_, big, _) = dep
        .search_and_wait(
            client,
            &vo_url,
            SearchSpec::subtree(
                Dn::root(),
                Filter::parse("(&(objectclass=computer)(cpucount>=4))").unwrap(),
            ),
            secs(10),
        )
        .unwrap();
    assert_eq!(big.len(), 3, "w2, w3, w4");

    // Enquiry: direct per-host lookup returns the full subtree.
    let (host, gris_url) = &gris_urls[0];
    let (code, entries, _) = dep
        .search_and_wait(
            client,
            gris_url,
            SearchSpec::subtree(host.dn(), Filter::always()),
            secs(10),
        )
        .unwrap();
    assert_eq!(code, ResultCode::Success);
    assert_eq!(entries.len(), 4, "host + perf + store + queue");

    // All returned entries validate against the MDS core schema.
    let schema = Schema::mds_core();
    for e in &entries {
        schema
            .validate(e, Strictness::Lenient)
            .unwrap_or_else(|err| panic!("{}: {err}", e.dn()));
    }
}

#[test]
fn harvest_directory_serves_and_expires() {
    let mut dep = SimDeployment::new(102);
    let vo_url = LdapUrl::server("giis.idx");
    let mut config = GiisConfig::chaining(vo_url.clone(), Dn::root());
    config.mode = GiisMode::Harvest { refresh: secs(30) };
    let vo = dep.add_giis(Giis::new(config, secs(10), secs(30)));

    let host = HostSpec::linux("h0", 4);
    let (gris_node, _) = dep.add_standard_host(&host, 9, std::slice::from_ref(&vo_url));
    // Speed up this host's registration cadence.
    dep.gris_mut(gris_node).agent.interval = secs(10);
    dep.gris_mut(gris_node).agent.ttl = secs(30);

    let client = dep.add_client("u");
    dep.run_for(secs(5));
    assert!(dep.giis(vo).cached_entries() >= 4, "harvest populated");

    let (code, entries, _) = dep
        .search_and_wait(
            client,
            &vo_url,
            SearchSpec::subtree(Dn::root(), computers()),
            secs(10),
        )
        .unwrap();
    assert_eq!(code, ResultCode::Success);
    assert_eq!(entries.len(), 1);

    // Kill the host: soft state and harvested rows expire together.
    dep.sim.crash(gris_node);
    dep.run_for(secs(60));
    assert_eq!(dep.giis(vo).cached_entries(), 0, "cache purged on expiry");
    let (_, entries, _) = dep
        .search_and_wait(
            client,
            &vo_url,
            SearchSpec::subtree(Dn::root(), computers()),
            secs(10),
        )
        .unwrap();
    assert!(entries.is_empty());
}

#[test]
fn membership_policy_controls_vo_composition() {
    let mut dep = SimDeployment::new(103);
    let vo_url = LdapUrl::server("giis.o1only");
    let mut config = GiisConfig::chaining(vo_url.clone(), Dn::parse("o=O1").unwrap());
    config.accept = AcceptPolicy::NamespaceUnder(Dn::parse("o=O1").unwrap());
    let vo = dep.add_giis(Giis::new(config, secs(30), secs(90)));

    let in_org = HostSpec::linux("in", 2).at(Dn::parse("o=O1").unwrap());
    let out_org = HostSpec::linux("out", 2).at(Dn::parse("o=O2").unwrap());
    dep.add_standard_host(&in_org, 1, std::slice::from_ref(&vo_url));
    dep.add_standard_host(&out_org, 2, std::slice::from_ref(&vo_url));
    dep.run_for(secs(2));

    assert_eq!(dep.giis(vo).active_children(dep.now()).len(), 1);
    assert_eq!(dep.giis(vo).stats().grrp_rejected, 1);
}

#[test]
fn authenticated_access_end_to_end() {
    let ca = CertAuthority::new("/O=Grid/CN=CA", 2024);
    let mut trust = TrustStore::new();
    trust.add_ca(&ca);
    let alice = ca.issue("/O=Grid/CN=alice");

    let mut dep = SimDeployment::new(104);
    let host = HostSpec::linux("sec", 2);
    let url = LdapUrl::server("gris.sec");
    let mut config = GrisConfig::open(url.clone(), host.dn());
    config.security = SecurityPolicy::authenticated(ca.issue(url.to_string()), trust);
    config.security.policy_map.set(
        host.dn(),
        Acl::default()
            .with_rule(Principal::Anonymous, Grant::ExistenceOnly)
            .with_rule(Principal::Subject("/O=Grid/CN=alice".into()), Grant::All),
    );
    let mut gris = Gris::new(config, secs(30), secs(90));
    gris.add_provider(Box::new(grid_info_services::gris::StaticHostProvider::new(
        host.clone(),
    )));
    dep.add_gris(gris);
    let client = dep.add_client("alice");
    dep.run_for(secs(1));

    // Anonymous: existence only.
    let (_, entries, _) = dep
        .search_and_wait(
            client,
            &url,
            SearchSpec::subtree(host.dn(), Filter::always()),
            secs(10),
        )
        .unwrap();
    assert_eq!(entries.len(), 1);
    assert!(!entries[0].has("system"), "attributes hidden");

    // Bind, then full view.
    let token = BindToken::create(&alice, &url.to_string()).to_bytes();
    dep.sim.invoke::<ClientActor, _>(client, |c, ctx| {
        c.request(ctx, &url, |id| GripRequest::Bind {
            id,
            subject: "/O=Grid/CN=alice".into(),
            token,
        })
    });
    dep.run_for(secs(1));
    let (_, entries, _) = dep
        .search_and_wait(
            client,
            &url,
            SearchSpec::subtree(host.dn(), Filter::always()),
            secs(10),
        )
        .unwrap();
    assert!(entries[0].has("system"), "full view after bind");
}

#[test]
fn nws_gateway_through_full_stack() {
    let mut dep = SimDeployment::new(105);
    let url = LdapUrl::server("gris.nws");
    let mut gris = Gris::new(
        GrisConfig::open(url.clone(), Dn::parse("nn=wan").unwrap()),
        secs(30),
        secs(90),
    );
    gris.add_provider(Box::new(NwsGatewayProvider::new(
        "wan",
        Nws::new(1, secs(10)),
    )));
    dep.add_gris(gris);
    let client = dep.add_client("u");
    dep.run_for(secs(1));

    // A named link materializes lazily.
    let (code, entries, _) = dep
        .search_and_wait(
            client,
            &url,
            SearchSpec::lookup(Dn::parse("link=a-b, nn=wan").unwrap()),
            secs(10),
        )
        .unwrap();
    assert_eq!(code, ResultCode::Success);
    assert!(entries[0].get_f64("predictedbandwidth").unwrap() > 0.0);

    // A wide search over the infinite namespace is refused.
    let (code, entries, _) = dep
        .search_and_wait(
            client,
            &url,
            SearchSpec::subtree(Dn::parse("nn=wan").unwrap(), Filter::always()),
            secs(10),
        )
        .unwrap();
    assert_eq!(code, ResultCode::UnwillingToPerform);
    assert!(entries.is_empty());
}

#[test]
fn signed_registration_end_to_end() {
    // §7: the directory accepts only registrations signed by community
    // members; a rogue host with a foreign CA is never admitted.
    let ca = CertAuthority::new("/O=Grid/CN=Community CA", 3001);
    let rogue_ca = CertAuthority::new("/O=Rogue/CN=CA", 3002);
    let mut trust = TrustStore::new();
    trust.add_ca(&ca);

    let mut dep = SimDeployment::new(108);
    let vo_url = LdapUrl::server("giis.secure-vo");
    let mut config = GiisConfig::chaining(vo_url.clone(), Dn::root());
    config.security = SecurityPolicy::authenticated(ca.issue("/O=Grid/CN=giis.secure-vo"), trust);
    let vo = dep.add_giis(Giis::new(config, secs(10), secs(30)));

    // Member host: credential from the community CA.
    let good_host = HostSpec::linux("member", 2);
    let mut good = SimDeployment::standard_host_gris(&good_host, 1);
    good.config.security =
        SecurityPolicy::anonymous().with_credential(ca.issue("/O=Grid/CN=gris.member"));
    good.agent.add_target(vo_url.clone());
    dep.add_gris(good);

    // Rogue host: valid-looking credential from an untrusted CA.
    let rogue_host = HostSpec::linux("rogue", 2);
    let mut rogue = SimDeployment::standard_host_gris(&rogue_host, 2);
    rogue.config.security =
        SecurityPolicy::anonymous().with_credential(rogue_ca.issue("/O=Grid/CN=gris.rogue"));
    rogue.agent.add_target(vo_url.clone());
    dep.add_gris(rogue);

    // Unsigned host.
    let plain_host = HostSpec::linux("plain", 2);
    let (_, _) = {
        let mut plain = SimDeployment::standard_host_gris(&plain_host, 3);
        plain.agent.add_target(vo_url.clone());
        let url = plain.config.url.clone();
        (dep.add_gris(plain), url)
    };

    let client = dep.add_client("u");
    dep.run_for(secs(3));

    assert_eq!(
        dep.giis(vo).active_children(dep.now()).len(),
        1,
        "only the community-signed host is admitted"
    );
    assert!(dep.giis(vo).stats().grrp_rejected >= 2);

    let (_, entries, _) = dep
        .search_and_wait(
            client,
            &vo_url,
            SearchSpec::subtree(Dn::root(), computers()),
            secs(10),
        )
        .unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].get_str("hn"), Some("member"));
}

#[test]
fn partitioned_child_yields_marked_partial_within_deadline() {
    use grid_info_services::giis::BreakerConfig;

    let mut dep = SimDeployment::new(109);
    let vo_url = LdapUrl::server("giis.vo");
    let mut config = GiisConfig::chaining(vo_url.clone(), Dn::root());
    config.breaker = Some(BreakerConfig {
        failure_threshold: 2,
        cooldown: secs(20),
        retry: true,
    });
    let vo = dep.add_giis(Giis::new(config, secs(30), secs(90)));

    let mut host_nodes = Vec::new();
    for i in 0..3 {
        let host = HostSpec::linux(&format!("p{i}"), 2);
        let (node, _) = dep.add_standard_host(&host, i as u64, std::slice::from_ref(&vo_url));
        host_nodes.push(node);
    }
    let client = dep.add_client("u");
    dep.run_for(secs(2));

    // Cut host p0 off from the rest of the world. Its registration is
    // still live (TTL 90s), so the directory chains to it and waits.
    let rest: Vec<_> = host_nodes[1..]
        .iter()
        .copied()
        .chain([vo, client])
        .collect();
    dep.sim.partition_between(&host_nodes[..1], &rest);

    let q = SearchSpec::subtree(Dn::root(), computers());
    let before = dep.now();
    let (code, entries, _) = dep
        .search_and_wait(client, &vo_url, q.clone(), secs(10))
        .expect("partial answer still arrives");
    assert_eq!(code, ResultCode::PartialResults, "answer is marked partial");
    assert_eq!(entries.len(), 2, "reachable children are still served");
    assert!(
        dep.now().since(before) <= secs(3),
        "answer within the 2s chaining deadline, not the 10s client budget"
    );
    assert!(
        dep.giis(vo).stats().chain_retries >= 1,
        "in-deadline retry was attempted before giving up"
    );

    // A second timeout reaches the breaker threshold; the third query is
    // answered fast because the dead child is skipped instantly.
    dep.search_and_wait(client, &vo_url, q.clone(), secs(10))
        .expect("second partial answer");
    assert_eq!(dep.giis(vo).stats().breaker_opens, 1);
    let before = dep.now();
    let (code, entries, _) = dep
        .search_and_wait(client, &vo_url, q.clone(), secs(10))
        .expect("third answer");
    assert_eq!(code, ResultCode::PartialResults);
    assert_eq!(entries.len(), 2);
    assert!(
        dep.now().since(before) < secs(1),
        "open circuit avoids waiting out the chaining deadline"
    );
    assert!(dep.giis(vo).stats().breaker_skips >= 1);

    // Heal; once the cooldown lapses, the next query doubles as the
    // half-open probe and the full view returns.
    dep.sim.heal_all();
    dep.run_for(secs(25));
    let (code, entries, _) = dep
        .search_and_wait(client, &vo_url, q, secs(10))
        .expect("post-heal answer");
    assert_eq!(code, ResultCode::Success, "probe re-admitted the child");
    assert_eq!(entries.len(), 3, "complete view restored");
    assert!(dep.giis(vo).stats().breaker_probes >= 1);
    assert_eq!(dep.giis(vo).stats().breaker_closes, 1);
}

#[test]
fn deep_hierarchy_three_levels() {
    // host GRIS -> site GIIS -> region GIIS -> root GIIS.
    let mut dep = SimDeployment::new(106);
    let root_url = LdapUrl::server("giis.root");
    dep.add_giis(Giis::new(
        GiisConfig::chaining(root_url.clone(), Dn::root()),
        secs(30),
        secs(90),
    ));
    let region_url = LdapUrl::server("giis.region");
    let mut region = Giis::new(
        GiisConfig::chaining(region_url.clone(), Dn::parse("o=Region").unwrap()),
        secs(30),
        secs(90),
    );
    region.agent.add_target(root_url.clone());
    dep.add_giis(region);

    let site_suffix = Dn::parse("ou=Site, o=Region").unwrap();
    let site_url = LdapUrl::server("giis.site");
    let mut site = Giis::new(
        GiisConfig::chaining(site_url.clone(), site_suffix.clone()),
        secs(30),
        secs(90),
    );
    site.agent.add_target(region_url.clone());
    dep.add_giis(site);

    let host = HostSpec::linux("deep", 2).at(site_suffix);
    dep.add_standard_host(&host, 3, &[site_url]);
    let client = dep.add_client("u");
    dep.run_for(secs(3));

    let (code, entries, _) = dep
        .search_and_wait(
            client,
            &root_url,
            SearchSpec::subtree(Dn::root(), computers()),
            secs(20),
        )
        .unwrap();
    assert_eq!(code, ResultCode::Success);
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].dn().to_string(),
        "hn=deep, ou=Site, o=Region",
        "global name preserved through three levels"
    );
}

#[test]
fn invitation_builds_vo_dynamically() {
    // "lightweight VO formation" (§12): a new directory invites existing
    // providers; they join without manual reconfiguration.
    let mut dep = SimDeployment::new(107);
    let old_vo = LdapUrl::server("giis.old");
    dep.add_giis(Giis::new(
        GiisConfig::chaining(old_vo.clone(), Dn::root()),
        secs(10),
        secs(30),
    ));
    let host = HostSpec::linux("inv", 2);
    let (gris_node, gris_url) = dep.add_standard_host(&host, 4, &[old_vo]);
    dep.gris_mut(gris_node).agent.interval = secs(10);
    dep.gris_mut(gris_node).agent.ttl = secs(30);

    let new_vo_url = LdapUrl::server("giis.new");
    let new_vo = dep.add_giis(Giis::new(
        GiisConfig::chaining(new_vo_url.clone(), Dn::root()),
        secs(10),
        secs(30),
    ));
    let _client = dep.add_client("u");
    dep.run_for(secs(2));
    assert!(dep.giis(new_vo).active_children(dep.now()).is_empty());

    // The new directory invites the provider: send the GRRP invitation
    // from the directory node to the provider node.
    let invite_msg =
        grid_info_services::proto::GrrpMessage::invite(gris_url, new_vo_url, dep.now(), secs(60));
    dep.sim
        .invoke::<grid_info_services::core::ServiceActor<Giis>, _>(new_vo, |_, ctx| {
            ctx.send(
                gris_node,
                grid_info_services::proto::ProtocolMessage::Grrp(invite_msg),
            );
        });
    dep.run_for(secs(15));
    assert_eq!(
        dep.giis(new_vo).active_children(dep.now()).len(),
        1,
        "provider accepted the invitation and registered"
    );
}

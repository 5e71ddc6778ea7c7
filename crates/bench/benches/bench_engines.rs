//! Microbenchmarks: the GRIS and GIIS engine hot paths — cache-hit vs
//! cache-miss searches, GRRP handling, and chain fan-out planning.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gis_giis::{Giis, GiisConfig};
use gis_gris::{DynamicHostProvider, Gris, GrisConfig, HostSpec, StaticHostProvider};
use gis_gsi::Requester;
use gis_ldap::{Dn, Filter, LdapUrl};
use gis_netsim::{secs, SimTime};
use gis_proto::{GripRequest, GrrpMessage, SearchSpec};
use std::time::Duration;

fn host_gris() -> (Gris, Dn) {
    let host = HostSpec::linux("bench", 8);
    let dn = host.dn();
    let mut gris = Gris::new(
        GrisConfig::open(LdapUrl::server("gris.bench"), dn.clone()),
        secs(30),
        secs(90),
    );
    gris.add_provider(Box::new(StaticHostProvider::new(host.clone())));
    gris.add_provider(Box::new(DynamicHostProvider::new(
        &host,
        1,
        1.0,
        secs(10),
        secs(30),
    )));
    (gris, dn)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines");
    g.sample_size(40).measurement_time(Duration::from_secs(2));
    let t0 = SimTime::ZERO;
    let anon = Requester::anonymous();

    // GRIS: warm-cache search (the common case).
    let (gris, dn) = host_gris();
    let spec = SearchSpec::subtree(dn.clone(), Filter::parse("(objectclass=*)").unwrap());
    gris.search(&spec, &anon, t0); // warm the caches
    g.bench_function("gris_search_cached", |b| {
        b.iter(|| gris.search(&spec, &anon, t0 + secs(1)))
    });

    // GRIS: forced provider invocation each time (expired cache).
    g.bench_function("gris_search_uncached", |b| {
        let (gris, dn) = host_gris();
        let spec = SearchSpec::subtree(dn, Filter::parse("(objectclass=*)").unwrap());
        let mut t = 0u64;
        b.iter(|| {
            t += 3600; // beyond every TTL
            gris.search(&spec, &anon, t0 + secs(t))
        })
    });

    // GIIS: GRRP ingest (observe + refresh path).
    g.bench_function("giis_grrp_refresh_1000_children", |b| {
        let mut giis = Giis::new(
            GiisConfig::chaining(LdapUrl::server("giis"), Dn::root()),
            secs(30),
            secs(900),
        );
        for i in 0..1000 {
            giis.handle_grrp(
                GrrpMessage::register(
                    LdapUrl::server(format!("gris.h{i}")),
                    Dn::parse(&format!("hn=h{i}")).unwrap(),
                    t0,
                    secs(900),
                ),
                t0,
            );
        }
        let refresh = GrrpMessage::register(
            LdapUrl::server("gris.h500"),
            Dn::parse("hn=h500").unwrap(),
            t0 + secs(1),
            secs(900),
        );
        b.iter(|| giis.handle_grrp(refresh.clone(), t0 + secs(1)))
    });

    // GIIS: planning a scoped fan-out across 1000 registered children.
    g.bench_function("giis_chain_plan_scoped_of_1000", |b| {
        b.iter_batched(
            || {
                let mut giis = Giis::new(
                    GiisConfig::chaining(LdapUrl::server("giis"), Dn::root()),
                    secs(30),
                    secs(900),
                );
                for i in 0..1000 {
                    giis.handle_grrp(
                        GrrpMessage::register(
                            LdapUrl::server(format!("gris.h{i}")),
                            Dn::parse(&format!("hn=h{i}, o=O{}", i % 50)).unwrap(),
                            t0,
                            secs(900),
                        ),
                        t0,
                    );
                }
                giis
            },
            |mut giis| {
                giis.handle_request(
                    1,
                    GripRequest::Search {
                        id: 1,
                        spec: SearchSpec::subtree(Dn::parse("o=O25").unwrap(), Filter::always()),
                    },
                    t0 + secs(1),
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

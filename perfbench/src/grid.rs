//! The generator's own data: sites of hosts, the query mixes, and the
//! oracle that checks every answer against this data — never against
//! the program's directory.

use gis_gris::{InfoProvider, ProviderError};
use gis_ldap::{Dn, Entry, Filter, Rdn, Scope};
use gis_netsim::{SimDuration, SimRng, SimTime};
use gis_proto::SearchSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hosts per site; each host contributes [`ENTRIES_PER_HOST`] entries.
pub const HOSTS_PER_SITE: usize = 250;
pub const ENTRIES_PER_HOST: usize = 4;

const OS: [&str; 4] = ["linux", "linux", "irix", "solaris"];
const CPUS: [i64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The VO suffix every site lives under.
pub fn vo_dn() -> Dn {
    Dn::parse("o=Grid").expect("static DN")
}

fn host_name(site: usize, host: usize) -> String {
    format!("h{host}.s{site}")
}

/// Host and site indices encoded in a DN's `hn` RDN (`h<j>.s<k>`).
fn host_of(dn: &Dn) -> Option<(usize, usize)> {
    let name = dn.rdns().iter().find(|r| r.attr() == "hn")?.value();
    let (host, site) = name.strip_prefix('h')?.split_once(".s")?;
    Some((host.parse().ok()?, site.parse().ok()?))
}

/// The site an entry belongs to, read from its `hn` RDN.
pub fn site_of(dn: &Dn) -> Option<usize> {
    host_of(dn).map(|(_, site)| site)
}

/// The generator's entry at `dn` among the sites' entries (indexed by
/// site), found from the DN's shape: `<leaf>, hn=h<j>.s<k>, o=site<k>,
/// o=Grid`, where the leaf names one of a host's four entries.
pub fn site_entry<'a>(sites: &'a [Arc<Vec<Entry>>], dn: &Dn) -> Option<&'a Entry> {
    let (host, site) = host_of(dn)?;
    let kind = match dn.rdn()?.attr() {
        "hn" => 0,
        "perf" => 1,
        "store" => 2,
        "queue" => 3,
        _ => return None,
    };
    let entry = sites.get(site)?.get(host * ENTRIES_PER_HOST + kind)?;
    (entry.dn() == dn).then_some(entry)
}

/// True if `got` carries every attribute value of the generator's entry
/// at its DN. Attributes the service adds of its own are allowed.
fn holds_model(got: &Entry, oracle: &dyn Oracle) -> bool {
    oracle.model(got.dn()).is_some_and(|want| {
        want.attrs().all(|(name, values)| {
            let have = got.get(name);
            values.iter().all(|v| have.contains(v))
        })
    })
}

/// Order-independent digest of a DN set: wrapping sum of FNV-1a hashes.
pub fn dn_digest<'a>(dns: impl IntoIterator<Item = &'a Dn>) -> (usize, u64) {
    let mut count = 0;
    let mut sum = 0u64;
    for dn in dns {
        count += 1;
        let mut h = 0xcbf29ce484222325u64;
        for b in dn.to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        sum = sum.wrapping_add(h);
    }
    (count, sum)
}

fn in_scope(dn: &Dn, spec: &SearchSpec) -> bool {
    match spec.scope {
        Scope::Base => dn == &spec.base,
        Scope::One => dn.is_child_of(&spec.base),
        Scope::Sub => dn.is_under(&spec.base),
    }
}

/// What `spec` must return from `entries`: count and DN digest.
pub fn expect<'a>(spec: &SearchSpec, entries: impl IntoIterator<Item = &'a Entry>) -> (usize, u64) {
    dn_digest(
        entries
            .into_iter()
            .filter(|e| in_scope(e.dn(), spec) && spec.filter.matches(e))
            .map(Entry::dn),
    )
}

/// One site: its DN and the 1000 entries its GRIS serves.
pub struct Site {
    pub dn: Dn,
    pub entries: Arc<Vec<Entry>>,
}

impl Site {
    /// Deterministic from `(seed, idx)`, so sites can be made in any
    /// order.
    pub fn generate(seed: u64, idx: usize) -> Site {
        let mut rng = SimRng::new(seed ^ (idx as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let dn = vo_dn().child(Rdn::new("o", format!("site{idx}")));
        let mut entries = Vec::with_capacity(HOSTS_PER_SITE * ENTRIES_PER_HOST);
        for j in 0..HOSTS_PER_SITE {
            let hn = host_name(idx, j);
            let host = dn.child(Rdn::new("hn", hn.clone()));
            entries.push(
                Entry::new(host.clone())
                    .with_class("MdsHost")
                    .with("hn", hn.clone())
                    .with("os", *rng.pick(&OS))
                    .with("arch", if rng.chance(0.7) { "x86" } else { "mips" })
                    .with("cpucount", *rng.pick(&CPUS))
                    .with("memorygb", rng.range_u64(1, 257) as i64),
            );
            entries.push(
                Entry::new(host.child(Rdn::new("perf", "load")))
                    .with_class("MdsCpuLoad")
                    .with("hn", hn.clone())
                    .with("load5", format!("{:.2}", rng.range_f64(0.0, 8.0))),
            );
            entries.push(
                Entry::new(host.child(Rdn::new("store", "scratch")))
                    .with_class("MdsFs")
                    .with("hn", hn.clone())
                    .with("freemb", rng.range_u64(0, 100_000) as i64),
            );
            entries.push(
                Entry::new(host.child(Rdn::new("queue", "default")))
                    .with_class("MdsQueue")
                    .with("hn", hn)
                    .with("jobcount", rng.range_u64(0, 64) as i64),
            );
        }
        Site {
            dn,
            entries: Arc::new(entries),
        }
    }

    /// The entry probed to decide that the whole site is answerable: a
    /// harvest publishes a site's entries in one snapshot, so the last
    /// one present means all are.
    pub fn last_dn(&self) -> Dn {
        self.entries
            .last()
            .expect("sites are non-empty")
            .dn()
            .clone()
    }

    pub fn host_dn(&self, j: usize) -> Dn {
        self.entries[j * ENTRIES_PER_HOST].dn().clone()
    }
}

/// The benchmark-supplied information provider of one site's GRIS.
pub struct SiteProvider {
    namespace: Dn,
    entries: Arc<Vec<Entry>>,
}

impl SiteProvider {
    pub fn new(site: &Site) -> SiteProvider {
        SiteProvider {
            namespace: site.dn.clone(),
            entries: Arc::clone(&site.entries),
        }
    }
}

impl InfoProvider for SiteProvider {
    fn name(&self) -> &str {
        "site"
    }
    fn namespace(&self) -> &Dn {
        &self.namespace
    }
    fn cache_ttl(&self) -> SimDuration {
        // Longer than any run: no refetch inside the measured window.
        SimDuration::from_secs(3600)
    }
    fn fetch(&mut self, _spec: &SearchSpec, _now: SimTime) -> Result<Vec<Entry>, ProviderError> {
        Ok(self.entries.as_ref().clone())
    }
}

/// One query of a pool, with its expected answer.
pub struct Query {
    pub spec: SearchSpec,
    pub expected: Expected,
}

pub enum Expected {
    /// The answer comes from one fixed site (or host): exact count and
    /// digest.
    Exact(usize, u64),
    /// A VO-wide query: the expected count and digest from every site
    /// that has any match.
    PerSite(BTreeMap<usize, (usize, u64)>),
}

/// What the generator knows about the directory it fed: the entry it
/// published at a DN, and which sites a VO-wide answer must, and may,
/// contain when it was sent at `sent` and received at `received`.
pub trait Oracle {
    fn model(&self, dn: &Dn) -> Option<&Entry>;
    fn must_appear(&self, site: usize, sent: std::time::Instant) -> bool;
    fn may_appear(
        &self,
        site: usize,
        sent: std::time::Instant,
        received: std::time::Instant,
    ) -> bool;
}

impl Query {
    /// Check an answer: every entry carries the generator's attributes;
    /// the DN set is exact for site-bound queries; for VO-wide ones,
    /// every site present must be complete and allowed, and every site
    /// that must be present is.
    pub fn check(
        &self,
        entries: &[Entry],
        live: &dyn Oracle,
        sent: std::time::Instant,
        received: std::time::Instant,
    ) -> bool {
        if !entries.iter().all(|e| holds_model(e, live)) {
            return false;
        }
        match &self.expected {
            Expected::Exact(n, d) => dn_digest(entries.iter().map(Entry::dn)) == (*n, *d),
            Expected::PerSite(per_site) => {
                let mut by_site: BTreeMap<usize, Vec<&Dn>> = BTreeMap::new();
                for e in entries {
                    let Some(site) = site_of(e.dn()) else {
                        return false;
                    };
                    by_site.entry(site).or_default().push(e.dn());
                }
                for (site, dns) in &by_site {
                    if per_site.get(site) != Some(&dn_digest(dns.iter().copied()))
                        || !live.may_appear(*site, sent, received)
                    {
                        return false;
                    }
                }
                per_site
                    .keys()
                    .all(|s| by_site.contains_key(s) || !live.must_appear(*s, sent))
            }
        }
    }
}

/// Queries in a discovery pool: 30 site-scoped selective subtree
/// searches (10%), 120 VO-wide host equalities (40%), 120 one-level
/// host browses (40%) and 30 VO-wide broker matches (10%).
///
/// The equalities and browses answer in about a millisecond at ≈40k
/// entries, the subtree searches and broker matches in 10–15 ms. With
/// 80% of the mix fast, an open loop's median latency lies inside the
/// fast kinds' spread rather than on the step between the two groups,
/// where it would jump with the share of reads a publish delays.
pub const POOL: usize = 300;

/// The discovery mix. Its composition and filter thresholds are fixed
/// grids, so every seed asks equally selective questions; the seed
/// picks the sites and hosts asked about. Site-bound queries pick from
/// `targets`; broker answers are expected per site over every site in
/// `sites`.
pub fn discovery_pool(rng: &mut SimRng, sites: &[Site], targets: &[usize]) -> Vec<Query> {
    let mut pool = Vec::with_capacity(POOL);
    for i in 0..POOL {
        let slot = i % 20;
        let round = i / 20;
        let site = *rng.pick(targets);
        let host = rng.range_u64(0, HOSTS_PER_SITE as u64) as usize;
        let s = &sites[site];
        let broker = slot >= 18;
        let spec = if slot < 2 {
            let mem = 232 + 2 * ((round * 2 + slot) % 9);
            let f = format!("(&(objectclass=MdsHost)(memorygb>={mem}))");
            SearchSpec::subtree(s.dn.clone(), Filter::parse(&f).expect("filter"))
        } else if slot < 10 {
            SearchSpec::subtree(vo_dn(), Filter::eq("hn", &host_name(site, host)))
        } else if slot < 18 {
            let mut spec = SearchSpec::lookup(s.host_dn(host));
            spec.scope = Scope::One;
            spec
        } else {
            let combo = round * 2 + slot - 18;
            let os = OS[1 + combo % 3];
            let cpu = CPUS[3 + (combo / 3) % 3];
            let mem = 200 + 10 * (combo / 9);
            let f = format!("(&(objectclass=MdsHost)(os={os})(cpucount>={cpu})(memorygb>={mem}))");
            SearchSpec::subtree(vo_dn(), Filter::parse(&f).expect("filter"))
        };
        let expected = if broker {
            Expected::PerSite(
                sites
                    .iter()
                    .enumerate()
                    .map(|(k, s)| (k, expect(&spec, s.entries.iter())))
                    .filter(|(_, (n, _))| *n > 0)
                    .collect(),
            )
        } else {
            let (n, d) = expect(&spec, s.entries.iter());
            Expected::Exact(n, d)
        };
        pool.push(Query { spec, expected });
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_are_deterministic_and_parse_back() {
        let a = Site::generate(7, 3);
        let b = Site::generate(7, 3);
        assert_eq!(a.entries.len(), HOSTS_PER_SITE * ENTRIES_PER_HOST);
        assert_eq!(
            dn_digest(a.entries.iter().map(Entry::dn)),
            dn_digest(b.entries.iter().map(Entry::dn))
        );
        assert!(a.entries.iter().all(|e| site_of(e.dn()) == Some(3)));
    }

    struct Sites(Vec<Arc<Vec<Entry>>>);

    impl Oracle for Sites {
        fn model(&self, dn: &Dn) -> Option<&Entry> {
            site_entry(&self.0, dn)
        }
        fn must_appear(&self, _: usize, _: std::time::Instant) -> bool {
            true
        }
        fn may_appear(&self, _: usize, _: std::time::Instant, _: std::time::Instant) -> bool {
            true
        }
    }

    #[test]
    fn partial_or_altered_entries_fail_the_check() {
        let sites: Vec<Site> = (0..2).map(|k| Site::generate(1, k)).collect();
        let oracle = Sites(sites.iter().map(|s| Arc::clone(&s.entries)).collect());
        for e in sites[1].entries.iter() {
            assert!(std::ptr::eq(site_entry(&oracle.0, e.dn()).unwrap(), e));
        }
        let spec = SearchSpec::subtree(sites[1].host_dn(7), Filter::always());
        let (n, d) = expect(&spec, sites[1].entries.iter());
        let q = Query {
            spec,
            expected: Expected::Exact(n, d),
        };
        let now = std::time::Instant::now();
        let answer: Vec<Entry> = sites[1].entries[28..32].to_vec();
        assert!(q.check(&answer, &oracle, now, now));

        let mut extra = answer.clone();
        extra[0].add("mds-validto", "later");
        assert!(
            q.check(&extra, &oracle, now, now),
            "added attributes are allowed"
        );
        let mut dropped = answer.clone();
        dropped[0].remove("memorygb");
        assert!(
            !q.check(&dropped, &oracle, now, now),
            "a missing attribute fails"
        );
        let mut changed = answer.clone();
        changed[3].put("jobcount", vec!["99999".into()]);
        assert!(!q.check(&changed, &oracle, now, now), "a wrong value fails");
        assert!(
            !q.check(&answer[..3], &oracle, now, now),
            "a missing entry fails"
        );
    }

    #[test]
    fn browse_and_equality_answers_are_exact() {
        let sites: Vec<Site> = (0..2).map(|k| Site::generate(1, k)).collect();
        let mut rng = SimRng::new(5);
        for q in discovery_pool(&mut rng, &sites, &[0, 1]) {
            match (&q.spec.filter, &q.expected) {
                (_, Expected::Exact(n, _)) if q.spec.scope == Scope::One => assert_eq!(*n, 3),
                (Filter::Eq(..), Expected::Exact(n, _)) => assert_eq!(*n, 4),
                _ => {}
            }
        }
    }
}
